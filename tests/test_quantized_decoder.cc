/**
 * @file
 * End-to-end verification of the packed W4A4KV4 inference path: the
 * QuantizedDecoder (real integer kernels) against the fake-quant
 * reference model built from the same quantizers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comet/model/quantized_decoder.h"
#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "tiny_transformer_forward.h"

namespace comet {
namespace {

struct Harness {
    TinyTransformer teacher;
    CalibrationData calibration;
    Dataset eval;
};

Harness
makeHarness(uint64_t seed, bool gated = true)
{
    TinyTransformerConfig config;
    config.vocab_size = 64;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.outlier_fraction = 0.05;
    config.outlier_scale = 15.0;
    config.gated_mlp = gated;
    config.seed = seed;
    auto teacher = TinyTransformer::random(config);
    Rng rng(seed + 1);
    Dataset calib = sampleDataset(teacher, 3, 24, rng);
    Dataset eval = sampleDataset(teacher, 2, 16, rng);
    auto calibration = CalibrationData::collect(teacher, calib);
    return {std::move(teacher), std::move(calibration),
            std::move(eval)};
}

/**
 * Builds the fake-quantization twin of the QuantizedDecoder: weights
 * replaced by the dequantized packed weights (mapped back to the
 * original channel order), activations fake-quantized by the same
 * site quantizers, KV fake-quantized with the same config. The twin
 * runs through the forward oracle in float; agreement with the
 * packed path proves the integer kernels end to end.
 */
struct Twin {
    TinyTransformer model;
    std::shared_ptr<HookQuantSimulator> sim;
};

Twin
makeTwin(const Harness &h, const QuantizedDecoderConfig &config)
{
    // Per-site quantizers identical to the decoder's (same
    // calibration, same config => same permutation and precisions).
    auto quantizers = std::make_shared<
        std::map<std::pair<int64_t, int>, FmpqActivationQuantizer>>();
    const auto &mc = h.teacher.config();
    for (int64_t l = 0; l < mc.num_layers; ++l) {
        for (int s = 0; s < kNumActSites; ++s) {
            quantizers->emplace(
                std::make_pair(l, s),
                FmpqActivationQuantizer::calibrate(
                    h.calibration.activations(
                        l, static_cast<ActSite>(s)),
                    config.fmpq));
        }
    }

    auto act_site_of = [](WeightKind kind) {
        switch (kind) {
          case WeightKind::kQ:
          case WeightKind::kK:
          case WeightKind::kV:
            return ActSite::kQkv;
          case WeightKind::kO:
            return ActSite::kO;
          case WeightKind::kGate:
          case WeightKind::kUp:
            return ActSite::kMlp;
          case WeightKind::kDown:
            return ActSite::kDown;
        }
        return ActSite::kQkv;
    };

    auto model = h.teacher.transformedWeights(
        [&](const LinearSite &linear_site, const Tensor &w) {
            const auto &quantizer = quantizers->at(
                {linear_site.layer,
                 static_cast<int>(act_site_of(linear_site.kind))});
            const Tensor permuted =
                dequantize(quantizer.quantizeWeight(w));
            // Back to the original channel order.
            return quantizer.permutation().inverse().applyToColumns(
                permuted);
        });

    auto sim = std::make_shared<HookQuantSimulator>();
    sim->setActHook([quantizers](const ActivationSite &site,
                                 const Tensor &x) {
        return quantizers
            ->at({site.layer, static_cast<int>(site.site)})
            .fakeQuantize(x);
    });
    sim->setKvQuantizer(config.kv);
    return {std::move(model), std::move(sim)};
}

TEST(QuantizedDecoder, MatchesFakeQuantTwin)
{
    const Harness h = makeHarness(77);
    QuantizedDecoderConfig config;
    // Per-token KV quantization groups: the incremental cache and the
    // twin's whole-sequence fake quantization then derive identical
    // parameters, isolating the packed-kernel comparison. (With
    // multi-token groups the incremental path legitimately uses
    // partial-group scales while the cache grows.)
    config.kv = KvQuantConfig{4, 1, true};
    QuantizedDecoder decoder(h.teacher, h.calibration, config);
    const Twin twin = makeTwin(h, config);

    const std::vector<int32_t> tokens{3, 11, 42, 7, 29, 55};
    const Tensor twin_logits =
        forwardReference(twin.model, tokens, twin.sim.get());

    for (size_t t = 0; t < tokens.size(); ++t) {
        const std::vector<float> logits = decoder.step(tokens[t]);
        double scale = 1.0;
        for (int64_t v = 0; v < 64; ++v) {
            scale = std::max(scale,
                             std::fabs(static_cast<double>(
                                 twin_logits.at(
                                     static_cast<int64_t>(t), v))));
        }
        for (int64_t v = 0; v < 64; ++v) {
            ASSERT_NEAR(logits[static_cast<size_t>(v)],
                        twin_logits.at(static_cast<int64_t>(t), v),
                        0.02 * scale + 0.02)
                << "position " << t << " vocab " << v;
        }
    }
}

TEST(QuantizedDecoder, ReportsW4A4Fraction)
{
    const Harness h = makeHarness(78);
    QuantizedDecoder decoder(h.teacher, h.calibration);
    EXPECT_GT(decoder.w4a4ComputeFraction(), 0.4);
    EXPECT_LE(decoder.w4a4ComputeFraction(), 1.0);
}

TEST(QuantizedDecoder, PerplexityStaysUsable)
{
    // The packed path's language-modeling quality tracks the fake-
    // quant FMPQ row: usable, far from the W4A4 collapse.
    const Harness h = makeHarness(79);
    QuantizedDecoderConfig config;

    double packed_nll = 0.0;
    int64_t packed_tokens = 0;
    for (const auto &sequence : h.eval.sequences) {
        QuantizedDecoder decoder(h.teacher, h.calibration, config);
        std::vector<float> logits = decoder.step(sequence[0]);
        for (size_t t = 1; t < sequence.size(); ++t) {
            // NLL of the observed next token under the decoder.
            double max_logit = logits[0];
            for (float v : logits)
                max_logit =
                    std::max(max_logit, static_cast<double>(v));
            double sum = 0.0;
            for (float v : logits)
                sum += std::exp(static_cast<double>(v) - max_logit);
            const double p =
                std::exp(static_cast<double>(
                             logits[static_cast<size_t>(
                                 sequence[t])]) -
                         max_logit) /
                sum;
            packed_nll -= std::log(std::max(p, 1e-12));
            ++packed_tokens;
            logits = decoder.step(sequence[t]);
        }
    }
    const double packed_ppl =
        std::exp(packed_nll / static_cast<double>(packed_tokens));

    double fp_nll = 0.0;
    int64_t fp_tokens = 0;
    for (const auto &sequence : h.eval.sequences) {
        const auto [nll, count] = sequenceNllReference(h.teacher, sequence);
        fp_nll += nll;
        fp_tokens += count;
    }
    const double fp_ppl =
        std::exp(fp_nll / static_cast<double>(fp_tokens));

    EXPECT_LT(packed_ppl, fp_ppl * 6.0); // usable, not collapsed
    EXPECT_GE(packed_ppl, fp_ppl * 0.9);
}

/** Tokens of a deterministic test stream over the 64-token vocab. */
std::vector<int32_t>
testStream(int64_t length, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> tokens;
    for (int64_t i = 0; i < length; ++i)
        tokens.push_back(static_cast<int32_t>(rng.uniformInt(64)));
    return tokens;
}

/** The decoder's three modes over @p h: W4A4KV4, then the float
 * reference with a float cache and with a KV4 store. */
std::vector<QuantizedDecoder>
everyMode(const Harness &h)
{
    std::vector<QuantizedDecoder> modes;
    modes.emplace_back(h.teacher, h.calibration);
    modes.emplace_back(h.teacher);
    modes.emplace_back(h.teacher, KvQuantConfig{4, 32, true});
    return modes;
}

TEST(QuantizedDecoder, PrefillMatchesTokenByTokenBitExact)
{
    // One batched forward over the prompt gives the logits of feeding
    // it one token at a time, and leaves an identical KV state: the
    // next 100 decode steps agree bit for bit. The lengths straddle
    // the KV group (32), float cache growth (16, 32, 64, 128), the
    // attention chunk (64) and the batched store attention's row
    // blocks (whole, ragged, one past).
    const Harness h = makeHarness(82);
    const std::vector<QuantizedDecoder> modes = everyMode(h);
    for (size_t mode = 0; mode < modes.size(); ++mode) {
        for (const int64_t length : {1, 31, 32, 33, 63, 64, 65, 96, 128,
                                     129}) {
            SCOPED_TRACE(::testing::Message()
                         << "mode " << mode << " prompt " << length);
            const QuantizedDecoder &fresh = modes[mode];
            const std::vector<int32_t> stream =
                testStream(length + 100, 83 + static_cast<uint64_t>(length));
            const std::vector<int32_t> prompt(stream.begin(),
                                              stream.begin() + length);
            QuantizedDecoder batched = fresh;
            QuantizedDecoder stepped = fresh;
            std::vector<float> want;
            for (int32_t token : prompt)
                want = stepped.step(token);
            ASSERT_EQ(batched.prefill(prompt), want);
            EXPECT_EQ(batched.position(), length);
            for (int64_t t = length; t < length + 100; ++t) {
                const int32_t token = stream[static_cast<size_t>(t)];
                ASSERT_EQ(batched.step(token), stepped.step(token))
                    << "decode step at position " << t;
            }
        }
    }
}

TEST(QuantizedDecoder, PrefillAtNonzeroPositionMatchesSteps)
{
    // A second prompt chunk appended after decoding has started (the
    // chunked-prefill shape) sees the existing cache exactly as the
    // token-by-token path does: starting inside an open KV group
    // (group size 32), at a group boundary, and inside a later group,
    // each chunk running across at least one boundary.
    const Harness h = makeHarness(84);
    const std::vector<int32_t> stream = testStream(90, 85);
    const QuantizedDecoder fresh(h.teacher, h.calibration);
    QuantizedDecoder stepped = fresh;
    std::vector<float> want;
    for (int64_t t = 0; t < 90; ++t)
        want = stepped.step(stream[static_cast<size_t>(t)]);
    for (const int64_t start : {20, 31, 44, 70}) {
        SCOPED_TRACE(::testing::Message() << "second chunk at " << start);
        QuantizedDecoder batched = fresh;
        (void)batched.prefill({stream.begin(), stream.begin() + start});
        (void)batched.step(stream[static_cast<size_t>(start)]);
        EXPECT_EQ(batched.prefill({stream.begin() + start + 1, stream.end()}),
                  want);
        EXPECT_EQ(batched.position(), 90);
    }
}

TEST(QuantizedDecoder, PrefillIsIdenticalAtPoolSizesOneAndFour)
{
    // The batched prefill fans the GEMM column tiles, the K/V appends
    // and the store attention's (row block x kv head) items out to the
    // pool; every item writes its own outputs, so the logits and the
    // continuation do not depend on the pool size.
    const Harness h = makeHarness(88);
    const std::vector<int32_t> stream = testStream(150, 89);
    const std::vector<int32_t> prompt(stream.begin(), stream.begin() + 128);
    const int saved_threads = ThreadPool::global().threadCount();
    std::vector<std::vector<float>> logits;
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        QuantizedDecoder decoder(h.teacher, h.calibration);
        logits.push_back(decoder.prefill(prompt));
        for (int64_t t = 128; t < 150; ++t)
            logits.push_back(decoder.step(stream[static_cast<size_t>(t)]));
    }
    ThreadPool::setGlobalThreads(saved_threads);
    const size_t half = logits.size() / 2;
    for (size_t i = 0; i < half; ++i)
        EXPECT_EQ(logits[i], logits[half + i]) << "call " << i;
}

TEST(QuantizedDecoder, DecodeStepOpensNoPoolRegion)
{
    // A decode step at 2048 context stays on the caller: its GEMMs, its
    // one-row store attention and the LM head are all below
    // kMinPoolMacs, and the one-row call copies no open group. The
    // prompt's batched prefill does fan out.
    const Harness h = makeHarness(90);
    const std::vector<int32_t> stream = testStream(2048, 91);
    obs::Counter &regions =
        obs::MetricsRegistry::global().counter("runtime.regions");
    QuantizedDecoder decoder(h.teacher, h.calibration);
    const int64_t before_prefill = regions.value();
    (void)decoder.prefill({stream.begin(), stream.end() - 1});
    EXPECT_GT(regions.value(), before_prefill);
    const int64_t before_step = regions.value();
    (void)decoder.step(stream.back());
    EXPECT_EQ(regions.value(), before_step);
    EXPECT_EQ(decoder.position(), 2048);
}

TEST(QuantizedDecoder, CopyMidSequenceContinuesIdentically)
{
    // A snapshot taken mid-sequence owns its KV stores: the original
    // and the copy decode the same continuation bit for bit, through
    // the stores' buffer growth.
    const Harness h = makeHarness(86);
    const std::vector<int32_t> stream = testStream(150, 87);
    for (QuantizedDecoder &original : everyMode(h)) {
        (void)original.prefill({stream.begin(), stream.begin() + 20});
        QuantizedDecoder copy = original;
        for (int64_t t = 20; t < 150; ++t) {
            const int32_t token = stream[static_cast<size_t>(t)];
            ASSERT_EQ(copy.step(token), original.step(token)) << t;
        }
        EXPECT_EQ(copy.kvCacheBytes(), original.kvCacheBytes());
    }
}

TEST(QuantizedDecoder, KvCacheBytesMatchClosedFormAt2048)
{
    // Measured from the stores' buffers: 0.5 B per value at 4 bits,
    // plus one (scale, zero point) pair per (group, channel), for K
    // and V of every layer.
    const Harness h = makeHarness(88);
    QuantizedDecoder decoder(h.teacher, h.calibration);
    EXPECT_EQ(decoder.kvCacheBytes(), 0);
    (void)decoder.prefill(testStream(2048, 89));
    const int64_t layers = 2, kv_dim = 32, tokens = 2048, group = 32;
    const int64_t values = 2 * layers * tokens * kv_dim;
    const int64_t params = 2 * layers * (tokens / group) * kv_dim;
    EXPECT_EQ(decoder.kvCacheBytes(), values / 2 + params * 8);
}

TEST(QuantizedDecoder, FusedSiteGemmsSliceToSeparateGemmsBitExact)
{
    // The decoder runs q|k|v and gate|up as one GEMM per activation
    // site on row-stacked weights. Column slices of the fused output
    // must equal the separate per-projection GEMMs bit for bit, on the
    // site's calibration rows (M = 72) and on one decode row.
    const Harness h = makeHarness(33);
    const QuantizedDecoderConfig config;
    W4AxGemmConfig gemm_config;
    gemm_config.tile_m = config.tile_m;
    gemm_config.tile_n = config.tile_n;
    gemm_config.tile_k = config.tile_k;
    gemm_config.threads = config.gemm_threads;
    const std::pair<ActSite, std::vector<WeightKind>> fusions[] = {
        {ActSite::kQkv, {WeightKind::kQ, WeightKind::kK, WeightKind::kV}},
        {ActSite::kMlp, {WeightKind::kGate, WeightKind::kUp}}};
    for (int64_t l = 0; l < h.teacher.config().num_layers; ++l) {
        for (const auto &[act_site, kinds] : fusions) {
            const Tensor &x = h.calibration.activations(l, act_site);
            const auto quantizer =
                FmpqActivationQuantizer::calibrate(x, config.fmpq);
            std::vector<const Tensor *> parts;
            for (WeightKind kind : kinds)
                parts.push_back(&h.teacher.weight({l, kind}));
            const W4AxGemm fused(quantizer.quantizeWeight(stackRows(parts)),
                                 quantizer.blockPrecisions(),
                                 gemm_config);
            Tensor one_row(1, x.cols());
            std::copy(x.data(), x.data() + x.cols(), one_row.data());
            const Tensor *inputs[] = {&x, &one_row};
            for (const Tensor *input : inputs) {
                const MixedQuantizedActivation act =
                    quantizer.quantize(*input);
                const Tensor out = fused.run(act);
                int64_t col = 0;
                for (WeightKind kind : kinds) {
                    const Tensor part =
                        W4AxGemm(quantizer.quantizeWeight(
                                     h.teacher.weight({l, kind})),
                                 quantizer.blockPrecisions(), gemm_config)
                            .run(act);
                    for (int64_t r = 0; r < part.rows(); ++r) {
                        EXPECT_EQ(std::memcmp(out.data() + r * out.cols() +
                                                  col,
                                              part.data() + r * part.cols(),
                                              static_cast<size_t>(
                                                  part.cols()) *
                                                  sizeof(float)),
                                  0)
                            << "layer " << l << " row " << r;
                    }
                    col += part.cols();
                }
                EXPECT_EQ(col, out.cols());
            }
        }
    }
}

TEST(QuantizedDecoder, FloatPathMatchesForwardOracleUnderEverySimulator)
{
    // The float decoder is the accuracy harness's one forward. A
    // sequence prefilled in one call with a scheme's simulator gives,
    // in every row (prefillLogits) and in the last (prefill), the
    // logits of the whole-sequence oracle with the same simulator, bit
    // for bit: every QuantScheme, gated and plain MLP, and lengths 1,
    // 28 and 100 (past the 64-token attention chunk and KV4 group).
    std::vector<QuantScheme> schemes = table1Schemes();
    schemes.push_back(QuantScheme::kQuarotW4A4);
    for (const bool gated : {true, false}) {
        const Harness h = makeHarness(90, gated);
        for (QuantScheme scheme : schemes) {
            const QuantizedModel quantized =
                buildQuantizedModel(h.teacher, scheme, h.calibration);
            const QuantizedDecoder fresh(quantized.model);
            for (const int64_t length : {1, 28, 100}) {
                SCOPED_TRACE(::testing::Message()
                             << quantSchemeName(scheme) << " "
                             << quantSchemePrecision(scheme) << " gated "
                             << gated << " length " << length);
                const std::vector<int32_t> tokens = testStream(
                    length, 94 + static_cast<uint64_t>(length));
                const Tensor want =
                    forwardReference(quantized.model, tokens, quantized.sim());
                const Tensor rows = QuantizedDecoder(fresh).prefillLogits(
                    tokens, quantized.sim());
                ASSERT_EQ(rows.rows(), want.rows());
                ASSERT_EQ(rows.cols(), want.cols());
                EXPECT_EQ(std::memcmp(rows.data(), want.data(),
                                      static_cast<size_t>(want.numel()) *
                                          sizeof(float)),
                          0);
                const std::vector<float> last =
                    QuantizedDecoder(fresh).prefill(tokens, quantized.sim());
                EXPECT_EQ(std::memcmp(last.data(),
                                      want.data() + (length - 1) * want.cols(),
                                      last.size() * sizeof(float)),
                          0);
            }
        }
    }
}

TEST(QuantizedDecoder, SamplingMatchesForwardOracleSampler)
{
    // sampleDataset samples on the decoder, one incremental step per
    // token; the oracle runs a whole-prefix forward per token. Both
    // draw the same numbers from the same Rng, so the streams match.
    for (const bool gated : {true, false}) {
        const Harness h = makeHarness(91, gated);
        Rng rng(95), oracle_rng(95);
        const Dataset dataset = sampleDataset(h.teacher, 4, 40, rng);
        for (const auto &sequence : dataset.sequences) {
            EXPECT_EQ(sequence,
                      sampleSequenceReference(h.teacher, 40, oracle_rng));
        }
    }
}

TEST(QuantizedDecoder, PlainMlpModelSupported)
{
    TinyTransformerConfig config;
    config.vocab_size = 64;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.gated_mlp = false;
    config.seed = 80;
    const auto teacher = TinyTransformer::random(config);
    Rng rng(81);
    const Dataset calib = sampleDataset(teacher, 2, 20, rng);
    const CalibrationData calibration =
        CalibrationData::collect(teacher, calib);
    QuantizedDecoder decoder(teacher, calibration);
    const std::vector<float> logits = decoder.prefill({1, 2, 3});
    EXPECT_EQ(logits.size(), 64u);
    EXPECT_EQ(decoder.position(), 3);
}

} // namespace
} // namespace comet
