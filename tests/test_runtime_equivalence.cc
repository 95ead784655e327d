/**
 * @file
 * The runtime determinism contract, asserted end to end: every path
 * ported onto the comet::runtime pool produces bit-identical results
 * with a 1-slot pool and an N-slot pool. Covers the W4Ax GEMM
 * (including stats and the ragged n-edge), the float/int reference
 * GEMMs, decode attention (reference, online, quantized, batched),
 * FMPQ quantization sweeps, the packed quantized decoder, and the
 * serving engine's per-request fan-out.
 */
#include <gtest/gtest.h>

#include <vector>

#include "comet/common/rng.h"
#include "comet/kernel/gemm_ref.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/model/quantized_decoder.h"
#include "comet/model/synthetic.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/engine.h"
#include "decode_attention_batch.h"

namespace comet {
namespace {

/** Pool sizes every path is checked across. */
constexpr int kWidePool = 4;

void
expectBitEqual(const Tensor &a, const Tensor &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (int64_t r = 0; r < a.rows(); ++r) {
        for (int64_t c = 0; c < a.cols(); ++c) {
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << what << " differs at (" << r << ", " << c << ")";
        }
    }
}

void
expectBitEqual(const std::vector<float> &a,
               const std::vector<float> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " differs at " << i;
}

/** Runs @p fn under a 1-slot global pool and a kWidePool-slot one,
 * returning both results. */
template <typename Fn>
auto
underBothPoolSizes(Fn fn)
{
    ThreadPool::setGlobalThreads(1);
    auto narrow = fn();
    ThreadPool::setGlobalThreads(kWidePool);
    auto wide = fn();
    return std::make_pair(std::move(narrow), std::move(wide));
}

struct W4AxFixture {
    FmpqActivationQuantizer quantizer;
    MixedQuantizedActivation activation;
    BlockQuantizedWeight weight;
    Tensor x;
    Tensor w;
};

W4AxFixture
makeFixture(int64_t tokens, int64_t out_features, int64_t channels,
            int64_t block_size, uint64_t seed)
{
    Rng rng(seed);
    SyntheticActivationConfig act_config;
    act_config.channels = channels;
    act_config.outlier_fraction = 0.03;
    act_config.outlier_scale = 30.0;
    act_config.seed = seed + 1;
    const SyntheticActivationModel model(act_config);

    FmpqConfig fmpq_config;
    fmpq_config.block_size = block_size;
    const Tensor calib = model.sample(64, rng);
    auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, fmpq_config);

    Tensor x = model.sample(tokens, rng);
    Tensor w = sampleWeights(out_features, channels, rng);
    auto activation = quantizer.quantize(x);
    auto weight = quantizer.quantizeWeight(w);
    return {std::move(quantizer), std::move(activation),
            std::move(weight), std::move(x), std::move(w)};
}

void
expectStatsEqual(const W4AxGemmStats &a, const W4AxGemmStats &b)
{
    EXPECT_EQ(a.int4_tiles, b.int4_tiles);
    EXPECT_EQ(a.int8_tiles, b.int8_tiles);
    EXPECT_EQ(a.int4_mac_ops, b.int4_mac_ops);
    EXPECT_EQ(a.int8_mac_ops, b.int8_mac_ops);
    EXPECT_EQ(a.conversion_instructions, b.conversion_instructions);
}

TEST(RuntimeEquivalence, W4AxGemmSequentialVsPooled)
{
    ThreadPool::setGlobalThreads(kWidePool);
    W4AxFixture s = makeFixture(8, 48, 128, 32, 11);
    W4AxGemmConfig sequential;
    sequential.tile_m = 4;
    sequential.tile_n = 8;
    sequential.tile_k = 32;
    sequential.threads = 1;
    W4AxGemmConfig pooled = sequential;
    pooled.threads = 0; // every pool slot

    W4AxGemmStats seq_stats, pool_stats;
    const Tensor seq_out =
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), sequential)
            .run(s.activation, &seq_stats);
    const Tensor pool_out =
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), pooled)
            .run(s.activation, &pool_stats);
    expectBitEqual(seq_out, pool_out, "W4Ax GEMM output");
    expectStatsEqual(seq_stats, pool_stats);
}

TEST(RuntimeEquivalence, W4AxGemmOneVsManyPoolSlots)
{
    W4AxFixture s = makeFixture(16, 40, 64, 32, 12);
    auto [narrow, wide] = underBothPoolSizes([&] {
        W4AxGemmConfig config;
        config.tile_m = 8;
        config.tile_n = 16;
        config.tile_k = 32;
        config.threads = 0;
        W4AxGemmStats stats;
        Tensor out =
            W4AxGemm(s.weight, s.quantizer.blockPrecisions(), config)
                .run(s.activation, &stats);
        return std::make_pair(std::move(out), stats);
    });
    expectBitEqual(narrow.first, wide.first, "W4Ax GEMM output");
    expectStatsEqual(narrow.second, wide.second);
}

/** The satellite regression: n_dim % tile_n != 0 under multi-thread
 * partitioning. 40 output features over 16-wide tiles leaves an
 * 8-column ragged strip; every partition boundary must clamp to
 * n_dim on both ends. */
TEST(RuntimeEquivalence, W4AxGemmRaggedEdgeMultiThread)
{
    ThreadPool::setGlobalThreads(kWidePool);
    W4AxFixture s = makeFixture(5, 40, 64, 32, 13);
    ASSERT_NE(40 % 16, 0);
    W4AxGemmConfig config;
    config.tile_m = 4;
    config.tile_n = 16;
    config.tile_k = 32;
    config.threads = kWidePool;
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    const Tensor out = gemm.run(s.activation);
    const Tensor reference = gemmW4AxReference(s.activation, s.weight);
    EXPECT_LT(relativeError(reference, out), 1e-5);

    W4AxGemmConfig sequential = config;
    sequential.threads = 1;
    const Tensor seq_out =
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), sequential)
            .run(s.activation);
    expectBitEqual(seq_out, out, "ragged-edge W4Ax GEMM output");
}

TEST(RuntimeEquivalence, ReferenceGemms)
{
    Rng rng(21);
    Tensor x(13, 48), w(29, 48);
    for (int64_t r = 0; r < x.rows(); ++r)
        for (int64_t c = 0; c < x.cols(); ++c)
            x.at(r, c) = static_cast<float>(rng.gaussian());
    for (int64_t r = 0; r < w.rows(); ++r)
        for (int64_t c = 0; c < w.cols(); ++c)
            w.at(r, c) = static_cast<float>(rng.gaussian());

    auto [narrow, wide] =
        underBothPoolSizes([&] { return gemmFloat(x, w); });
    expectBitEqual(narrow, wide, "gemmFloat");

    W4AxFixture s = makeFixture(7, 24, 64, 32, 22);
    auto [ref_narrow, ref_wide] = underBothPoolSizes(
        [&] { return gemmW4AxReference(s.activation, s.weight); });
    expectBitEqual(ref_narrow, ref_wide, "gemmW4AxReference");
}

struct AttentionFixture {
    AttentionConfig config;
    std::vector<float> q;
    Tensor k;
    Tensor v;
};

AttentionFixture
makeAttention(int64_t tokens, uint64_t seed)
{
    AttentionConfig config;
    config.num_heads = 8;
    config.num_kv_heads = 4;
    config.head_dim = 16;
    config.chunk_tokens = 16;
    Rng rng(seed);
    std::vector<float> q(static_cast<size_t>(config.qDim()));
    for (float &value : q)
        value = static_cast<float>(rng.gaussian());
    Tensor k(tokens, config.kvDim()), v(tokens, config.kvDim());
    for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t c = 0; c < config.kvDim(); ++c) {
            k.at(t, c) = static_cast<float>(rng.gaussian());
            v.at(t, c) = static_cast<float>(rng.gaussian());
        }
    }
    return {config, std::move(q), std::move(k), std::move(v)};
}

TEST(RuntimeEquivalence, DecodeAttentionPaths)
{
    const AttentionFixture f = makeAttention(70, 31);

    auto [ref_narrow, ref_wide] = underBothPoolSizes([&] {
        return decodeAttentionReference(f.config, f.q, f.k, f.v);
    });
    expectBitEqual(ref_narrow, ref_wide, "decodeAttentionReference");

    auto [on_narrow, on_wide] = underBothPoolSizes([&] {
        return decodeAttentionOnline(f.config, f.q, f.k, f.v);
    });
    expectBitEqual(on_narrow, on_wide, "decodeAttentionOnline");

    const KvCacheQuantizer quantizer(KvQuantConfig{4, 32, true});
    const QuantizedKv qk = quantizer.quantize(f.k);
    const QuantizedKv qv = quantizer.quantize(f.v);
    auto [q_narrow, q_wide] = underBothPoolSizes([&] {
        return decodeAttentionQuantized(f.config, f.q, qk, qv,
                                        quantizer);
    });
    expectBitEqual(q_narrow, q_wide, "decodeAttentionQuantized");
}

TEST(RuntimeEquivalence, DecodeAttentionStorePath)
{
    // Long enough that the fused store path fans its kv heads out.
    const AttentionFixture f = makeAttention(4100, 44);
    ASSERT_GE(2 * f.k.rows() * f.config.qDim(), kMinPoolMacs);
    const KvQuantConfig kv_config{4, 32, true};
    KvStore k(f.config.kvDim(), kv_config), v(f.config.kvDim(), kv_config);
    for (int64_t t = 0; t < f.k.rows(); ++t) {
        k.append(f.k.data() + t * f.config.kvDim());
        v.append(f.v.data() + t * f.config.kvDim());
    }
    auto [narrow, wide] = underBothPoolSizes(
        [&] { return decodeAttentionQuantized(f.config, f.q, k, v); });
    expectBitEqual(narrow, wide, "store decodeAttentionQuantized");
}

TEST(RuntimeEquivalence, DecodeAttentionBatch)
{
    // Ragged batch: per-sequence cache lengths differ.
    const AttentionFixture a = makeAttention(33, 41);
    const AttentionFixture b = makeAttention(70, 42);
    const AttentionFixture c = makeAttention(5, 43);
    const std::vector<DecodeBatchItem> batch{
        {&a.q, &a.k, &a.v}, {&b.q, &b.k, &b.v}, {&c.q, &c.k, &c.v}};

    auto [narrow, wide] = underBothPoolSizes([&] {
        return decodeAttentionOnlineBatch(a.config, batch);
    });
    ASSERT_EQ(narrow.size(), batch.size());
    ASSERT_EQ(wide.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        expectBitEqual(narrow[i], wide[i], "batched attention");

    // Batched output == one-at-a-time output.
    const std::vector<const AttentionFixture *> fixtures{&a, &b, &c};
    for (size_t i = 0; i < fixtures.size(); ++i) {
        const auto single = decodeAttentionOnline(
            a.config, *batch[i].q, *batch[i].k, *batch[i].v);
        expectBitEqual(single, wide[i], "batch vs single attention");
    }
}

TEST(RuntimeEquivalence, FmpqQuantizationSweeps)
{
    Rng rng(51);
    SyntheticActivationConfig act_config;
    act_config.channels = 128;
    act_config.outlier_fraction = 0.05;
    act_config.seed = 52;
    const SyntheticActivationModel model(act_config);
    FmpqConfig fmpq_config;
    fmpq_config.block_size = 32;
    const auto quantizer = FmpqActivationQuantizer::calibrate(
        model.sample(64, rng), fmpq_config);
    const Tensor x = model.sample(17, rng);
    const Tensor w = sampleWeights(23, 128, rng);

    auto [fq_narrow, fq_wide] = underBothPoolSizes(
        [&] { return quantizer.fakeQuantize(x); });
    expectBitEqual(fq_narrow, fq_wide, "fakeQuantize");

    auto [qa_narrow, qa_wide] =
        underBothPoolSizes([&] { return quantizer.quantize(x); });
    expectBitEqual(qa_narrow.scales, qa_wide.scales,
                   "activation scales");
    for (int64_t t = 0; t < qa_narrow.tokens; ++t) {
        for (int64_t c = 0; c < qa_narrow.channels; ++c) {
            ASSERT_EQ(qa_narrow.int4_data.get(t, c),
                      qa_wide.int4_data.get(t, c));
            ASSERT_EQ(qa_narrow.int8_data.get(t, c),
                      qa_wide.int8_data.get(t, c));
        }
    }

    auto [qw_narrow, qw_wide] = underBothPoolSizes(
        [&] { return quantizer.quantizeWeight(w); });
    expectBitEqual(qw_narrow.scales, qw_wide.scales,
                   "weight scales");
    for (int64_t n = 0; n < qw_narrow.out_features; ++n)
        for (int64_t c = 0; c < qw_narrow.in_channels; ++c)
            ASSERT_EQ(qw_narrow.data.get(n, c),
                      qw_wide.data.get(n, c));
}

TEST(RuntimeEquivalence, QuantizedDecoderEndToEnd)
{
    TinyTransformerConfig model_config;
    model_config.vocab_size = 64;
    model_config.hidden_size = 64;
    model_config.num_heads = 4;
    model_config.num_kv_heads = 2;
    model_config.num_layers = 2;
    model_config.intermediate_size = 128;
    model_config.outlier_fraction = 0.05;
    model_config.outlier_scale = 15.0;
    model_config.seed = 61;
    const auto teacher = TinyTransformer::random(model_config);
    Rng rng(62);
    const Dataset calib = sampleDataset(teacher, 3, 24, rng);
    const auto calibration =
        CalibrationData::collect(teacher, calib);
    const std::vector<int32_t> prompt{3, 17, 42, 8, 25, 60, 1};

    // Rebuilds the decoder under each pool size: covers the parallel
    // site-calibration sweep, the pooled weight quantization, the
    // packed GEMMs (M = prompt length, then M = 1), per-kv-head
    // attention over the KV store, and the LM head. Every decode
    // step's logits are compared, not only the prefill's.
    auto [narrow, wide] = underBothPoolSizes([&] {
        QuantizedDecoder decoder(teacher, calibration);
        std::vector<float> logits = decoder.prefill(prompt);
        for (int32_t i = 0; i < 100; ++i) {
            const std::vector<float> step = decoder.step((i * 37) % 64);
            logits.insert(logits.end(), step.begin(), step.end());
        }
        return logits;
    });
    expectBitEqual(narrow, wide, "decoder prefill and decode logits");
}

TEST(RuntimeEquivalence, ServingEnginePerRequestFanOut)
{
    auto measure = [] {
        EngineConfig config;
        config.model = LlmConfig::byName("LLaMA-2-13B");
        config.input_tokens = 512;
        config.output_tokens = 128;
        config.max_batch = 64;
        return ServingEngine(config).measureThroughputAtBatch(48);
    };
    auto [narrow, wide] = underBothPoolSizes(measure);
    EXPECT_EQ(narrow.tokens_per_second, wide.tokens_per_second);
    EXPECT_EQ(narrow.decode_step_us, wide.decode_step_us);
    EXPECT_EQ(narrow.prefill_us, wide.prefill_us);
    EXPECT_EQ(narrow.mean_batch, wide.mean_batch);
    EXPECT_EQ(narrow.peak_batch, wide.peak_batch);
    EXPECT_EQ(narrow.preemptions, wide.preemptions);
    EXPECT_EQ(narrow.mean_kv_utilization, wide.mean_kv_utilization);
}

} // namespace
} // namespace comet
