/**
 * @file
 * Pinned digests of the accuracy harness (Tables 1 and 2).
 *
 * Every token sequence sampleDataset draws for the Table 1 models,
 * every zero-shot example (context, candidates, label) of the Table 2
 * suites, the calibration activations, and every Table 1 perplexity
 * and Table 2 accuracy, as 64-bit FNV-1a digests or as the raw bits
 * of the doubles. The model configurations and seeds are those of
 * bench_tab1_perplexity, bench_tab2_zeroshot, test_zeroshot and the
 * real-decode model of bench_real_decode. A change to the float
 * forward, the sampler, calibration or scoring that moves any bit of
 * the harness's output fails here. The real-decode model's packed
 * W4A4KV4 logits are pinned too, under every SIMD mode and pool size.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "comet/model/perplexity.h"
#include "comet/model/quantized_decoder.h"
#include "comet/model/zeroshot.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"

namespace comet {
namespace {

/** FNV-1a, 64-bit, fed in pieces. */
struct Fnv {
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        const uint64_t n = v.size();
        bytes(&n, sizeof n);
        bytes(v.data(), v.size() * sizeof(T));
    }
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

uint64_t
datasetDigest(const Dataset &dataset)
{
    Fnv f;
    for (const auto &sequence : dataset.sequences)
        f.vec(sequence);
    return f.h;
}

/** Digest of every site's activation bits, layers then sites. */
uint64_t
calibrationDigest(const CalibrationData &calibration, int64_t layers)
{
    Fnv f;
    for (int64_t l = 0; l < layers; ++l) {
        for (int s = 0; s < kNumActSites; ++s) {
            const Tensor &t =
                calibration.activations(l, static_cast<ActSite>(s));
            const int64_t shape[] = {t.rows(), t.cols()};
            f.bytes(shape, sizeof shape);
            f.bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
        }
    }
    return f.h;
}

uint64_t
suiteDigest(const std::vector<ZeroshotTask> &suite)
{
    Fnv f;
    for (const ZeroshotTask &task : suite) {
        f.bytes(task.name.data(), task.name.size());
        for (const ZeroshotExample &example : task.examples) {
            f.vec(example.context);
            f.vec(example.candidates);
            f.bytes(&example.label, sizeof example.label);
        }
    }
    return f.h;
}

/** Table 1's nine rows plus QuaRot-lite. */
std::vector<QuantScheme>
everyScheme()
{
    std::vector<QuantScheme> schemes = table1Schemes();
    schemes.push_back(QuantScheme::kQuarotW4A4);
    return schemes;
}

/** The bench_tab1_perplexity / bench_tab2_zeroshot architecture. */
TinyTransformerConfig
harnessConfig(uint64_t seed, double outlier_scale, bool gated = true)
{
    TinyTransformerConfig config;
    config.vocab_size = 96;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 4;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.outlier_fraction = 0.06;
    config.outlier_scale = outlier_scale;
    config.gated_mlp = gated;
    config.seed = seed;
    return config;
}

/** Compares @p got with @p want as hex, naming @p what. */
void
expectPin(const std::string &what, uint64_t got, uint64_t want)
{
    EXPECT_EQ(hex(got), hex(want)) << what;
}

struct Tab1Pin {
    const char *name;
    TinyTransformerConfig config;
    uint64_t dataset;     ///< eval then calibration sequences
    uint64_t calibration; ///< activation bits
    uint64_t ppl[10];     ///< bits, everyScheme() order
};

class Tab1Pins : public ::testing::TestWithParam<int>
{
};

const Tab1Pin kTab1Pins[] = {
    {"LLaMA-1-13B-t",
     harnessConfig(101, 18.0),
     0x5e6ad0a057b33b49,
     0xe120a2d7f9595e6f,
     {0x4004cecf69e8c9a2, 0x40057dcb8aa6868d,
      0x4014d13f83552b4e, 0x4016463d9de27c53,
      0x40118a7067b245ab, 0x40151a422a8f54fc,
      0x4050b7fe5803d875, 0x401f6fec76c57309,
      0x401e34c6ba07adad, 0x402e0fe052a3ae7a}},
    {"LLaMA-2-7B-t",
     harnessConfig(102, 16.0),
     0x4d8b0d984f1a1471,
     0x81a4edc93f48ff34,
     {0x40113bed96fefb72, 0x40144a6ebc07a681,
      0x4036618c02b10b15, 0x402aba98b1016560,
      0x402380f936ce1f25, 0x402f9db0f81f8531,
      0x4069c1d0bb9ff66e, 0x40310fff9fd71390,
      0x40330830d8f32f93, 0x404883235bcb3538}},
    {"LLaMA-3-8B-t",
     harnessConfig(103, 20.0),
     0x84326e94855346aa,
     0x3ba128d56da40a6a,
     {0x400de6c764c55c5f, 0x400fee7ec0826fa4,
      0x402e3ab6f14c55e4, 0x402c78743df4c5a7,
      0x402f7697e1134944, 0x402f22de1b114d42,
      0x40621bfd665bb564, 0x40419947ee694b1e,
      0x4037f8153d3bb900, 0x4054ce707f631059}},
    {"OPT-13B-t",
     harnessConfig(104, 26.0, false),
     0xb78d1a5a857ab1fc,
     0x4e89455590ae2653,
     {0x4012700fe2eec3e2, 0x40141d22e97b5e5f,
      0x402f20aae6ca771f, 0x40230c88518f2f76,
      0x40248de472ef555e, 0x402629208c437da1,
      0x404ac3843e9bc00b, 0x402cb2403a549c96,
      0x402f9cd0a05aa0a5, 0x40356688b37b0451}},
};

TEST_P(Tab1Pins, DatasetsCalibrationAndPerplexities)
{
    const Tab1Pin &pin = kTab1Pins[GetParam()];
    SCOPED_TRACE(pin.name);
    const auto teacher = TinyTransformer::random(pin.config);
    Rng rng(41);
    Dataset all = sampleDataset(teacher, 4, 28, rng);
    const Dataset eval = all;
    const Dataset calib = sampleDataset(teacher, 3, 28, rng);
    all.sequences.insert(all.sequences.end(), calib.sequences.begin(),
                         calib.sequences.end());
    expectPin("dataset", datasetDigest(all), pin.dataset);
    const CalibrationData calibration =
        CalibrationData::collect(teacher, calib);
    expectPin("calibration",
              calibrationDigest(calibration, pin.config.num_layers),
              pin.calibration);
    const std::vector<QuantScheme> schemes = everyScheme();
    for (size_t s = 0; s < schemes.size(); ++s) {
        const QuantizedModel quantized =
            buildQuantizedModel(teacher, schemes[s], calibration);
        const double ppl =
            evaluatePerplexity(quantized.model, quantized.sim(), eval);
        expectPin(std::string("ppl ") + quantSchemeName(schemes[s]) + " " +
                      quantSchemePrecision(schemes[s]),
                  std::bit_cast<uint64_t>(ppl), pin.ppl[s]);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, Tab1Pins, ::testing::Range(0, 4));

struct Tab2Pin {
    const char *label;
    uint64_t seed;
    double outlier_scale;
    uint64_t suite;
    uint64_t calibration;
    uint64_t accuracy[10][5]; ///< bits, [everyScheme()][task]
};

class Tab2Pins : public ::testing::TestWithParam<int>
{
};

const Tab2Pin kTab2Pins[] = {
    {"8B-t",
     301, 18.0,
     0x1cee95d124fee471,
     0xb318e0dd7104b63a,
     {{0x3ff0000000000000, 0x3fedddddddddddde, 0x3fe3333333333333,
        0x3fef777777777777, 0x3fe5555555555555},
      {0x3ff0000000000000, 0x3fedddddddddddde, 0x3fe3333333333333,
        0x3fef777777777777, 0x3fe5ddddddddddde},
      {0x3fef777777777777, 0x3feb333333333333, 0x3fd999999999999a,
        0x3fe999999999999a, 0x3fe4cccccccccccd},
      {0x3fee666666666666, 0x3fedddddddddddde, 0x3fdeeeeeeeeeeeef,
        0x3febbbbbbbbbbbbc, 0x3fe4444444444444},
      {0x3fef777777777777, 0x3feb333333333333, 0x3fdccccccccccccd,
        0x3fe9111111111111, 0x3fe4cccccccccccd},
      {0x3feeeeeeeeeeeeef, 0x3feb333333333333, 0x3fd8888888888889,
        0x3fe9111111111111, 0x3fe199999999999a},
      {0x3fec444444444444, 0x3fe5555555555555, 0x3fd2222222222222,
        0x3fe0888888888889, 0x3fe0000000000000},
      {0x3fed555555555555, 0x3febbbbbbbbbbbbc, 0x3fd5555555555555,
        0x3fe8888888888889, 0x3fe199999999999a},
      {0x3fee666666666666, 0x3feb333333333333, 0x3fd7777777777777,
        0x3fe6666666666666, 0x3fe199999999999a},
      {0x3fec444444444444, 0x3fe5ddddddddddde, 0x3fd4444444444444,
        0x3fe5ddddddddddde, 0x3fe3333333333333}}},
    {"70B-t",
     302, 24.0,
     0x121500e7d95239d7,
     0x7a22efa486c10997,
     {{0x3ff0000000000000, 0x3fef777777777777, 0x3fe0000000000000,
        0x3fee666666666666, 0x3fe199999999999a},
      {0x3ff0000000000000, 0x3ff0000000000000, 0x3fdeeeeeeeeeeeef,
        0x3fee666666666666, 0x3fe1111111111111},
      {0x3feccccccccccccd, 0x3feb333333333333, 0x3fdbbbbbbbbbbbbc,
        0x3feb333333333333, 0x3fe1111111111111},
      {0x3fedddddddddddde, 0x3fed555555555555, 0x3fdaaaaaaaaaaaab,
        0x3fea222222222222, 0x3fe1111111111111},
      {0x3feccccccccccccd, 0x3feccccccccccccd, 0x3fd8888888888889,
        0x3feccccccccccccd, 0x3fe199999999999a},
      {0x3feccccccccccccd, 0x3feaaaaaaaaaaaab, 0x3fdccccccccccccd,
        0x3feb333333333333, 0x3fe2aaaaaaaaaaab},
      {0x3fe8888888888889, 0x3fe7777777777777, 0x3fd8888888888889,
        0x3fe4444444444444, 0x3fdeeeeeeeeeeeef},
      {0x3fee666666666666, 0x3feb333333333333, 0x3fd999999999999a,
        0x3fe8888888888889, 0x3fe2222222222222},
      {0x3fed555555555555, 0x3feb333333333333, 0x3fd8888888888889,
        0x3feb333333333333, 0x3fe1111111111111},
      {0x3feccccccccccccd, 0x3fe999999999999a, 0x3fd6666666666666,
        0x3fe8000000000000, 0x3fe3bbbbbbbbbbbc}}},
};

TEST_P(Tab2Pins, SuiteCalibrationAndAccuracies)
{
    // Parameter 2 * size + half: each test scores half the schemes, so
    // the four run side by side under ctest -j.
    const Tab2Pin &pin = kTab2Pins[GetParam() / 2];
    const size_t first_scheme = GetParam() % 2 == 0 ? 0 : 5;
    SCOPED_TRACE(pin.label);
    const auto teacher =
        TinyTransformer::random(harnessConfig(pin.seed, pin.outlier_scale));
    Rng rng(pin.seed + 7);
    const Dataset calib = sampleDataset(teacher, 3, 24, rng);
    const CalibrationData calibration =
        CalibrationData::collect(teacher, calib);
    expectPin("calibration", calibrationDigest(calibration, 2),
              pin.calibration);
    const std::vector<ZeroshotTask> suite =
        buildZeroshotSuite(teacher, pin.seed);
    expectPin("suite", suiteDigest(suite), pin.suite);
    const std::vector<QuantScheme> schemes = everyScheme();
    for (size_t s = first_scheme; s < first_scheme + 5; ++s) {
        const QuantizedModel quantized =
            buildQuantizedModel(teacher, schemes[s], calibration);
        for (size_t t = 0; t < suite.size(); ++t) {
            const double accuracy = evaluateZeroshotAccuracy(
                quantized.model, quantized.sim(), suite[t]);
            expectPin(std::string("accuracy ") +
                          quantSchemeName(schemes[s]) + " " +
                          quantSchemePrecision(schemes[s]) + " " +
                          suite[t].name,
                      std::bit_cast<uint64_t>(accuracy),
                      pin.accuracy[s][t]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Tab2Pins, ::testing::Range(0, 4));

TEST(AccuracyPins, ZeroshotTeacherSuite)
{
    // test_zeroshot's teacher and its SuiteHasFiveNamedTasks suite.
    TinyTransformerConfig config = harnessConfig(77, 25.0);
    const auto teacher = TinyTransformer::random(config);
    expectPin("suite", suiteDigest(buildZeroshotSuite(teacher, 5)),
              0x7c87701a2a6478fe);
}

/** The real-decode model (bench_real_decode and the repository
 * benchmark). */
TinyTransformerConfig
realDecodeConfig()
{
    TinyTransformerConfig config;
    config.vocab_size = 512;
    config.hidden_size = 128;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 256;
    config.seed = 7;
    return config;
}

TEST(AccuracyPins, RealDecodeCalibration)
{
    // Every packed weight and FMPQ quantizer of the real-decode
    // model's W4A4KV4 decoder derives from these activations.
    const auto teacher = TinyTransformer::random(realDecodeConfig());
    Rng rng(11);
    const Dataset calib = sampleDataset(teacher, 3, 32, rng);
    expectPin("dataset", datasetDigest(calib), 0xa48334a7a60d1264);
    expectPin("calibration",
              calibrationDigest(CalibrationData::collect(teacher, calib), 2),
              0x195d63bce9614b1f);
}

TEST(AccuracyPins, RealDecodeLogits)
{
    // bench_real_decode's decoder and token stream (seed 1): a
    // 128-token prefill, then 256 decode steps. Every logit of the
    // prefill's last row and of each step is digested; SIMD and the
    // pool size must not move a bit.
    const auto teacher = TinyTransformer::random(realDecodeConfig());
    Rng calib_rng(11);
    const CalibrationData calibration = CalibrationData::collect(
        teacher, sampleDataset(teacher, 3, 32, calib_rng));
    const QuantizedDecoder fresh(teacher, calibration,
                                 QuantizedDecoderConfig{});
    constexpr int64_t kPrompt = 128;
    constexpr int64_t kSteps = 256;
    Rng rng(1);
    std::vector<int32_t> stream;
    for (int64_t i = 0; i < kPrompt + kSteps; ++i)
        stream.push_back(static_cast<int32_t>(rng.uniformInt(512)));

    const simd::Mode saved_mode = simd::activeMode();
    const int saved_threads = ThreadPool::global().threadCount();
    for (const simd::Mode mode : simd::supportedModes()) {
        for (const int threads : {1, 4}) {
            simd::setMode(mode);
            ThreadPool::setGlobalThreads(threads);
            QuantizedDecoder decoder = fresh;
            Fnv f;
            f.vec(decoder.prefill(
                {stream.begin(), stream.begin() + kPrompt}));
            for (int64_t t = kPrompt; t < kPrompt + kSteps; ++t)
                f.vec(decoder.step(stream[static_cast<size_t>(t)]));
            expectPin(std::string(simd::modeName(mode)) + " threads " +
                          std::to_string(threads),
                      f.h, 0x5568819d47fa70f4);
        }
    }
    simd::setMode(saved_mode);
    ThreadPool::setGlobalThreads(saved_threads);
}

} // namespace
} // namespace comet
