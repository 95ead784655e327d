/**
 * @file
 * Unit tests for the FMPQ algorithm — precision assignment, the
 * permutation benefit, quantization error, and the packed path,
 * byte-identical to the element-wise oracle in fmpq_quantize_ref.h.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "comet/common/rng.h"
#include "comet/model/synthetic.h"
#include "comet/quant/fmpq.h"
#include "comet/quant/quantizer.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"
#include "fmpq_quantize_ref.h"

namespace comet {
namespace {

SyntheticActivationModel
outlierModel(int64_t channels, double fraction, uint64_t seed)
{
    SyntheticActivationConfig config;
    config.channels = channels;
    config.outlier_fraction = fraction;
    config.outlier_scale = 40.0;
    config.seed = seed;
    return SyntheticActivationModel(config);
}

TEST(Fmpq, BlocksWithOutliersGetInt8)
{
    Rng rng(1);
    const SyntheticActivationModel model = outlierModel(256, 0.02, 2);
    const Tensor calib = model.sample(128, rng);
    FmpqConfig config;
    config.block_size = 64;
    config.enable_permutation = false;
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, config);

    // Without permutation, a block is INT8 iff it contains a planted
    // outlier channel.
    for (int64_t b = 0; b < quantizer.numBlocks(); ++b) {
        bool has_outlier = false;
        for (int64_t c : model.outlierChannels()) {
            if (c >= b * 64 && c < (b + 1) * 64)
                has_outlier = true;
        }
        EXPECT_EQ(quantizer.blockPrecisions()[static_cast<size_t>(b)],
                  has_outlier ? BlockPrecision::kInt8
                              : BlockPrecision::kInt4)
            << "block " << b;
    }
}

TEST(Fmpq, PermutationRaisesInt4Fraction)
{
    Rng rng(3);
    const SyntheticActivationModel model = outlierModel(512, 0.015, 4);
    const Tensor calib = model.sample(128, rng);

    FmpqConfig no_perm;
    no_perm.block_size = 64;
    no_perm.enable_permutation = false;
    FmpqConfig with_perm = no_perm;
    with_perm.enable_permutation = true;

    const double frac_no_perm =
        FmpqActivationQuantizer::calibrate(calib, no_perm)
            .int4BlockFraction();
    const double frac_with_perm =
        FmpqActivationQuantizer::calibrate(calib, with_perm)
            .int4BlockFraction();
    EXPECT_GT(frac_with_perm, frac_no_perm);
    // ~8 outliers cluster into exactly one 64-channel block.
    EXPECT_NEAR(frac_with_perm, 7.0 / 8.0, 1e-9);
}

TEST(Fmpq, PaperClaimMoreThan84PercentW4A4)
{
    // At LLaMA-like scale (4096 channels, <1% outliers, k=128) the
    // paper reports more than 84% of GEMM compute in W4A4; FMPQ with
    // permutation achieves far more.
    Rng rng(5);
    const SyntheticActivationModel model =
        outlierModel(4096, 0.008, 6);
    const Tensor calib = model.sample(64, rng);
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, FmpqConfig{});
    EXPECT_GT(quantizer.w4a4ComputeFraction(), 0.84);
}

TEST(Fmpq, FakeQuantPreservesOutliersAndNormals)
{
    Rng rng(7);
    const SyntheticActivationModel model = outlierModel(256, 0.02, 8);
    const Tensor calib = model.sample(128, rng);
    FmpqConfig config;
    config.block_size = 64;
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, config);

    const Tensor x = model.sample(16, rng);
    const Tensor q = quantizer.fakeQuantize(x);

    // FMPQ must beat naive per-token INT4 by a wide margin on this
    // distribution.
    const Tensor naive4 = fakeQuantPerRow(x, 4);
    EXPECT_GT(sqnrDb(x, q), sqnrDb(x, naive4) + 6.0);
}

TEST(Fmpq, FakeQuantRespectsBlockPrecision)
{
    Rng rng(9);
    const SyntheticActivationModel model = outlierModel(128, 0.03, 10);
    const Tensor calib = model.sample(64, rng);
    FmpqConfig config;
    config.block_size = 32;
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, config);

    const Tensor x = model.sample(4, rng);
    const Tensor q = quantizer.fakeQuantize(x);

    // Each permuted block may take at most 2^bits distinct values per
    // token.
    const auto &order = quantizer.permutation().order();
    for (int64_t t = 0; t < x.rows(); ++t) {
        for (int64_t b = 0; b < quantizer.numBlocks(); ++b) {
            const int bits =
                quantizer.blockPrecisions()[static_cast<size_t>(b)] ==
                        BlockPrecision::kInt4
                    ? 4
                    : 8;
            std::set<float> distinct;
            for (int64_t i = 0; i < 32; ++i) {
                distinct.insert(q.at(
                    t, order[static_cast<size_t>(b * 32 + i)]));
            }
            EXPECT_LE(static_cast<int>(distinct.size()), 1 << bits);
        }
    }
}

TEST(Fmpq, PackedQuantizeMatchesFakeQuantize)
{
    Rng rng(11);
    const SyntheticActivationModel model = outlierModel(128, 0.02, 12);
    const Tensor calib = model.sample(64, rng);
    FmpqConfig config;
    config.block_size = 32;
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, config);

    const Tensor x = model.sample(8, rng);
    const MixedQuantizedActivation packed = quantizer.quantize(x);
    const Tensor deq = dequantize(packed);
    // dequantize() returns permuted order; fakeQuantize original
    // order. Compare through the permutation.
    const Tensor fake = quantizer.fakeQuantize(x);
    const Tensor fake_permuted =
        quantizer.permutation().applyToColumns(fake);
    EXPECT_LT(maxAbsError(deq, fake_permuted), 1e-5);
}

TEST(Fmpq, QuantizeWeightRoundTrip)
{
    Rng rng(13);
    const SyntheticActivationModel model = outlierModel(128, 0.02, 14);
    const Tensor calib = model.sample(64, rng);
    FmpqConfig config;
    config.block_size = 32;
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, config);

    const Tensor w = sampleWeights(16, 128, rng);
    const BlockQuantizedWeight qw = quantizer.quantizeWeight(w);
    const Tensor deq = dequantize(qw);
    const Tensor w_permuted =
        quantizer.permutation().applyToColumns(w);
    // INT4 per-block quantization error bounded by half a step.
    for (int64_t n = 0; n < w.rows(); ++n) {
        for (int64_t b = 0; b < quantizer.numBlocks(); ++b) {
            const float scale = qw.scales.at(n, b);
            for (int64_t i = 0; i < 32; ++i) {
                EXPECT_LE(std::fabs(deq.at(n, b * 32 + i) -
                                    w_permuted.at(n, b * 32 + i)),
                          scale / 2.0f + 1e-6f);
            }
        }
    }
}

TEST(FmpqDeathTest, BlockSizeMustDivideChannels)
{
    Tensor calib(8, 100);
    FmpqConfig config;
    config.block_size = 64;
    EXPECT_DEATH(FmpqActivationQuantizer::calibrate(calib, config),
                 "divide");
}

TEST(Fmpq, BlockPrecisionNames)
{
    EXPECT_STREQ(blockPrecisionName(BlockPrecision::kInt4), "INT4");
    EXPECT_STREQ(blockPrecisionName(BlockPrecision::kInt8), "INT8");
}

/** Property sweep over block sizes: the INT4 fraction is monotone in
 * the ability of smaller blocks to isolate outliers. */
class FmpqBlockSizeSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(FmpqBlockSizeSweep, Int4FractionReasonable)
{
    const int64_t block_size = GetParam();
    Rng rng(17);
    const SyntheticActivationModel model =
        outlierModel(1024, 0.01, 18);
    const Tensor calib = model.sample(64, rng);
    FmpqConfig config;
    config.block_size = block_size;
    const auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, config);
    // ~10 outliers cluster into ceil(10 / block_size) leading blocks.
    const auto outliers = static_cast<int64_t>(
        model.outlierChannels().size());
    const int64_t expected_int8_blocks =
        (outliers + block_size - 1) / block_size;
    const int64_t blocks = 1024 / block_size;
    EXPECT_NEAR(quantizer.int4BlockFraction(),
                1.0 - static_cast<double>(expected_int8_blocks) /
                          static_cast<double>(blocks),
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FmpqBlockSizeSweep,
                         ::testing::Values(32, 64, 128, 256));

/** Runs every test body under one supported SIMD mode and restores
 * the active mode and the global pool size afterwards. */
class FmpqQuantizeDifferential : public ::testing::TestWithParam<simd::Mode>
{
  protected:
    void
    SetUp() override
    {
        saved_mode_ = simd::activeMode();
        saved_threads_ = ThreadPool::global().threadCount();
        simd::setMode(GetParam());
    }

    void
    TearDown() override
    {
        simd::setMode(saved_mode_);
        ThreadPool::setGlobalThreads(saved_threads_);
    }

  private:
    simd::Mode saved_mode_ = simd::Mode::kScalar;
    int saved_threads_ = 1;
};

INSTANTIATE_TEST_SUITE_P(
    AllSupportedModes, FmpqQuantizeDifferential,
    ::testing::ValuesIn(simd::supportedModes()),
    [](const ::testing::TestParamInfo<simd::Mode> &info) {
        return simd::modeName(info.param);
    });

/** A quantizer over @p channels channels with a random permutation
 * and the precision map @p map: "int4", "int8" or "mixed". */
FmpqActivationQuantizer
differentialQuantizer(int64_t channels, int64_t block,
                      const std::string &map, Rng &rng)
{
    std::vector<int64_t> order(static_cast<size_t>(channels));
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int64_t>(i);
    rng.shuffle(order);
    std::vector<BlockPrecision> precisions;
    for (int64_t b = 0; b < channels / block; ++b) {
        const bool int8 =
            map == "int8" || (map == "mixed" && rng.uniformInt(3) == 0);
        precisions.push_back(int8 ? BlockPrecision::kInt8
                                  : BlockPrecision::kInt4);
    }
    if (map == "mixed") {
        // Both precisions present whatever the draw.
        precisions.front() = BlockPrecision::kInt4;
        precisions.back() = BlockPrecision::kInt8;
    }
    FmpqConfig config;
    config.block_size = block;
    return FmpqActivationQuantizer::fromParts(
        config, ChannelPermutation(std::move(order)),
        std::move(precisions));
}

/**
 * Activations whose permuted blocks cycle through four patterns:
 * gaussian values; all zeros (scale 1); values at +-qmax and on the
 * round-half boundary (x.5) of a block whose absmax is qmax, so its
 * scale is exactly 1; and +-absmax with the half-step points
 * absmax * (j + 0.5) / qmax of a random absmax.
 */
Tensor
differentialActivations(const FmpqActivationQuantizer &quantizer,
                        int64_t tokens, Rng &rng)
{
    const int64_t k = quantizer.config().block_size;
    const auto &order = quantizer.permutation().order();
    Tensor x(tokens, quantizer.channels());
    for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t b = 0; b < quantizer.numBlocks(); ++b) {
            const bool int4 =
                quantizer.blockPrecisions()[static_cast<size_t>(b)] ==
                BlockPrecision::kInt4;
            const auto qmax = static_cast<float>(signedRange(
                int4 ? quantizer.config().low_bits
                     : quantizer.config().high_bits).qmax);
            const auto abs_max = static_cast<float>(
                std::fabs(rng.gaussian(0, 5)) + 0.01);
            for (int64_t i = 0; i < k; ++i) {
                const float sign = i % 2 == 0 ? 1.0f : -1.0f;
                const auto step = static_cast<float>(
                    rng.uniformInt(static_cast<uint64_t>(qmax)));
                float v = 0.0f;
                switch ((t + b) % 4) {
                case 0:
                    v = static_cast<float>(rng.gaussian(0, 3));
                    break;
                case 1:
                    break;
                case 2:
                    v = sign * (i < 2 ? qmax : step + 0.5f);
                    break;
                default:
                    v = sign * (i < 2 ? abs_max
                                      : abs_max * (step + 0.5f) / qmax);
                    break;
                }
                x.at(t, order[static_cast<size_t>(b * k + i)]) = v;
            }
        }
    }
    return x;
}

/** The two quantizations hold the same bytes: packed INT4 data, INT8
 * data, scales and precision map. */
void
expectSameBytes(const MixedQuantizedActivation &want,
                const MixedQuantizedActivation &got, const std::string &what)
{
    ASSERT_EQ(want.tokens, got.tokens) << what;
    ASSERT_EQ(want.channels, got.channels) << what;
    ASSERT_EQ(want.block_size, got.block_size) << what;
    EXPECT_EQ(want.precisions, got.precisions) << what;
    EXPECT_EQ(std::memcmp(want.int4_data.rowPtr(0), got.int4_data.rowPtr(0),
                          static_cast<size_t>(want.tokens *
                                              want.int4_data.rowBytes())),
              0)
        << what << ": INT4 data";
    EXPECT_EQ(std::memcmp(want.int8_data.data(), got.int8_data.data(),
                          static_cast<size_t>(want.tokens * want.channels)),
              0)
        << what << ": INT8 data";
    EXPECT_EQ(std::memcmp(want.scales.data(), got.scales.data(),
                          static_cast<size_t>(want.scales.numel()) *
                              sizeof(float)),
              0)
        << what << ": scales";
}

TEST_P(FmpqQuantizeDifferential, MatchesElementwiseOracle)
{
    Rng rng(61);
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (const int64_t block : {8, 16, 32}) {
            for (const char *map : {"int4", "int8", "mixed"}) {
                const FmpqActivationQuantizer quantizer =
                    differentialQuantizer(96, block, map, rng);
                for (const int64_t tokens : {1, 2, 17, 128}) {
                    const Tensor x =
                        differentialActivations(quantizer, tokens, rng);
                    expectSameBytes(
                        fmpqQuantizeReference(quantizer, x),
                        quantizer.quantize(x),
                        "threads " + std::to_string(threads) + " block " +
                            std::to_string(block) + " " + map +
                            " tokens " + std::to_string(tokens));
                }
            }
        }
    }
}

TEST_P(FmpqQuantizeDifferential, PooledSizeMatchesElementwiseOracle)
{
    // tokens x channels reaches kMinPoolMacs, so with 4 slots the rows
    // fan out across the pool.
    constexpr int64_t kTokens = 128;
    constexpr int64_t kChannels = 8192;
    ASSERT_GE(kTokens * kChannels, kMinPoolMacs);
    Rng rng(62);
    const FmpqActivationQuantizer quantizer =
        differentialQuantizer(kChannels, 32, "mixed", rng);
    const Tensor x = differentialActivations(quantizer, kTokens, rng);
    const MixedQuantizedActivation want = fmpqQuantizeReference(quantizer, x);
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        expectSameBytes(want, quantizer.quantize(x),
                        "threads " + std::to_string(threads));
    }
}

} // namespace
} // namespace comet
