/**
 * @file
 * Unit tests for the SmoothQuant baseline's smoothing factors, applied
 * to one linear layer the way the Table 1/2 harness applies them per
 * activation site.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "comet/common/rng.h"
#include "comet/kernel/gemm_ref.h"
#include "comet/model/synthetic.h"
#include "comet/quant/outlier.h"
#include "comet/quant/quantizer.h"
#include "comet/quant/smooth_quant.h"

namespace comet {
namespace {

struct LayerFixture {
    Tensor acts;
    Tensor weight;
};

LayerFixture
makeLayer(uint64_t seed)
{
    Rng rng(seed);
    SyntheticActivationConfig config;
    config.channels = 64;
    config.outlier_fraction = 0.05;
    config.outlier_scale = 30.0;
    config.seed = seed;
    const SyntheticActivationModel model(config);
    return {model.sample(64, rng), sampleWeights(16, 64, rng)};
}

std::vector<float>
layerFactors(const LayerFixture &f, float alpha = 0.5f)
{
    return smoothQuantFactors(f.acts, {&f.weight}, alpha);
}

/** W8A8 SmoothQuant output of the layer: X / s and W * s, each
 * fake-quantized per row to INT8, multiplied. */
Tensor
smoothQuantW8A8Output(const LayerFixture &f,
                      const std::vector<float> &factors)
{
    Tensor smoothed_acts(f.acts.rows(), f.acts.cols());
    for (int64_t t = 0; t < f.acts.rows(); ++t) {
        for (int64_t c = 0; c < f.acts.cols(); ++c) {
            smoothed_acts.at(t, c) =
                f.acts.at(t, c) / factors[static_cast<size_t>(c)];
        }
    }
    Tensor smoothed_weight(f.weight.rows(), f.weight.cols());
    for (int64_t n = 0; n < f.weight.rows(); ++n) {
        for (int64_t c = 0; c < f.weight.cols(); ++c) {
            smoothed_weight.at(n, c) =
                f.weight.at(n, c) * factors[static_cast<size_t>(c)];
        }
    }
    return gemmFloat(fakeQuantPerRow(smoothed_acts, 8),
                     fakeQuantPerRow(smoothed_weight, 8));
}

TEST(SmoothQuant, FactorsArePositive)
{
    const LayerFixture f = makeLayer(1);
    for (float s : layerFactors(f))
        EXPECT_GT(s, 0.0f);
}

TEST(SmoothQuant, OutlierChannelsGetLargerFactors)
{
    const LayerFixture f = makeLayer(2);
    const std::vector<float> factors = layerFactors(f);
    const ChannelStats stats = computeChannelStats(f.acts);
    const OutlierReport report = detectOutliers(stats);
    ASSERT_FALSE(report.outlier_channels.empty());

    double outlier_mean = 0.0, normal_mean = 0.0;
    int64_t normals = 0;
    for (int64_t c = 0; c < 64; ++c) {
        if (report.is_outlier[static_cast<size_t>(c)]) {
            outlier_mean += factors[static_cast<size_t>(c)];
        } else {
            normal_mean += factors[static_cast<size_t>(c)];
            ++normals;
        }
    }
    outlier_mean /= static_cast<double>(
        report.outlier_channels.size());
    normal_mean /= static_cast<double>(normals);
    EXPECT_GT(outlier_mean, 3.0 * normal_mean);
}

TEST(SmoothQuant, SmoothedActivationsHaveFlatterRange)
{
    const LayerFixture f = makeLayer(3);
    const std::vector<float> factors = layerFactors(f);
    // The smoothing division alone, without quantization.
    Tensor smoothed(f.acts.rows(), f.acts.cols());
    for (int64_t t = 0; t < f.acts.rows(); ++t) {
        for (int64_t c = 0; c < f.acts.cols(); ++c) {
            smoothed.at(t, c) =
                f.acts.at(t, c) / factors[static_cast<size_t>(c)];
        }
    }
    const ChannelStats before = computeChannelStats(f.acts);
    const ChannelStats after = computeChannelStats(smoothed);
    auto spread = [](const ChannelStats &stats) {
        float max_v = 0.0f;
        for (float v : stats.abs_max)
            max_v = std::max(max_v, v);
        return max_v / std::max(stats.median_abs_max, 1e-6f);
    };
    EXPECT_LT(spread(after), spread(before) / 3.0);
}

TEST(SmoothQuant, EndToEndGemmErrorBeatsNaiveW8A8)
{
    const LayerFixture f = makeLayer(4);
    const Tensor reference = gemmFloat(f.acts, f.weight);

    // SmoothQuant W8A8.
    const Tensor sq_out = smoothQuantW8A8Output(f, layerFactors(f));

    // Naive W8A8 (per-token act, per-channel weight, no smoothing).
    const Tensor naive_out = gemmFloat(fakeQuantPerRow(f.acts, 8),
                                       fakeQuantPerRow(f.weight, 8));

    EXPECT_LT(relativeError(reference, sq_out),
              relativeError(reference, naive_out));
    EXPECT_LT(relativeError(reference, sq_out), 0.05);
}

TEST(SmoothQuantDeathTest, MismatchedChannelsRejected)
{
    Tensor acts(4, 32);
    Tensor weight(8, 64);
    EXPECT_DEATH(smoothQuantFactors(acts, {&weight}), "match");
}

/** Sweep over alpha: all migration strengths must stay numerically
 * sane (positive factors, bounded reconstruction error). */
class SmoothQuantAlphaSweep
    : public ::testing::TestWithParam<double> {};

TEST_P(SmoothQuantAlphaSweep, StableAcrossAlpha)
{
    const LayerFixture f = makeLayer(5);
    const Tensor reference = gemmFloat(f.acts, f.weight);
    const Tensor out = smoothQuantW8A8Output(
        f, layerFactors(f, static_cast<float>(GetParam())));
    EXPECT_LT(relativeError(reference, out), 0.2);
}

INSTANTIATE_TEST_SUITE_P(Alphas, SmoothQuantAlphaSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

} // namespace
} // namespace comet
