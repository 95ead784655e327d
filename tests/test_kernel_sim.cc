/**
 * @file
 * Unit tests for the W4Ax ablation variant sets (Figures 13 and 14)
 * costed through the GEMM cost model.
 */
#include <gtest/gtest.h>

#include "comet/gpusim/cost_model.h"

namespace comet {
namespace {

/** Latency of one W4Ax variant on @p shape, microseconds. */
double
variantLatencyUs(const GemmShape &shape, const W4AxVariant &variant)
{
    const GemmCostModel model(GpuSpec::a100Sxm480G());
    return model.estimate(shape, GemmKernelKind::kCometW4Ax,
                          variant.features)
        .total_us;
}

TEST(KernelSim, Figure13VariantsCoverEachFeature)
{
    const auto variants = figure13Variants();
    ASSERT_EQ(variants.size(), 4u);
    EXPECT_TRUE(variants[0].features.software_pipeline);
    EXPECT_FALSE(variants[1].features.software_pipeline);
    EXPECT_FALSE(variants[2].features.weight_interleaving);
    EXPECT_FALSE(variants[3].features.fast_conversion);
}

TEST(KernelSim, Figure14VariantsFollowTheLadder)
{
    const auto variants = figure14Variants();
    ASSERT_EQ(variants.size(), 4u);
    EXPECT_EQ(variants[0].features.scheduling,
              SchedulingStrategy::kNaiveSync);
    EXPECT_EQ(variants[1].features.scheduling,
              SchedulingStrategy::kBarrierMinimized);
    EXPECT_EQ(variants[2].features.scheduling,
              SchedulingStrategy::kTileRemapping);
    EXPECT_EQ(variants[3].features.scheduling,
              SchedulingStrategy::kTaskStealing);
}

TEST(KernelSim, FullVariantIsFastestOfFigure13)
{
    const GemmShape shape{64, 8192, 8192};
    const auto variants = figure13Variants();
    const double full = variantLatencyUs(shape, variants[0]);
    for (size_t i = 1; i < variants.size(); ++i) {
        EXPECT_GT(variantLatencyUs(shape, variants[i]), full)
            << variants[i].name;
    }
}

TEST(KernelSim, Figure14LadderImprovesMonotonically)
{
    const GemmShape shape{256, 8192, 8192};
    const auto variants = figure14Variants();
    double previous = 1e30;
    for (const auto &variant : variants) {
        const double t = variantLatencyUs(shape, variant);
        EXPECT_LE(t, previous + 1e-9) << variant.name;
        previous = t;
    }
}

} // namespace
} // namespace comet
