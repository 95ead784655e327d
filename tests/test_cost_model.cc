/**
 * @file
 * Unit tests for the GEMM cost model — the paper's qualitative
 * performance claims must hold as model properties.
 */
#include <gtest/gtest.h>

#include "comet/gpusim/cost_model.h"
#include "comet/kernel/convert.h"
#include "comet/model/llm_config.h"

namespace comet {
namespace {

class CostModelTest : public ::testing::Test
{
  protected:
    GemmCostModel model_{GpuSpec::a100Sxm480G()};
};

TEST_F(CostModelTest, AllKernelsHavePositiveLatency)
{
    const GemmShape shape{64, 4096, 4096};
    for (GemmKernelKind kind :
         {GemmKernelKind::kCublasW16A16, GemmKernelKind::kTrtLlmW4A16,
          GemmKernelKind::kTrtLlmW8A8, GemmKernelKind::kQserveW4A8,
          GemmKernelKind::kCometW4Ax, GemmKernelKind::kOracleW4A4}) {
        EXPECT_GT(model_.estimate(shape, kind).total_us, 0.0)
            << gemmKernelKindName(kind);
    }
}

TEST_F(CostModelTest, CometBeatsCublasEverywhere)
{
    for (int64_t m : {2, 8, 16, 64, 256}) {
        const GemmShape shape{m, 8192, 8192};
        EXPECT_LT(
            model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                .total_us,
            model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                .total_us)
            << "batch " << m;
    }
}

TEST_F(CostModelTest, CometGainGrowsWithBatch)
{
    const auto speedup = [&](int64_t m) {
        const GemmShape shape{m, 8192, 8192};
        return model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                   .total_us /
               model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                   .total_us;
    };
    EXPECT_GT(speedup(256), speedup(8));
    // Paper headline numbers: ~1.5x small batch, ~2.9x large batch.
    EXPECT_GT(speedup(256), 2.0);
    EXPECT_LT(speedup(4), 3.0);
}

TEST_F(CostModelTest, W4A16GainShrinksWithBatch)
{
    const auto speedup = [&](int64_t m) {
        const GemmShape shape{m, 13824, 5120};
        return model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                   .total_us /
               model_.estimate(shape, GemmKernelKind::kTrtLlmW4A16)
                   .total_us;
    };
    // Weight-only quantization helps memory-bound small batches much
    // more than compute-bound large ones (paper Section 1).
    EXPECT_GT(speedup(2), speedup(256));
}

TEST_F(CostModelTest, W8A8GainGrowsWithBatch)
{
    const auto speedup = [&](int64_t m) {
        const GemmShape shape{m, 13824, 5120};
        return model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                   .total_us /
               model_.estimate(shape, GemmKernelKind::kTrtLlmW8A8)
                   .total_us;
    };
    EXPECT_GT(speedup(256), speedup(2));
}

TEST_F(CostModelTest, OracleW4A4IsFastestButNotTwiceW4A8)
{
    const GemmShape shape{256, 8192, 8192};
    const double oracle =
        model_.estimate(shape, GemmKernelKind::kOracleW4A4).total_us;
    const double comet =
        model_.estimate(shape, GemmKernelKind::kCometW4Ax).total_us;
    const double qserve =
        model_.estimate(shape, GemmKernelKind::kQserveW4A8).total_us;
    EXPECT_LT(oracle, comet);
    EXPECT_LT(comet, qserve);
    // Paper: even an Oracle W4A4 kernel cannot reach 2x over W4A8.
    EXPECT_LT(qserve / oracle, 2.0);
}

TEST_F(CostModelTest, CometWithinOracleEnvelope)
{
    // Paper: COMET-W4Ax reaches 92.7% - 97.8% of the Oracle W4A4
    // kernel. Our model lands in the same neighborhood (the INT8
    // quarter of the tiles is inherently slower); require at least
    // 80% to keep the qualitative claim pinned.
    for (int64_t m : {16, 64, 256}) {
        const GemmShape shape{m, 8192, 8192};
        const double oracle =
            model_.estimate(shape, GemmKernelKind::kOracleW4A4)
                .total_us;
        const double comet =
            model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                .total_us;
        EXPECT_GT(oracle / comet, 0.80) << m;
        EXPECT_LE(oracle / comet, 1.0 + 1e-9) << m;
    }
}

TEST_F(CostModelTest, PipelineAblationSlowsKernel)
{
    const GemmShape shape{64, 8192, 8192};
    CometKernelFeatures no_pipe;
    no_pipe.software_pipeline = false;
    EXPECT_GT(model_
                  .estimate(shape, GemmKernelKind::kCometW4Ax,
                            no_pipe)
                  .total_us,
              model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                  .total_us);
}

TEST_F(CostModelTest, InterleaveAblationSlowsKernel)
{
    const GemmShape shape{64, 8192, 8192};
    CometKernelFeatures no_interleave;
    no_interleave.weight_interleaving = false;
    EXPECT_GT(model_
                  .estimate(shape, GemmKernelKind::kCometW4Ax,
                            no_interleave)
                  .total_us,
              model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                  .total_us);
}

TEST_F(CostModelTest, FastConversionAblationSlowsKernel)
{
    const GemmShape shape{64, 8192, 8192};
    CometKernelFeatures no_fast;
    no_fast.fast_conversion = false;
    EXPECT_GT(model_
                  .estimate(shape, GemmKernelKind::kCometW4Ax,
                            no_fast)
                  .total_us,
              model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                  .total_us);
}

TEST_F(CostModelTest, SchedulingLadderMonotone)
{
    const GemmShape shape{256, 8192, 8192};
    double previous = 1e30;
    for (SchedulingStrategy strategy :
         {SchedulingStrategy::kNaiveSync,
          SchedulingStrategy::kBarrierMinimized,
          SchedulingStrategy::kTileRemapping,
          SchedulingStrategy::kTaskStealing}) {
        CometKernelFeatures features;
        features.scheduling = strategy;
        const double t =
            model_.estimate(shape, GemmKernelKind::kCometW4Ax,
                            features)
                .total_us;
        EXPECT_LE(t, previous + 1e-9)
            << schedulingStrategyName(strategy);
        previous = t;
    }
}

TEST_F(CostModelTest, HigherW4A4FractionIsFaster)
{
    const GemmShape shape{128, 8192, 8192};
    CometKernelFeatures lo;
    lo.w4a4_fraction = 0.5;
    CometKernelFeatures hi;
    hi.w4a4_fraction = 1.0;
    EXPECT_LT(
        model_.estimate(shape, GemmKernelKind::kCometW4Ax, hi)
            .total_us,
        model_.estimate(shape, GemmKernelKind::kCometW4Ax, lo)
            .total_us);
}

TEST_F(CostModelTest, LatencyMonotoneInShape)
{
    const double small =
        model_.estimate({16, 4096, 4096},
                        GemmKernelKind::kCometW4Ax)
            .total_us;
    const double large =
        model_.estimate({16, 8192, 8192},
                        GemmKernelKind::kCometW4Ax)
            .total_us;
    EXPECT_GT(large, small);
}

TEST_F(CostModelTest, BreakdownFieldsConsistent)
{
    const GemmShape shape{64, 4096, 4096};
    const KernelCost cost =
        model_.estimate(shape, GemmKernelKind::kCometW4Ax);
    EXPECT_GT(cost.memory_us, 0.0);
    EXPECT_GT(cost.compute_us, 0.0);
    EXPECT_GE(cost.total_us, cost.launch_us);
    EXPECT_GT(cost.sm_utilization, 0.0);
    EXPECT_LE(cost.sm_utilization, 1.0 + 1e-9);
}

TEST_F(CostModelTest, PermutationIsATinyRuntimeFraction)
{
    // Paper Section 3.2: channel permutation accounts for ~0.7% of
    // the overall runtime.
    for (int64_t m : {16, 256}) {
        const GemmShape shape{m, 8192, 8192};
        const KernelCost cost =
            model_.estimate(shape, GemmKernelKind::kCometW4Ax);
        EXPECT_LT(cost.convert_us / cost.total_us, 0.02)
            << "batch " << m;
    }
}

TEST_F(CostModelTest, KernelKindNames)
{
    EXPECT_STREQ(gemmKernelKindName(GemmKernelKind::kCublasW16A16),
                 "cuBLAS-W16A16");
    EXPECT_STREQ(gemmKernelKindName(GemmKernelKind::kCometW4Ax),
                 "COMET-W4Ax");
}

TEST_F(CostModelTest, ConversionConstantsMatchTheirCounters)
{
    // One packed INT4 register word widens 8 values.
    constexpr int64_t kValuesPerWord = 8;
    const uint32_t word = 0x89abcdefu;

    InstructionCounter fast;
    fastInt4ToInt8(locationSwitch(word), &fast);
    EXPECT_EQ(fast.count(), 3);
    EXPECT_EQ(conversionOpsPerValue(true) * kValuesPerWord,
              static_cast<double>(fast.count()));

    // The naive constant also charges the sub-word insertion SASS the
    // emulation does not count, so it may only exceed the count.
    InstructionCounter naive;
    naiveInt4ToInt8(word, &naive);
    EXPECT_EQ(naive.count(), 80);
    EXPECT_GE(conversionOpsPerValue(false),
              static_cast<double>(naive.count()) / kValuesPerWord);
}

TEST(CostModelDeathTest, RejectsEmptyShape)
{
    GemmCostModel model(GpuSpec::a100Sxm480G());
    EXPECT_DEATH(
        model.estimate({0, 10, 10}, GemmKernelKind::kCublasW16A16),
        "CHECK failed");
}

/** Sweep every paper model x batch: invariants that must hold for
 * any shape the serving engine can generate. */
struct ModelBatch {
    // int64_t, not int: gtest names each case after the raw bytes of
    // its parameter, so padding between the fields would put stack
    // garbage into the test names and change them from run to run.
    int64_t model_index;
    int64_t batch;
};

class CostModelModelSweep
    : public ::testing::TestWithParam<ModelBatch> {};

TEST_P(CostModelModelSweep, InvariantsHoldEverywhere)
{
    const GemmCostModel model(GpuSpec::a100Sxm480G());
    const auto configs = LlmConfig::paperModels();
    const LlmConfig &llm =
        configs[static_cast<size_t>(GetParam().model_index)];
    const GemmShape shape{GetParam().batch, llm.intermediate_size,
                          llm.hidden_size};
    double previous = 0.0;
    for (GemmKernelKind kind :
         {GemmKernelKind::kOracleW4A4, GemmKernelKind::kCometW4Ax,
          GemmKernelKind::kQserveW4A8, GemmKernelKind::kTrtLlmW8A8,
          GemmKernelKind::kCublasW16A16}) {
        const KernelCost cost = model.estimate(shape, kind);
        EXPECT_GT(cost.total_us, 0.0) << gemmKernelKindName(kind);
        EXPECT_GE(cost.total_us, cost.launch_us);
        // Lower-precision kernels never lose to cuBLAS FP16 in this
        // ordering (each step up the list adds precision/cost).
        if (kind == GemmKernelKind::kCublasW16A16) {
            EXPECT_GE(cost.total_us, previous - 1e-9);
        }
        previous = cost.total_us;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CostModelModelSweep,
    ::testing::Values(ModelBatch{0, 4}, ModelBatch{2, 16},
                      ModelBatch{5, 64}, ModelBatch{6, 128},
                      ModelBatch{10, 256}));

} // namespace
} // namespace comet

