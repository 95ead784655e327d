/**
 * @file
 * Property suite for tp::InterconnectModel, the deterministic
 * allreduce/allgather cost model TP planning rests on: monotonicity
 * in message size and degree, symmetry under rank permutation, golden
 * pins against the paper-Section-2.3 A100 link constants, and the
 * ring-vs-direct crossover law.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "comet/gpusim/gpu_spec.h"
#include "comet/gpusim/planner.h"
#include "comet/model/llm_config.h"
#include "comet/serve/engine.h"
#include "comet/tp/interconnect.h"

namespace comet {
namespace {

tp::InterconnectModel
a100Model()
{
    return tp::InterconnectModel(GpuSpec::a100Sxm480G());
}

TEST(InterconnectModel, PullsConstantsFromTheSpec)
{
    const GpuSpec spec = GpuSpec::a100Sxm480G();
    const tp::InterconnectModel model(spec);
    EXPECT_DOUBLE_EQ(model.linkBandwidth(), spec.nvlink_bandwidth);
    EXPECT_DOUBLE_EQ(model.hopLatencyUs(), spec.nvlink_latency_us);
    EXPECT_GT(spec.nvlink_bandwidth, 0.0);
    EXPECT_GT(spec.nvlink_latency_us, 0.0);
    // H100's NVLink 4 is faster on both axes.
    const GpuSpec h100 = GpuSpec::h100Sxm80G();
    EXPECT_GT(h100.nvlink_bandwidth, spec.nvlink_bandwidth);
    EXPECT_LT(h100.nvlink_latency_us, spec.nvlink_latency_us);
}

TEST(InterconnectModel, DegreeOneCostsNothing)
{
    const tp::InterconnectModel model = a100Model();
    for (double bytes : {0.0, 1.0, 2e6, 1e9}) {
        EXPECT_DOUBLE_EQ(model.allReduceUs(bytes, 1), 0.0);
        EXPECT_DOUBLE_EQ(model.allGatherUs(bytes, 1), 0.0);
    }
}

TEST(InterconnectModel, GoldenPinsA100)
{
    // 600 GB/s NVLink 3, 1.5 us/hop (paper Section 2.3 platform).
    // Worked by hand for a 2 MB decode activation at TP=4:
    //   ring   = 2*(3/4)*2e6/600e9*1e6 + 2*3*1.5 = 5.0 + 9.0 us
    //   direct = 3*2e6/600e9*1e6 + 1.5          = 10.0 + 1.5 us
    const tp::InterconnectModel model = a100Model();
    EXPECT_NEAR(model.ringAllReduceUs(2e6, 4), 14.0, 1e-9);
    EXPECT_NEAR(model.directAllReduceUs(2e6, 4), 11.5, 1e-9);
    EXPECT_NEAR(model.allReduceUs(2e6, 4), 11.5, 1e-9);
    EXPECT_EQ(model.chooseAllReduce(2e6, 4),
              tp::CollectiveAlgo::kDirect);
    // The crossover solves ring == direct:
    //   B = L*(2N-3)*bw*N / ((N-1)(N-2)*1e6) = 3e6 bytes at N=4.
    EXPECT_NEAR(model.ringDirectCrossoverBytes(4), 3e6, 1.0);
    EXPECT_NEAR(model.ringAllReduceUs(3e6, 4), 16.5, 1e-9);
    EXPECT_NEAR(model.directAllReduceUs(3e6, 4), 16.5, 1e-9);
}

TEST(InterconnectModel, MonotoneInMessageSize)
{
    const tp::InterconnectModel model = a100Model();
    for (int degree : {2, 3, 4, 8}) {
        double previous = -1.0;
        double previous_gather = -1.0;
        for (double bytes = 0.0; bytes <= 64e6; bytes += 1e6) {
            const double cost = model.allReduceUs(bytes, degree);
            EXPECT_GT(cost, previous)
                << "degree " << degree << " bytes " << bytes;
            previous = cost;
            // allGather takes the per-rank shard size; it is monotone
            // in that size too.
            const double gather = model.allGatherUs(bytes, degree);
            EXPECT_GT(gather, previous_gather)
                << "degree " << degree << " bytes " << bytes;
            previous_gather = gather;
        }
    }
}

TEST(InterconnectModel, MonotoneInDegree)
{
    const tp::InterconnectModel model = a100Model();
    for (double bytes : {4096.0, 5e5, 2e6, 3e6, 64e6}) {
        double previous = 0.0;
        for (int degree = 2; degree <= 16; ++degree) {
            const double cost = model.allReduceUs(bytes, degree);
            EXPECT_GT(cost, previous)
                << "bytes " << bytes << " degree " << degree;
            previous = cost;
        }
    }
}

TEST(InterconnectModel, SymmetricUnderRankPermutation)
{
    const tp::InterconnectModel model = a100Model();
    std::mt19937_64 shuffler(7);
    for (int degree : {2, 3, 4, 8}) {
        std::vector<int> order(static_cast<size_t>(degree));
        std::iota(order.begin(), order.end(), 0);
        const double reference =
            model.ringAllReduceUs(2e6, order);
        EXPECT_DOUBLE_EQ(reference,
                         model.ringAllReduceUs(2e6, degree));
        for (int trial = 0; trial < 16; ++trial) {
            std::shuffle(order.begin(), order.end(), shuffler);
            EXPECT_DOUBLE_EQ(model.ringAllReduceUs(2e6, order),
                             reference)
                << "degree " << degree;
        }
    }
}

TEST(InterconnectModel, RingWinsBeyondTheCrossover)
{
    const tp::InterconnectModel model = a100Model();
    for (int degree : {3, 4, 6, 8}) {
        const double crossover =
            model.ringDirectCrossoverBytes(degree);
        ASSERT_TRUE(std::isfinite(crossover)) << degree;
        ASSERT_GT(crossover, 0.0);
        for (double factor : {1.0, 1.5, 4.0, 32.0}) {
            EXPECT_LE(model.ringAllReduceUs(crossover * factor,
                                            degree),
                      model.directAllReduceUs(crossover * factor,
                                              degree))
                << "degree " << degree << " factor " << factor;
        }
        for (double factor : {0.1, 0.5, 0.99}) {
            EXPECT_GT(model.ringAllReduceUs(crossover * factor,
                                            degree),
                      model.directAllReduceUs(crossover * factor,
                                              degree))
                << "degree " << degree << " factor " << factor;
        }
    }
}

TEST(InterconnectModel, DirectAlwaysWinsAtDegreeTwo)
{
    // Both algorithms move the same bytes per link at N=2; ring just
    // pays more hops — the crossover is infinite.
    const tp::InterconnectModel model = a100Model();
    EXPECT_TRUE(
        std::isinf(model.ringDirectCrossoverBytes(2)));
    for (double bytes : {1.0, 1e6, 1e9, 64e9}) {
        EXPECT_LT(model.directAllReduceUs(bytes, 2),
                  model.ringAllReduceUs(bytes, 2));
        EXPECT_EQ(model.chooseAllReduce(bytes, 2),
                  tp::CollectiveAlgo::kDirect);
    }
}

TEST(InterconnectModel, AllGatherNeverBeatsItsOwnBandwidthFloor)
{
    const tp::InterconnectModel model = a100Model();
    for (int degree : {2, 4, 8}) {
        for (double bytes : {4096.0, 2e6, 64e6}) {
            const double floor_us = (degree - 1) * bytes /
                                    model.linkBandwidth() * 1e6;
            EXPECT_GE(model.allGatherUs(bytes, degree), floor_us);
            EXPECT_LE(model.directAllGatherUs(bytes, degree),
                      model.ringAllGatherUs(bytes, degree));
        }
    }
}

TEST(InterconnectModel, EngineAllReduceUsesTheModel)
{
    // The engine's per-step collective charge must be exactly two
    // modeled all-reduces per decoder layer of the step's FP16
    // activation tensor — no stray constants.
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.tensor_parallel = 4;
    const ServingEngine engine(config);
    const tp::InterconnectModel model(engine.gpu());
    for (int64_t m : {1, 16, 64, 256}) {
        const double tensor_bytes =
            static_cast<double>(m) *
            static_cast<double>(config.model.hidden_size) * 2.0;
        EXPECT_DOUBLE_EQ(
            engine.allReduceLatencyUs(m),
            2.0 * model.allReduceUs(tensor_bytes, 4) *
                static_cast<double>(config.model.num_layers));
    }
}

TEST(InterconnectModel, PlannerAndEngineShareTheLayerAllReduce)
{
    // One function prices a layer's two collectives: the compile plan's
    // per-layer charge and the engine's per-step charge over its layers
    // both come from it, bit for bit, and cost nothing at degree 1.
    const LlmConfig model = LlmConfig::llama3_8b();
    EngineConfig config;
    config.model = model;
    config.mode = ServingMode::kCometW4AxKv4;
    config.tensor_parallel = 4;
    const ServingEngine engine(config);
    const CompilePlanner planner;
    for (int64_t m : {1, 16, 64, 256}) {
        const double layer =
            tp::layerAllReduceUs(engine.gpu(), m, model.hidden_size, 4);
        EXPECT_GT(layer, 0.0);
        EXPECT_EQ(planner.plan(model, m, kDeployedW4A4Fraction, 4)
                      .allreduce_us,
                  layer);
        EXPECT_EQ(engine.allReduceLatencyUs(m),
                  layer * static_cast<double>(model.num_layers));
        EXPECT_EQ(tp::layerAllReduceUs(engine.gpu(), m, model.hidden_size, 1),
                  0.0);
    }
}

} // namespace
} // namespace comet
