/**
 * @file
 * Unit tests for the fine-grained SM scheduler (paper Figure 8).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "comet/common/rng.h"
#include "comet/gpusim/sm_scheduler.h"
#include "comet/obs/metrics.h"
#include "sm_schedule_oracle.h"

namespace comet {
namespace {

/** Alternating INT8/INT4 tile list, the Figure 8 pattern. */
std::vector<TileWork>
alternatingTiles(int64_t count, double int4_us, double int8_us)
{
    std::vector<TileWork> tiles;
    for (int64_t i = 0; i < count; ++i) {
        const bool is_int8 = i % 2 == 0;
        tiles.push_back(TileWork{is_int8 ? int8_us : int4_us,
                                 is_int8 ? BlockPrecision::kInt8
                                         : BlockPrecision::kInt4});
    }
    return tiles;
}

SchedulerConfig
fourSms()
{
    SchedulerConfig config;
    config.num_sms = 4;
    return config;
}

TEST(Scheduler, NaiveSyncWavesBoundByslowestTile)
{
    // 8 alternating tiles on 4 SMs: 2 waves, each lasting the INT8
    // duration (Figure 8(b)).
    const auto tiles = alternatingTiles(8, 1.0, 2.0);
    const ScheduleResult result =
        scheduleTiles(tiles, fourSms(), SchedulingStrategy::kNaiveSync);
    EXPECT_DOUBLE_EQ(result.makespan, 4.0);
    EXPECT_EQ(result.barriers, 2);
}

TEST(Scheduler, BarrierMinimizedKeepsCyclicPathology)
{
    // With the alternating pattern and cyclic binding, SM0 and SM2
    // receive every INT8 tile: makespan = all INT8 work on one SM
    // (Figure 8(c)).
    const auto tiles = alternatingTiles(8, 1.0, 2.0);
    const ScheduleResult result = scheduleTiles(
        tiles, fourSms(), SchedulingStrategy::kBarrierMinimized);
    EXPECT_DOUBLE_EQ(result.makespan, 4.0); // 2 INT8 tiles x 2.0
    EXPECT_EQ(result.barriers, 1);
}

TEST(Scheduler, RemappingBalancesPrecisions)
{
    const auto tiles = alternatingTiles(8, 1.0, 2.0);
    const ScheduleResult result = scheduleTiles(
        tiles, fourSms(), SchedulingStrategy::kTileRemapping);
    // LPT: each SM gets one INT8 (2.0) + one INT4 (1.0) = 3.0.
    EXPECT_DOUBLE_EQ(result.makespan, 3.0);
}

TEST(Scheduler, TaskStealingApproachesIdeal)
{
    // 2 tiles on 4 SMs: one-to-one binding strands half the SMs;
    // stealing splits the tiles (Figure 8(e)).
    std::vector<TileWork> tiles(2,
                                TileWork{4.0, BlockPrecision::kInt4});
    const double remap =
        scheduleTiles(tiles, fourSms(),
                      SchedulingStrategy::kTileRemapping)
            .makespan;
    const double steal =
        scheduleTiles(tiles, fourSms(),
                      SchedulingStrategy::kTaskStealing)
            .makespan;
    EXPECT_DOUBLE_EQ(remap, 4.0);
    EXPECT_LT(steal, remap * 0.65);
}

TEST(Scheduler, ProgressionNeverRegresses)
{
    // The paper's optimization ladder must be monotone on the
    // alternating workload.
    const auto tiles = alternatingTiles(42, 0.6, 1.2);
    SchedulerConfig config;
    config.num_sms = 8;
    const double naive =
        scheduleTiles(tiles, config, SchedulingStrategy::kNaiveSync)
            .makespan;
    const double barrier_min =
        scheduleTiles(tiles, config,
                      SchedulingStrategy::kBarrierMinimized)
            .makespan;
    const double remap =
        scheduleTiles(tiles, config,
                      SchedulingStrategy::kTileRemapping)
            .makespan;
    const double steal =
        scheduleTiles(tiles, config,
                      SchedulingStrategy::kTaskStealing)
            .makespan;
    EXPECT_LE(barrier_min, naive + 1e-9);
    EXPECT_LE(remap, barrier_min + 1e-9);
    EXPECT_LE(steal, remap + 1e-9);
}

TEST(Scheduler, MakespanNeverBelowWorkOverSms)
{
    const auto tiles = alternatingTiles(31, 0.7, 1.9);
    SchedulerConfig config;
    config.num_sms = 6;
    for (SchedulingStrategy strategy :
         {SchedulingStrategy::kNaiveSync,
          SchedulingStrategy::kBarrierMinimized,
          SchedulingStrategy::kTileRemapping,
          SchedulingStrategy::kTaskStealing}) {
        const ScheduleResult result =
            scheduleTiles(tiles, config, strategy);
        EXPECT_GE(result.makespan,
                  result.total_work / 6.0 - 1e-9)
            << schedulingStrategyName(strategy);
    }
}

TEST(Scheduler, UtilizationBetweenZeroAndOne)
{
    const auto tiles = alternatingTiles(10, 1.0, 2.0);
    const ScheduleResult result = scheduleTiles(
        tiles, fourSms(), SchedulingStrategy::kTileRemapping);
    EXPECT_GT(result.utilization(), 0.0);
    EXPECT_LE(result.utilization(), 1.0 + 1e-9);
}

TEST(Scheduler, EmptyTileListIsZero)
{
    const ScheduleResult result = scheduleTiles(
        {}, fourSms(), SchedulingStrategy::kTaskStealing);
    EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST(BuildGemmTiles, CountsAndPattern)
{
    // The paper's running example: 256x256x384 GEMM, 128^3 tiles,
    // alternating k-block precision.
    const std::vector<BlockPrecision> pattern{
        BlockPrecision::kInt8, BlockPrecision::kInt4,
        BlockPrecision::kInt8};
    const auto tiles = buildGemmTiles(256, 256, 384, 128, 128, 128,
                                      pattern, 128, 1.0, 2.0);
    EXPECT_EQ(tiles.size(), 12u); // 2 x 2 x 3
    // k is innermost: tiles alternate per the k pattern.
    EXPECT_EQ(tiles[0].precision, BlockPrecision::kInt8);
    EXPECT_EQ(tiles[1].precision, BlockPrecision::kInt4);
    EXPECT_EQ(tiles[2].precision, BlockPrecision::kInt8);
    EXPECT_EQ(tiles[3].precision, BlockPrecision::kInt8);
}

TEST(BuildGemmTiles, RaggedShapesRoundUp)
{
    const std::vector<BlockPrecision> pattern{BlockPrecision::kInt4};
    const auto tiles = buildGemmTiles(100, 100, 100, 128, 128, 128,
                                      pattern, 128, 1.0, 2.0);
    EXPECT_EQ(tiles.size(), 1u);
}

TEST(Scheduler, StealOverheadChargedOnTransferredWorkOnly)
{
    // Two 4.0 tiles on 4 SMs: half the work (4.0) migrates to the
    // idle SMs and pays the reduction overhead.
    std::vector<TileWork> tiles(2,
                                TileWork{4.0, BlockPrecision::kInt4});
    SchedulerConfig config;
    config.num_sms = 4;
    config.steal_split = 4;
    config.steal_overhead = 0.10;
    const ScheduleResult result = scheduleTiles(
        tiles, config, SchedulingStrategy::kTaskStealing);
    EXPECT_NEAR(result.total_work, 8.0 + 4.0 * 0.10, 1e-9);
    EXPECT_NEAR(result.makespan, 8.4 / 4.0, 1e-9);
}

TEST(Scheduler, StealingIsOpportunistic)
{
    // An already-balanced schedule is left untouched: stealing never
    // regresses and charges no overhead.
    std::vector<TileWork> tiles(4,
                                TileWork{1.0, BlockPrecision::kInt4});
    SchedulerConfig config;
    config.num_sms = 4;
    config.steal_overhead = 0.10;
    const ScheduleResult result = scheduleTiles(
        tiles, config, SchedulingStrategy::kTaskStealing);
    EXPECT_NEAR(result.total_work, 4.0, 1e-9);
    EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

constexpr SchedulingStrategy kAllStrategies[] = {
    SchedulingStrategy::kNaiveSync,
    SchedulingStrategy::kBarrierMinimized,
    SchedulingStrategy::kTileRemapping,
    SchedulingStrategy::kTaskStealing,
};

/** One random GEMM for the closed-form vs materialized comparison. */
struct OracleCase {
    int64_t m = 0, n = 0, k = 0;
    std::vector<BlockPrecision> pattern; ///< one entry per k tile
    int num_sms = 0;
    double int4_us = 0.0, int8_us = 0.0;

    int64_t
    mTiles() const
    {
        return (m + 127) / 128;
    }
    int64_t
    nTiles() const
    {
        return (n + 127) / 128;
    }
    int64_t
    tiles() const
    {
        return mTiles() * nTiles() *
               static_cast<int64_t>(pattern.size());
    }
};

/** Extent covering @p tiles 128-wide tiles, ragged in the last one. */
int64_t
raggedExtent(Rng &rng, int64_t tiles)
{
    return (tiles - 1) * 128 + 1 +
           static_cast<int64_t>(rng.uniformInt(128));
}

/**
 * Random case @p index: SM counts and k-tile counts on both sides of
 * each other (equal, coprime, sharing a factor), all-INT4, all-INT8
 * and mixed patterns, and either duration order. @p dyadic draws
 * durations whose every tile sum is exact in binary64.
 */
OracleCase
randomCase(Rng &rng, int index, bool dyadic)
{
    OracleCase c;
    const int64_t k_tiles =
        1 + static_cast<int64_t>(rng.uniformInt(40));
    c.m = raggedExtent(rng, 1 + static_cast<int64_t>(rng.uniformInt(6)));
    c.n = raggedExtent(rng, 1 + static_cast<int64_t>(rng.uniformInt(6)));
    c.k = raggedExtent(rng, k_tiles);
    switch (index % 4) {
      case 0: c.num_sms = static_cast<int>(k_tiles); break;
      case 1:
        c.num_sms = static_cast<int>(
            k_tiles * (1 + static_cast<int64_t>(rng.uniformInt(3))));
        break;
      default:
        c.num_sms = 1 + static_cast<int>(rng.uniformInt(120));
        break;
    }
    const int kind = static_cast<int>(rng.uniformInt(5));
    const double int8_share = kind == 0 ? 0.0 : kind == 1 ? 1.0
                                                           : rng.uniform();
    for (int64_t t = 0; t < k_tiles; ++t)
        c.pattern.push_back(rng.uniform() < int8_share
                                ? BlockPrecision::kInt8
                                : BlockPrecision::kInt4);
    if (dyadic) {
        // Multiples of 1/4 in (0, 8]: sums over the at most 1440 tiles
        // of a case are exact.
        c.int4_us = 0.25 * static_cast<double>(1 + rng.uniformInt(32));
        c.int8_us = 0.25 * static_cast<double>(1 + rng.uniformInt(32));
    } else {
        c.int4_us = rng.uniform(0.1, 10.0);
        c.int8_us = rng.uniform(0.1, 10.0);
    }
    if (index == 0) { // a single tile
        c.m = c.n = c.k = 100;
        c.pattern.assign(1, BlockPrecision::kInt8);
    }
    return c;
}

ScheduleResult
materializedSchedule(const OracleCase &c, const SchedulerConfig &config,
                     SchedulingStrategy strategy)
{
    return scheduleTiles(buildGemmTiles(c.m, c.n, c.k, 128, 128, 128,
                                        c.pattern, 128, c.int4_us,
                                        c.int8_us),
                         config, strategy);
}

ScheduleResult
closedFormSchedule(const OracleCase &c, const SchedulerConfig &config,
                   SchedulingStrategy strategy)
{
    TileGrid grid;
    grid.repeats = c.mTiles() * c.nTiles();
    grid.k_precisions = c.pattern;
    grid.int4_us = c.int4_us;
    grid.int8_us = c.int8_us;
    return scheduleTileGrid(grid, config, strategy);
}

/** Which of the required regimes a case set exercised. */
struct Coverage {
    int all_int4 = 0, all_int8 = 0, coprime = 0, common_factor = 0;
    int more_sms = 0, equal = 0, fewer_sms = 0, partial_wave = 0;
    int int4_slower = 0, single_tile = 0;

    void
    add(const OracleCase &c)
    {
        const auto k = static_cast<int64_t>(c.pattern.size());
        const auto int8 = std::count(c.pattern.begin(), c.pattern.end(),
                                     BlockPrecision::kInt8);
        all_int4 += int8 == 0;
        all_int8 += int8 == k;
        const int64_t g = std::gcd<int64_t>(c.num_sms, k);
        coprime += g == 1;
        common_factor += g > 1;
        more_sms += c.num_sms > k;
        equal += c.num_sms == k;
        fewer_sms += c.num_sms < k;
        partial_wave += c.tiles() % c.num_sms != 0;
        int4_slower += c.int4_us > c.int8_us;
        single_tile += c.tiles() == 1;
    }

    void
    expectComplete() const
    {
        for (int seen : {all_int4, all_int8, coprime, common_factor,
                         more_sms, equal, fewer_sms, partial_wave,
                         int4_slower, single_tile})
            EXPECT_GT(seen, 0);
    }
};

constexpr int kOracleCases = 600;

TEST(ScheduleTileGrid, BitExactAgainstMaterializedWithDyadicDurations)
{
    Rng rng(20250314);
    Coverage coverage;
    for (int i = 0; i < kOracleCases; ++i) {
        const OracleCase c = randomCase(rng, i, /*dyadic=*/true);
        coverage.add(c);
        SchedulerConfig config;
        config.num_sms = c.num_sms;
        config.steal_split = 1 + static_cast<int>(rng.uniformInt(6));
        for (SchedulingStrategy strategy : kAllStrategies) {
            const ScheduleResult want =
                materializedSchedule(c, config, strategy);
            const ScheduleResult got =
                closedFormSchedule(c, config, strategy);
            SCOPED_TRACE(testing::Message()
                         << "case " << i << " "
                         << schedulingStrategyName(strategy));
            EXPECT_EQ(got.makespan, want.makespan);
            EXPECT_EQ(got.total_work, want.total_work);
            EXPECT_EQ(got.barriers, want.barriers);
            EXPECT_EQ(got.sm_busy, want.sm_busy);
            EXPECT_EQ(got.utilization(), want.utilization());
        }
    }
    coverage.expectComplete();
}

TEST(ScheduleTileGrid, WithinSummationBoundForGeneralDurations)
{
    // The materialized scheduler adds up to n durations one at a time;
    // the closed form multiplies counts by durations. Both round, so
    // every field may differ by at most 2 * n * 2^-53 relative, n the
    // tile count summed.
    Rng rng(7);
    Coverage coverage;
    for (int i = 0; i < kOracleCases; ++i) {
        const OracleCase c = randomCase(rng, i, /*dyadic=*/false);
        coverage.add(c);
        const double bound = 2.0 * static_cast<double>(c.tiles()) *
                             std::ldexp(1.0, -53);
        auto expect_close = [&](double got, double want) {
            EXPECT_LE(std::fabs(got - want),
                      bound * std::max(std::fabs(got), std::fabs(want)))
                << got << " vs " << want;
        };
        SchedulerConfig config;
        config.num_sms = c.num_sms;
        for (SchedulingStrategy strategy : kAllStrategies) {
            const ScheduleResult want =
                materializedSchedule(c, config, strategy);
            const ScheduleResult got =
                closedFormSchedule(c, config, strategy);
            SCOPED_TRACE(testing::Message()
                         << "case " << i << " "
                         << schedulingStrategyName(strategy));
            expect_close(got.makespan, want.makespan);
            expect_close(got.total_work, want.total_work);
            EXPECT_EQ(got.barriers, want.barriers);
            ASSERT_EQ(got.sm_busy.size(), want.sm_busy.size());
            for (size_t s = 0; s < got.sm_busy.size(); ++s)
                expect_close(got.sm_busy[s], want.sm_busy[s]);
        }
    }
    coverage.expectComplete();
}

TEST(ScheduleTileGrid, EmptyGridIsZero)
{
    TileGrid grid;
    grid.k_precisions.assign(3, BlockPrecision::kInt8);
    for (SchedulingStrategy strategy : kAllStrategies) {
        const ScheduleResult result =
            scheduleTileGrid(grid, fourSms(), strategy);
        EXPECT_EQ(result.makespan, 0.0);
        EXPECT_EQ(result.barriers, 0);
        EXPECT_EQ(result.sm_busy, std::vector<double>(4, 0.0));
    }
}

TEST(ScheduleTileGrid, CountsLogicalTilesWithoutMaterializing)
{
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    obs::Counter &scheduled = registry.counter("gpusim.tiles_scheduled");
    obs::Counter &materialized =
        registry.counter("gpusim.tiles_materialized");
    const int64_t scheduled_before = scheduled.value();
    const int64_t materialized_before = materialized.value();
    TileGrid grid;
    grid.repeats = 1000;
    grid.k_precisions = {BlockPrecision::kInt8, BlockPrecision::kInt4,
                         BlockPrecision::kInt4};
    grid.int4_us = 1.0;
    grid.int8_us = 2.0;
    scheduleTileGrid(grid, fourSms(), SchedulingStrategy::kTaskStealing);
    EXPECT_EQ(scheduled.value() - scheduled_before, 3000);
    EXPECT_EQ(materialized.value(), materialized_before);

    buildGemmTiles(256, 128, 128, 128, 128, 128,
                   {BlockPrecision::kInt4}, 128, 1.0, 2.0);
    EXPECT_EQ(materialized.value() - materialized_before, 2);
}

} // namespace
} // namespace comet
