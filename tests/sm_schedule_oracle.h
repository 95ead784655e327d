/**
 * @file
 * The discrete SM schedule over an explicit tile list, kept as the
 * test oracle of scheduleTileGrid().
 *
 * buildGemmTiles() materializes a GEMM's tiles in kernel issue order
 * (k innermost) and scheduleTiles() simulates each policy tile by
 * tile: waves with barriers, the cyclic binding, round-robin per
 * precision class and, for task stealing, the stealing step on top of
 * the remapped schedule. The closed form must agree with it bit for
 * bit whenever the tile sums are exact, and within summation rounding
 * otherwise (sm_scheduler.h). Every materialized tile counts toward
 * `gpusim.tiles_materialized`, which stays 0 outside the tests.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comet/common/status.h"
#include "comet/gpusim/sm_scheduler.h"
#include "comet/obs/metrics.h"

namespace comet {

/** One schedulable tile of a mixed-precision GEMM. */
struct TileWork {
    double duration = 0.0;       ///< microseconds on one SM
    BlockPrecision precision = BlockPrecision::kInt4;
};

namespace sm_oracle {

/** Waves of num_sms tiles with a barrier after each wave. */
inline ScheduleResult
scheduleNaiveSync(const std::vector<TileWork> &tiles, int num_sms)
{
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(num_sms), 0.0);
    for (size_t i = 0; i < tiles.size();
         i += static_cast<size_t>(num_sms)) {
        double wave_max = 0.0;
        for (int s = 0; s < num_sms; ++s) {
            const size_t idx = i + static_cast<size_t>(s);
            if (idx >= tiles.size())
                break;
            result.sm_busy[static_cast<size_t>(s)] +=
                tiles[idx].duration;
            wave_max = std::max(wave_max, tiles[idx].duration);
        }
        result.makespan += wave_max;
        ++result.barriers;
    }
    for (const TileWork &tile : tiles)
        result.total_work += tile.duration;
    return result;
}

/** Static cyclic binding (tile i -> SM i % num_sms), no per-wave
 * barriers; makespan is the busiest SM. */
inline ScheduleResult
scheduleBarrierMinimized(const std::vector<TileWork> &tiles, int num_sms)
{
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(num_sms), 0.0);
    for (size_t i = 0; i < tiles.size(); ++i) {
        result.sm_busy[i % static_cast<size_t>(num_sms)] +=
            tiles[i].duration;
        result.total_work += tiles[i].duration;
    }
    for (double busy : result.sm_busy)
        result.makespan = std::max(result.makespan, busy);
    result.barriers = 1; // only the final pre-writeback barrier
    return result;
}

/**
 * Tile remapping (Figure 8(d)): tiles are dealt to SMs round-robin
 * *per precision class*, so every SM receives a near-equal share of
 * INT4 and INT8 work. This matches the paper's "distribute the INT4
 * and INT8 mma computations as evenly as possible" — a static
 * remapping, not an idealized optimal packing, so a residual
 * imbalance of up to one tile per class remains (the gap tile
 * decomposition closes).
 */
inline ScheduleResult
scheduleRemapping(const std::vector<TileWork> &tiles, int num_sms)
{
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(num_sms), 0.0);
    size_t next_int4 = 0, next_int8 = 0;
    for (const TileWork &tile : tiles) {
        size_t &cursor = tile.precision == BlockPrecision::kInt4
                             ? next_int4
                             : next_int8;
        result.sm_busy[cursor % static_cast<size_t>(num_sms)] +=
            tile.duration;
        ++cursor;
        result.total_work += tile.duration;
    }
    for (double busy : result.sm_busy)
        result.makespan = std::max(result.makespan, busy);
    result.barriers = 1;
    return result;
}

/**
 * Task stealing (Figure 8(e)) on top of the remapped schedule: the work
 * above the balanced waterline migrates to idle SMs, inflated by the
 * per-steal reduction overhead, and a tile splits into at most
 * steal_split fragments, so the makespan can only improve.
 */
inline ScheduleResult
scheduleTaskStealing(const std::vector<TileWork> &tiles,
                     const SchedulerConfig &config)
{
    const int num_sms = config.num_sms;
    ScheduleResult result = scheduleRemapping(tiles, num_sms);
    double max_tile = 0.0;
    for (const TileWork &tile : tiles)
        max_tile = std::max(max_tile, tile.duration);
    const double target =
        result.total_work / static_cast<double>(num_sms);
    double transferred = 0.0;
    for (double busy : result.sm_busy)
        transferred += std::max(0.0, busy - target);
    const double inflated =
        result.total_work + transferred * config.steal_overhead;
    const double balanced = std::max(
        inflated / static_cast<double>(num_sms),
        max_tile / static_cast<double>(config.steal_split));
    if (balanced < result.makespan) {
        result.makespan = balanced;
        result.total_work = inflated;
        std::fill(result.sm_busy.begin(), result.sm_busy.end(),
                  inflated / static_cast<double>(num_sms));
    }
    return result;
}

} // namespace sm_oracle

/** Simulates the given policy over the tile list. */
inline ScheduleResult
scheduleTiles(const std::vector<TileWork> &tiles,
              const SchedulerConfig &config, SchedulingStrategy strategy)
{
    COMET_CHECK(config.num_sms > 0);
    if (tiles.empty()) {
        ScheduleResult empty;
        empty.sm_busy.assign(static_cast<size_t>(config.num_sms), 0.0);
        return empty;
    }
    switch (strategy) {
      case SchedulingStrategy::kNaiveSync:
        return sm_oracle::scheduleNaiveSync(tiles, config.num_sms);
      case SchedulingStrategy::kBarrierMinimized:
        return sm_oracle::scheduleBarrierMinimized(tiles, config.num_sms);
      case SchedulingStrategy::kTileRemapping:
        return sm_oracle::scheduleRemapping(tiles, config.num_sms);
      case SchedulingStrategy::kTaskStealing:
        COMET_CHECK(config.steal_split >= 1);
        return sm_oracle::scheduleTaskStealing(tiles, config);
    }
    COMET_CHECK_MSG(false, "unknown scheduling strategy");
    return {};
}

/**
 * Builds the tile list of an (m, n, k) GEMM with the given per-k-block
 * precision pattern: tiles iterate over the m x n grid for each k block,
 * with per-tile durations supplied by the caller.
 */
inline std::vector<TileWork>
buildGemmTiles(int64_t m, int64_t n, int64_t k, int64_t tile_m,
               int64_t tile_n, int64_t tile_k,
               const std::vector<BlockPrecision> &k_block_precisions,
               int64_t block_size, double int4_tile_us,
               double int8_tile_us)
{
    COMET_CHECK(m > 0 && n > 0 && k > 0);
    COMET_CHECK(tile_m > 0 && tile_n > 0 && tile_k > 0);
    COMET_CHECK(block_size > 0 && block_size % tile_k == 0);
    COMET_CHECK(static_cast<int64_t>(k_block_precisions.size()) ==
                (k + block_size - 1) / block_size);

    const int64_t m_tiles = (m + tile_m - 1) / tile_m;
    const int64_t n_tiles = (n + tile_n - 1) / tile_n;
    const int64_t k_tiles = (k + tile_k - 1) / tile_k;

    static obs::Counter &materialized_counter =
        obs::MetricsRegistry::global().counter(
            "gpusim.tiles_materialized");
    materialized_counter.add(m_tiles * n_tiles * k_tiles);

    std::vector<TileWork> tiles;
    tiles.reserve(static_cast<size_t>(m_tiles * n_tiles * k_tiles));
    // Iteration order mirrors the kernel's issue order: the k split is
    // innermost (each (m, n, k) tile is its own thread block feeding
    // the cross-tile reduction), so consecutive tiles alternate
    // precision when k blocks do — reproducing the pathological
    // precision/SM correlation of Figure 8(b) under cyclic binding.
    for (int64_t mt = 0; mt < m_tiles; ++mt) {
        for (int64_t nt = 0; nt < n_tiles; ++nt) {
            for (int64_t kt = 0; kt < k_tiles; ++kt) {
                const int64_t block = (kt * tile_k) / block_size;
                const BlockPrecision precision =
                    k_block_precisions[static_cast<size_t>(block)];
                const double duration =
                    precision == BlockPrecision::kInt4 ? int4_tile_us
                                                       : int8_tile_us;
                tiles.push_back(TileWork{duration, precision});
            }
        }
    }
    return tiles;
}

} // namespace comet
