/**
 * @file
 * Fine-grained SM scheduling (paper Section 4.4, Figure 8).
 *
 * A mixed-precision GEMM decomposes into tiles whose durations differ
 * (W4A4 tiles run ~2x faster than W4A8 tiles). How tiles are bound to
 * SMs determines utilization:
 *
 *  - kNaiveSync: tiles are issued in waves of num_sms with a
 *    synchronization barrier after every wave — every wave lasts as
 *    long as its slowest tile (Figure 8(b)).
 *  - kBarrierMinimized: the per-wave barriers are removed (only the
 *    final pre-writeback barrier remains), but the tile-to-SM binding
 *    stays the naive cyclic one, so SMs that keep drawing INT8 tiles
 *    still dominate the makespan (Figure 8(c)).
 *  - kTileRemapping: tiles are redistributed so each SM receives a
 *    balanced mix (longest-processing-time greedy; Figure 8(d)).
 *  - kTaskStealing: additionally breaks the one-to-one tile/SM binding:
 *    idle SMs steal fractions of the remaining tiles near the end of
 *    the kernel (Figure 8(e)). Modeled by splitting tiles into
 *    sub-tiles (with a small reduction overhead per extra fragment)
 *    before balanced assignment.
 *
 * scheduleTileGrid() evaluates those four policies in closed form over
 * a compact TileGrid (the per-k-tile precision pattern repeated once per
 * (m, n) tile): every per-SM busy time, the makespan and the total work
 * are integer tile counts times the two tile durations, computed in
 * O(num_sms + k_tiles) without materializing a tile. It is the path the
 * cost model runs for every COMET GEMM. The discrete simulation of the
 * same policies over an explicit tile list lives in the tests
 * (tests/sm_schedule_oracle.h) as the differential oracle of the closed
 * form. The two agree bit-for-bit whenever the tile sums are exact
 * (e.g. dyadic durations); otherwise they differ only by summation
 * rounding, at most 2 * n * 2^-53 relative for n summed tiles.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/quant/fmpq.h"

namespace comet {

/** Tile-to-SM scheduling policy. */
enum class SchedulingStrategy {
    kNaiveSync = 0,
    kBarrierMinimized,
    kTileRemapping,
    kTaskStealing,
};

/** Returns a short human-readable strategy name. */
const char *schedulingStrategyName(SchedulingStrategy strategy);

/** Outcome of scheduling a tile list onto the SMs. */
struct ScheduleResult {
    double makespan = 0.0;          ///< kernel duration, microseconds
    double total_work = 0.0;        ///< sum of tile durations
    std::vector<double> sm_busy;    ///< per-SM busy time
    int64_t barriers = 0;           ///< synchronization barriers issued

    /** Mean busy fraction across SMs: total busy / (SMs * makespan). */
    double utilization() const;
};

/** Scheduler configuration. */
struct SchedulerConfig {
    int num_sms = 108;
    /** Task stealing splits each tile into this many sub-tiles. */
    int steal_split = 4;
    /** Fractional duration overhead added per extra sub-tile fragment
     * (covers the cross-SM reduction of partial accumulators). */
    double steal_overhead = 0.03;
};

/**
 * Compact description of a GEMM's tile grid in kernel issue order: the
 * k-tile precision pattern (k innermost) repeated once per (m, n) tile.
 * It describes exactly the tile list the tests' oracle materializes
 * when the precision block size equals tile_k.
 */
struct TileGrid {
    int64_t repeats = 0; ///< m_tiles * n_tiles
    std::vector<BlockPrecision> k_precisions; ///< one entry per k tile
    double int4_us = 0.0; ///< duration of an INT4 tile, microseconds
    double int8_us = 0.0; ///< duration of an INT8 tile, microseconds

    /** Logical tile count: repeats * k tiles. */
    int64_t
    tiles() const
    {
        return repeats * static_cast<int64_t>(k_precisions.size());
    }
};

/** Closed-form schedule of the tile grid under the given policy, in
 * O(num_sms + k tiles) time and memory. */
ScheduleResult scheduleTileGrid(const TileGrid &grid,
                                const SchedulerConfig &config,
                                SchedulingStrategy strategy);

} // namespace comet
