#include "comet/gpusim/sm_scheduler.h"

#include <algorithm>
#include <numeric>

#include "comet/common/status.h"
#include "comet/obs/metrics.h"
#include "comet/obs/trace_session.h"

namespace comet {

const char *
schedulingStrategyName(SchedulingStrategy strategy)
{
    switch (strategy) {
      case SchedulingStrategy::kNaiveSync: return "naive-sync";
      case SchedulingStrategy::kBarrierMinimized: return "barrier-min";
      case SchedulingStrategy::kTileRemapping: return "tile-remap";
      case SchedulingStrategy::kTaskStealing: return "task-steal";
    }
    return "?";
}

double
ScheduleResult::utilization() const
{
    if (makespan <= 0.0 || sm_busy.empty())
        return 1.0;
    double busy = 0.0;
    for (double b : sm_busy)
        busy += b;
    return busy / (makespan * static_cast<double>(sm_busy.size()));
}

namespace {

/**
 * Tile decomposition / task stealing (Figure 8(e)): on top of the
 * remapped schedule, idle SMs steal fractions of the remaining tiles
 * near the kernel tail. Stealing is opportunistic — an SM only takes
 * work it would otherwise idle through — so it can only improve the
 * makespan; each stolen fragment pays a reduction overhead, and a
 * tile splits into at most steal_split fragments. @p max_tile is the
 * longest tile duration in the schedule.
 */
ScheduleResult
applyTaskStealing(ScheduleResult result, double max_tile, int num_sms,
                  int steal_split, double steal_overhead)
{
    // Work above the balanced waterline migrates to idle SMs,
    // inflated by the per-steal reduction overhead.
    const double target =
        result.total_work / static_cast<double>(num_sms);
    double transferred = 0.0;
    for (double busy : result.sm_busy)
        transferred += std::max(0.0, busy - target);

    const double inflated =
        result.total_work + transferred * steal_overhead;
    // A tile fragments at most steal_split ways, bounding how finely
    // the tail can be balanced.
    const double balanced = std::max(
        inflated / static_cast<double>(num_sms),
        max_tile / static_cast<double>(steal_split));
    if (balanced < result.makespan) {
        result.makespan = balanced;
        result.total_work = inflated;
        std::fill(result.sm_busy.begin(), result.sm_busy.end(),
                  inflated / static_cast<double>(num_sms));
    }
    return result;
}

/**
 * INT8 counts along cyclic walks of a k-tile precision pattern of
 * length K: int8Count(start, count) counts the INT8 entries among
 * residues start, start + step, start + 2 step, ... (mod K). Stepping
 * by `step` splits the residues into gcd(step, K) cycles of K / gcd
 * residues each; a prefix sum per cycle answers any walk in O(1) after
 * O(K) setup.
 */
class CyclicWalks
{
  public:
    CyclicWalks(const std::vector<BlockPrecision> &pattern, int64_t step)
        : k_(static_cast<int64_t>(pattern.size())),
          cycles_(std::gcd(step % k_, k_)), cycle_len_(k_ / cycles_),
          position_(static_cast<size_t>(k_)),
          prefix_(static_cast<size_t>(cycles_ * (cycle_len_ + 1)), 0)
    {
        for (int64_t c = 0; c < cycles_; ++c) {
            const size_t base = offset(c);
            int64_t residue = c;
            for (int64_t t = 0; t < cycle_len_; ++t) {
                const auto r = static_cast<size_t>(residue);
                const auto i = base + static_cast<size_t>(t);
                position_[r] = t;
                prefix_[i + 1] =
                    prefix_[i] +
                    (pattern[r] == BlockPrecision::kInt8 ? 1 : 0);
                residue = (residue + step) % k_;
            }
        }
    }

    int64_t
    int8Count(int64_t start, int64_t count) const
    {
        const int64_t residue = start % k_;
        const size_t base = offset(residue % cycles_);
        auto prefix = [&](int64_t i) {
            return prefix_[base + static_cast<size_t>(i)];
        };
        const int64_t begin = position_[static_cast<size_t>(residue)];
        const int64_t end = begin + count % cycle_len_;
        const int64_t whole = (count / cycle_len_) * prefix(cycle_len_);
        if (end <= cycle_len_)
            return whole + prefix(end) - prefix(begin);
        return whole + prefix(cycle_len_) - prefix(begin) +
               prefix(end - cycle_len_);
    }

  private:
    size_t
    offset(int64_t cycle) const
    {
        return static_cast<size_t>(cycle * (cycle_len_ + 1));
    }

    int64_t k_;
    int64_t cycles_;
    int64_t cycle_len_;
    /** Index of each residue within its cycle. */
    std::vector<int64_t> position_;
    /** Per cycle, cycle_len_ + 1 running INT8 counts. */
    std::vector<int64_t> prefix_;
};

/** Busy time of @p int4 INT4 tiles plus @p int8 INT8 tiles. */
double
busyTime(const TileGrid &grid, int64_t int4, int64_t int8)
{
    return static_cast<double>(int4) * grid.int4_us +
           static_cast<double>(int8) * grid.int8_us;
}

/** Longest duration among a set of tiles holding @p int4 INT4 and
 * @p int8 INT8 tiles (0 for an empty set). */
double
longestTile(const TileGrid &grid, int64_t int4, int64_t int8)
{
    double longest = 0.0;
    if (int4 > 0)
        longest = std::max(longest, grid.int4_us);
    if (int8 > 0)
        longest = std::max(longest, grid.int8_us);
    return longest;
}

double
maxBusy(const std::vector<double> &sm_busy)
{
    double makespan = 0.0;
    for (double busy : sm_busy)
        makespan = std::max(makespan, busy);
    return makespan;
}

/**
 * Cyclic binding (tile i -> SM i mod S, shared by naive-sync and
 * barrier-min): SM s runs tiles s, s + S, s + 2S, ..., whose k tiles
 * are the walk from residue s in steps of S.
 */
std::vector<double>
cyclicBusy(const TileGrid &grid, int num_sms)
{
    const int64_t tiles = grid.tiles();
    const CyclicWalks walks(grid.k_precisions, num_sms);
    std::vector<double> sm_busy(static_cast<size_t>(num_sms), 0.0);
    for (int64_t s = 0; s < std::min<int64_t>(num_sms, tiles); ++s) {
        const int64_t count = (tiles - 1 - s) / num_sms + 1;
        const int64_t int8 = walks.int8Count(s, count);
        sm_busy[static_cast<size_t>(s)] =
            busyTime(grid, count - int8, int8);
    }
    return sm_busy;
}

/**
 * Naive-sync makespan: wave w covers tiles [wS, wS + S), a window of S
 * consecutive k residues starting at wS mod K, and lasts as long as
 * its longest tile. Window starts repeat every K / gcd(S, K) waves, so
 * one period of full waves is classified and scaled; the partial last
 * wave is classified on its own.
 */
double
naiveSyncMakespan(const TileGrid &grid, int num_sms)
{
    const int64_t k = static_cast<int64_t>(grid.k_precisions.size());
    const int64_t tiles = grid.tiles();
    const int64_t full_waves = tiles / num_sms;
    const int64_t last_wave = tiles - full_waves * num_sms;

    const CyclicWalks windows(grid.k_precisions, 1);
    int64_t int4_waves = 0, int8_waves = 0;
    auto classify = [&](int64_t start, int64_t size, int64_t weight) {
        const int64_t int8 = windows.int8Count(start, size);
        const bool int8_longest =
            int8 > 0 && (int8 == size || grid.int8_us >= grid.int4_us);
        (int8_longest ? int8_waves : int4_waves) += weight;
    };
    const int64_t period = k / std::gcd(num_sms % k, k);
    const int64_t periods = full_waves / period;
    const int64_t extra = full_waves % period;
    int64_t start = 0;
    for (int64_t w = 0; w < std::min(full_waves, period); ++w) {
        classify(start, num_sms, periods + (w < extra ? 1 : 0));
        start = (start + num_sms) % k;
    }
    if (last_wave > 0)
        classify(full_waves * num_sms, last_wave, 1);
    return busyTime(grid, int4_waves, int8_waves);
}

} // namespace

ScheduleResult
scheduleTileGrid(const TileGrid &grid, const SchedulerConfig &config,
                 SchedulingStrategy strategy)
{
    COMET_SPAN("gpusim/schedule_tiles");
    static obs::Counter &tiles_counter =
        obs::MetricsRegistry::global().counter(
            "gpusim.tiles_scheduled");
    COMET_CHECK(config.num_sms > 0);
    COMET_CHECK(grid.repeats >= 0);
    COMET_CHECK(grid.int4_us >= 0.0 && grid.int8_us >= 0.0);
    const int64_t tiles = grid.tiles();
    tiles_counter.add(tiles);
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(config.num_sms), 0.0);
    if (tiles == 0)
        return result;

    const int num_sms = config.num_sms;
    const int64_t int8_per_repeat = std::count(
        grid.k_precisions.begin(), grid.k_precisions.end(),
        BlockPrecision::kInt8);
    const int64_t int8_total = grid.repeats * int8_per_repeat;
    const int64_t int4_total = tiles - int8_total;
    result.total_work = busyTime(grid, int4_total, int8_total);
    result.barriers = 1; // only the final pre-writeback barrier

    switch (strategy) {
      case SchedulingStrategy::kNaiveSync:
        result.sm_busy = cyclicBusy(grid, num_sms);
        result.makespan = naiveSyncMakespan(grid, num_sms);
        result.barriers = (tiles + num_sms - 1) / num_sms;
        return result;
      case SchedulingStrategy::kBarrierMinimized:
        result.sm_busy = cyclicBusy(grid, num_sms);
        result.makespan = maxBusy(result.sm_busy);
        return result;
      case SchedulingStrategy::kTileRemapping:
      case SchedulingStrategy::kTaskStealing: {
        // Each precision class is dealt round-robin on its own: SM s
        // gets floor(T_c / S) tiles of class c, plus one when
        // s < T_c mod S.
        for (int s = 0; s < num_sms; ++s) {
            const int64_t int4 = int4_total / num_sms +
                                 (s < int4_total % num_sms ? 1 : 0);
            const int64_t int8 = int8_total / num_sms +
                                 (s < int8_total % num_sms ? 1 : 0);
            result.sm_busy[static_cast<size_t>(s)] =
                busyTime(grid, int4, int8);
        }
        result.makespan = maxBusy(result.sm_busy);
        if (strategy == SchedulingStrategy::kTileRemapping)
            return result;
        COMET_CHECK(config.steal_split >= 1);
        return applyTaskStealing(
            std::move(result), longestTile(grid, int4_total, int8_total),
            num_sms, config.steal_split, config.steal_overhead);
      }
    }
    COMET_CHECK_MSG(false, "unknown scheduling strategy");
    return {};
}

} // namespace comet
