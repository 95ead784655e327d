/**
 * @file
 * Named monotonic counters and fixed-bucket histograms.
 *
 * The registry is the one place observability numbers accumulate:
 * scheduler/engine counters, thread-pool steal counts, per-tile kernel
 * tallies and warning-level log records all land here instead of each
 * subsystem growing its own ad-hoc struct fields. Counters are single
 * relaxed atomic adds, cheap enough for kernel inner loops; histograms
 * add one binary search over their (immutable) bucket bounds.
 *
 * References returned by the registry stay valid for the process
 * lifetime — hot paths look a counter up once (function-local static)
 * and keep the reference. reset() zeroes values but never invalidates
 * references, so one process can run several measurement sessions
 * (repeated bench runs, test fixtures) from a clean slate.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace comet {
namespace obs {

/** A monotonic, thread-safe counter. */
class Counter
{
  public:
    /** Adds @p n (relaxed atomic; safe from any thread). */
    void
    add(int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current value. */
    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zeroes the counter (tests only; the counter stays registered). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * A thread-safe histogram over fixed, sorted bucket upper bounds.
 *
 * A sample lands in the first bucket whose upper bound is >= the
 * value; samples above the last bound land in the implicit overflow
 * bucket. Bounds are fixed at registration so observe() needs no
 * locking — one binary search plus two relaxed atomic adds.
 */
class Histogram
{
  public:
    /** Creates a histogram with ascending @p upper_bounds (at least
     * one bound; an overflow bucket is added implicitly). */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Records one sample. Thread-safe. */
    void observe(double value);

    /** Total samples recorded. */
    int64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Sum of all recorded samples. */
    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Samples in bucket @p bucket (the last index is overflow). */
    int64_t bucketCount(size_t bucket) const;

    /** The registered upper bounds (overflow bucket not included). */
    const std::vector<double> &upperBounds() const { return bounds_; }

    /** Number of buckets including the overflow bucket. */
    size_t numBuckets() const { return bounds_.size() + 1; }

    /** Zeroes all buckets (tests only). */
    void reset();

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<int64_t>[]> buckets_;
    std::atomic<int64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * The process-wide registry of named counters and histograms.
 *
 * Registration (first lookup of a name) takes a mutex; subsequent use
 * of the returned reference is lock-free. Names are dotted paths by
 * convention (`subsystem.metric`, e.g. `runtime.chunks_stolen`).
 */
class MetricsRegistry
{
  public:
    /** The global registry instance. */
    static MetricsRegistry &global();

    /** Returns the counter named @p name, creating it on first use.
     * The reference stays valid for the process lifetime. */
    Counter &counter(const std::string &name);

    /** Returns the histogram named @p name, creating it with
     * @p upper_bounds on first use (later calls ignore the bounds
     * argument and return the registered instance). */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds);

    /** Current value of counter @p name, or 0 when not registered
     * (convenient for tests and dump consumers). */
    int64_t counterValue(const std::string &name) const;

    /** Writes every metric as `name value` text lines, sorted by
     * name; histograms print count/sum plus per-bucket lines. */
    void dumpText(std::ostream &out) const;

    /** Returns all metrics as a JSON object:
     * `{"counters": {...}, "histograms": {...}}`. */
    std::string dumpJson() const;

    /**
     * Zeroes every registered metric without invalidating any
     * reference handed out earlier. The supported way to start a
     * fresh measurement session inside one process: test fixtures
     * call it in SetUp so counters never leak across tests, and
     * repeated bench runs call it between sessions so back-to-back
     * reports stay comparable.
     */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace obs
} // namespace comet
