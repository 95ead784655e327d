/**
 * @file
 * Streaming statistics accumulators.
 *
 * Used by the serving-trace metrics and available to downstream users:
 * Welford mean/variance in one pass, plus an exact small-sample
 * percentile helper shared by the latency reports.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace comet {

/**
 * One-pass mean/variance/min/max accumulator (Welford's algorithm —
 * numerically stable for long streams).
 */
class StreamingStats
{
  public:
    /** Feeds one sample. */
    void add(double value);

    int64_t count() const { return count_; }
    double mean() const { return mean_; }

    /** Sample variance (n-1 denominator); 0 with fewer than two
     * samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    double min() const;
    double max() const;

    /** Merges another accumulator (parallel reduction). */
    void merge(const StreamingStats &other);

  private:
    int64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Exact percentile of a sample set with linear interpolation between
 * order statistics (the definition used by the latency reports).
 * @pre !values.empty(), 0 <= p <= 100.
 */
double exactPercentile(std::vector<double> values, double p);

/**
 * Exact percentiles of several quantiles over one sample set: sorts
 * once and evaluates every entry of @p ps against the sorted order
 * statistics. Element i equals exactPercentile(values, ps[i]) exactly;
 * report paths that need p50/p95/p99 of the same samples should use
 * this instead of re-sorting per quantile.
 * @pre !values.empty(), every p in [0, 100].
 */
std::vector<double> exactPercentiles(std::vector<double> values,
                                     const std::vector<double> &ps);

/** {p50, p99} of one latency series, sorted once; {0, 0} when
 * empty. */
std::pair<double, double>
p50p99OrZero(const std::vector<double> &values);

} // namespace comet
