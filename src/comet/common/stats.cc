#include "comet/common/stats.h"

#include <algorithm>
#include <cmath>

#include "comet/common/status.h"

namespace comet {

void
StreamingStats::add(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

double
StreamingStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
StreamingStats::stddev() const
{
    return std::sqrt(variance());
}

double
StreamingStats::min() const
{
    COMET_CHECK_MSG(count_ > 0, "min() of an empty accumulator");
    return min_;
}

double
StreamingStats::max() const
{
    COMET_CHECK_MSG(count_ > 0, "max() of an empty accumulator");
    return max_;
}

void
StreamingStats::merge(const StreamingStats &other)
{
    if (&other == this) {
        // Self-merge: duplicating the stream keeps mean/min/max and
        // doubles count and the sum of squared deviations. Handled
        // explicitly — the aliased reads below only stay correct by
        // accident of evaluation order.
        count_ *= 2;
        m2_ *= 2.0;
        return;
    }
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto total =
        static_cast<double>(count_ + other.count_);
    m2_ += other.m2_ + delta * delta *
                           static_cast<double>(count_) *
                           static_cast<double>(other.count_) / total;
    mean_ += delta * static_cast<double>(other.count_) / total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
}

namespace {

/** Percentile of an already-sorted sample set. */
double
percentileOfSorted(const std::vector<double> &sorted, double p)
{
    COMET_CHECK(p >= 0.0 && p <= 100.0);
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

double
exactPercentile(std::vector<double> values, double p)
{
    COMET_CHECK(!values.empty());
    std::sort(values.begin(), values.end());
    return percentileOfSorted(values, p);
}

std::vector<double>
exactPercentiles(std::vector<double> values,
                 const std::vector<double> &ps)
{
    COMET_CHECK(!values.empty());
    std::sort(values.begin(), values.end());
    std::vector<double> out;
    out.reserve(ps.size());
    for (const double p : ps)
        out.push_back(percentileOfSorted(values, p));
    return out;
}

std::pair<double, double>
p50p99OrZero(const std::vector<double> &values)
{
    if (values.empty())
        return {0.0, 0.0};
    const std::vector<double> ps = exactPercentiles(values,
                                                    {50.0, 99.0});
    return {ps[0], ps[1]};
}

} // namespace comet
