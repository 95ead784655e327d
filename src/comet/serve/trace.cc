#include "comet/serve/trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comet/common/stats.h"
#include "comet/common/status.h"

namespace comet {

namespace {

/** Geometric-ish length around a mean, clamped to [16, 4 * mean]. */
int64_t
sampleLength(Rng &rng, int64_t mean)
{
    const double u = std::max(rng.uniform(), 1e-12);
    const double value = -std::log(u) * static_cast<double>(mean);
    // Round to nearest: truncation would bias sampled lengths low.
    return std::clamp<int64_t>(std::llround(value), 16, 4 * mean);
}

double
percentileOrNan(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return exactPercentile(std::move(values), p);
}

/** Multi-quantile variant: sorts the samples once. */
std::vector<double>
percentilesOrNan(std::vector<double> values,
                 const std::vector<double> &ps)
{
    if (values.empty()) {
        return std::vector<double>(
            ps.size(), std::numeric_limits<double>::quiet_NaN());
    }
    return exactPercentiles(std::move(values), ps);
}

} // namespace

std::vector<TracedRequest>
generateTrace(const TraceConfig &config)
{
    COMET_CHECK(config.request_rate_per_s > 0.0);
    COMET_CHECK(config.num_requests > 0);
    Rng rng(config.seed);
    std::vector<TracedRequest> trace;
    trace.reserve(static_cast<size_t>(config.num_requests));
    double clock_us = 0.0;
    for (int i = 0; i < config.num_requests; ++i) {
        // Exponential inter-arrival gaps (Poisson process).
        const double u = std::max(rng.uniform(), 1e-12);
        clock_us += -std::log(u) / config.request_rate_per_s * 1e6;
        TracedRequest request;
        request.id = i;
        request.arrival_us = clock_us;
        request.prompt_tokens =
            sampleLength(rng, config.mean_prompt_tokens);
        request.output_tokens =
            sampleLength(rng, config.mean_output_tokens);
        trace.push_back(request);
    }
    return trace;
}

double
TraceMetrics::ttftPercentileUs(double p) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.ttft_us);
    return percentileOrNan(std::move(values), p);
}

double
TraceMetrics::tpotPercentileUs(double p) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.tpot_us);
    return percentileOrNan(std::move(values), p);
}

std::vector<double>
TraceMetrics::ttftPercentilesUs(const std::vector<double> &ps) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.ttft_us);
    return percentilesOrNan(std::move(values), ps);
}

std::vector<double>
TraceMetrics::tpotPercentilesUs(const std::vector<double> &ps) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.tpot_us);
    return percentilesOrNan(std::move(values), ps);
}

double
TraceMetrics::ttftAttainment(double slo_us) const
{
    if (per_request.empty())
        return std::numeric_limits<double>::quiet_NaN();
    int64_t met = 0;
    for (const RequestLatency &latency : per_request) {
        if (latency.ttft_us <= slo_us)
            ++met;
    }
    return static_cast<double>(met) /
           static_cast<double>(per_request.size());
}

double
TraceMetrics::tpotAttainment(double slo_us) const
{
    int64_t eligible = 0;
    int64_t met = 0;
    for (const RequestLatency &latency : per_request) {
        if (latency.output_tokens < 2)
            continue;
        ++eligible;
        if (latency.tpot_us <= slo_us)
            ++met;
    }
    if (eligible == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(met) /
           static_cast<double>(eligible);
}

void
TraceMetrics::publishTo(obs::MetricsRegistry &registry) const
{
    registry.counter("serve.replay.completed")
        .add(static_cast<int64_t>(per_request.size()));
    registry.counter("serve.replay.preemptions").add(preemptions);
    registry.counter("serve.replay.reprefill_tokens")
        .add(reprefill_tokens);
    registry.counter("serve.replay.cancelled").add(cancelled);
    registry.counter("serve.replay.rejected").add(rejected);
}

TraceMetrics
mergeTraceMetrics(const std::vector<TraceMetrics> &parts)
{
    TraceMetrics merged;
    int64_t tokens = 0;
    for (const TraceMetrics &part : parts) {
        merged.per_request.insert(merged.per_request.end(),
                                  part.per_request.begin(),
                                  part.per_request.end());
        merged.makespan_us =
            std::max(merged.makespan_us, part.makespan_us);
        for (const RequestLatency &latency : part.per_request)
            tokens += latency.output_tokens;
        merged.preemptions += part.preemptions;
        merged.reprefill_tokens += part.reprefill_tokens;
        merged.cancelled += part.cancelled;
        merged.rejected += part.rejected;
        merged.peak_running += part.peak_running;
        merged.peak_used_blocks += part.peak_used_blocks;
        merged.total_kv_blocks += part.total_kv_blocks;
    }
    if (merged.makespan_us > 0.0)
        merged.throughput_tokens_per_s =
            static_cast<double>(tokens) /
            (merged.makespan_us * 1e-6);
    if (merged.total_kv_blocks > 0)
        merged.peak_kv_utilization =
            static_cast<double>(merged.peak_used_blocks) /
            static_cast<double>(merged.total_kv_blocks);
    return merged;
}

} // namespace comet
