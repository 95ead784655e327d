/**
 * @file
 * Request-trace workloads and latency metrics for the serving engine.
 *
 * The paper's end-to-end numbers are steady-state max-throughput runs;
 * production serving additionally cares about time-to-first-token
 * (TTFT) and time-per-output-token (TPOT) under bursty arrivals — the
 * scheduling-integration direction Section 7 points at (Sarathi-Serve,
 * DistServe). This module adds that dimension: a Poisson arrival
 * generator with length distributions and percentile latency metrics.
 *
 * Traces run through server::replayTrace (server/loadgen.h), which
 * replays them as a one-tenant Server session — the same serving loop
 * the online path uses. Requests may carry a client-cancellation
 * deadline.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/common/rng.h"
#include "comet/obs/metrics.h"

namespace comet {

/** One request arrival in a workload trace. */
struct TracedRequest {
    int64_t id = 0;            ///< unique id within the trace
    double arrival_us = 0.0;   ///< absolute arrival time
    int64_t prompt_tokens = 0; ///< prompt length
    int64_t output_tokens = 0; ///< tokens generated before EOS
    /** When > 0, the client abandons the request at this absolute
     * time; the replay drops it (wherever it lives) and counts it. */
    double cancel_us = 0.0;
};

/** Parameters of the synthetic arrival process. */
struct TraceConfig {
    double request_rate_per_s = 2.0; ///< Poisson arrival rate
    int num_requests = 64;           ///< trace length
    /** Mean lengths; samples are geometric-ish around the means,
     * clamped to [16, 4 * mean]. @{ */
    int64_t mean_prompt_tokens = 512;
    int64_t mean_output_tokens = 128;
    /** @} */
    uint64_t seed = 1; ///< RNG seed (traces are deterministic)
};

/** Samples a trace (arrivals sorted by time). */
std::vector<TracedRequest> generateTrace(const TraceConfig &config);

/** Completed-request latency record. */
struct RequestLatency {
    int64_t id = 0;            ///< the completed request's id
    double ttft_us = 0.0;      ///< arrival -> first output token
    double tpot_us = 0.0;      ///< mean time per subsequent token
    double total_us = 0.0;     ///< arrival -> completion
    int64_t output_tokens = 0; ///< tokens actually generated
};

/** Aggregate latency metrics of a trace run. */
struct TraceMetrics {
    /** One latency record per completed request. */
    std::vector<RequestLatency> per_request;
    double makespan_us = 0.0; ///< first arrival -> last completion
    /** Generated tokens over the makespan. */
    double throughput_tokens_per_s = 0.0;
    /** Scheduling observability. @{ */
    int64_t preemptions = 0;       ///< KV-exhaustion evictions
    int64_t reprefill_tokens = 0;  ///< recompute cost of preemption
    int64_t cancelled = 0;         ///< client-abandoned requests
    int64_t rejected = 0;          ///< requests that can never fit
    int64_t peak_running = 0;      ///< max concurrent batch
    int64_t peak_used_blocks = 0;  ///< max KV blocks in use observed
    int64_t total_kv_blocks = 0;   ///< pool size the replay ran with
    /** Peak used/total KV blocks as a **fraction in [0, 1]** (never a
     * percent) — derived from peak_used_blocks / total_kv_blocks, the
     * same definition SchedulerCounters::peakKvUtilization uses, so
     * the two observability surfaces always agree on units. */
    double peak_kv_utilization = 0.0;
    /** @} */

    /** Percentile over per-request TTFT (p in [0, 100]); NaN when no
     * request completed. */
    double ttftPercentileUs(double p) const;

    /** Percentile over per-request TPOT; NaN when no request
     * completed. */
    double tpotPercentileUs(double p) const;

    /** Several TTFT percentiles at once: sorts the samples a single
     * time (exactPercentiles), element i exactly equal to
     * ttftPercentileUs(ps[i]). All NaN when no request completed. */
    std::vector<double>
    ttftPercentilesUs(const std::vector<double> &ps) const;

    /** Several TPOT percentiles at once; see ttftPercentilesUs. */
    std::vector<double>
    tpotPercentilesUs(const std::vector<double> &ps) const;

    /** SLO attainment: the fraction of completed requests whose TTFT
     * is within @p slo_us, in [0, 1]; NaN when no request completed
     * (mirrors the percentile helpers' empty-set convention). */
    double ttftAttainment(double slo_us) const;

    /** The fraction of completed requests (with >= 2 output tokens,
     * so a mean TPOT exists) whose TPOT is within @p slo_us; NaN
     * when none qualify. */
    double tpotAttainment(double slo_us) const;

    /** Adds the replay's scheduling counters into @p registry under
     * `serve.replay.*` so one dump covers both surfaces (counters are
     * monotonic: repeated replays accumulate). */
    void publishTo(obs::MetricsRegistry &registry) const;
};

/**
 * Merges per-replica trace metrics into one cluster-level rollup:
 * per-request records concatenate, the makespan is the max over
 * parts, throughput is recomputed from total generated tokens over
 * the merged makespan, scheduling counters and KV pool sizes sum,
 * per-replica peaks sum (an upper bound on the cluster-wide peak —
 * replicas do not share a pool, so simultaneous peaks add), and the
 * merged KV utilization is re-derived from the summed peak and pool.
 * An empty input merges to a default TraceMetrics.
 */
TraceMetrics
mergeTraceMetrics(const std::vector<TraceMetrics> &parts);

} // namespace comet
