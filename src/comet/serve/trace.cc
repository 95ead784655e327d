#include "comet/serve/trace.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "comet/common/stats.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"

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
        merged.peak_queue_depth += part.peak_queue_depth;
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

TraceMetrics
replayTrace(const ServingEngine &engine,
            const std::vector<TracedRequest> &trace)
{
    COMET_CHECK(!trace.empty());
    // `COMET_TRACE=<out.json>` turns any replay into a span trace,
    // no matter which binary hosts it (one-shot, then free).
    obs::configureFromEnv();
    COMET_SPAN("replay");
    const EngineConfig &config = engine.config();
    const ServingPrecision precision =
        servingPrecision(config.mode);
    const int64_t chunk = config.chunked_prefill_tokens;
    const bool reserve_full =
        config.admission == AdmissionPolicy::kReserveFullOutput;

    KvCacheConfig cache_config;
    cache_config.bits_per_value = precision.kv_bits;
    cache_config.block_tokens = config.kv_block_tokens;
    cache_config.memory_budget_bytes =
        std::max(engine.kvPoolBytes(), 1.0);
    PagedKvCache cache(config.model, cache_config);

    /** A queued request: fresh from the trace, or preempted and
     * waiting to re-prefill its grown context. */
    struct Pending {
        TracedRequest request;
        int64_t generated = 0; ///< tokens generated before preemption
        double first_token_us = 0.0;
    };

    struct Running {
        TracedRequest request;
        /** Tokens this admission must (re)prefill: the prompt plus
         * whatever the request had generated before a preemption. */
        int64_t prefill_target = 0;
        int64_t prefilled = 0;
        int64_t generated = 0;
        double first_token_us = 0.0;

        bool
        decoding() const
        {
            return prefilled >= prefill_target;
        }
    };

    std::deque<Pending> pending;
    for (const TracedRequest &request : trace)
        pending.push_back({request, 0, 0.0});
    std::vector<Running> running;
    TraceMetrics metrics;
    double clock_us = 0.0;
    int64_t generated_total = 0;

    const auto notePeaks = [&] {
        metrics.peak_running =
            std::max(metrics.peak_running,
                     static_cast<int64_t>(running.size()));
        int64_t waiting = 0;
        for (const Pending &p : pending) {
            if (p.request.arrival_us <= clock_us)
                ++waiting;
        }
        metrics.peak_queue_depth =
            std::max(metrics.peak_queue_depth, waiting);
        // Track the peak in blocks; the fraction is derived once at
        // the end so it is structurally the same used/total ratio
        // SchedulerCounters::peakKvUtilization reports.
        metrics.peak_used_blocks =
            std::max(metrics.peak_used_blocks,
                     cache.totalBlocks() - cache.freeBlocks());
    };

    const auto finishRequest = [&](const Running &r) {
        cache.removeSequence(r.request.id);
        RequestLatency latency;
        latency.id = r.request.id;
        latency.output_tokens = r.generated;
        latency.ttft_us = r.first_token_us - r.request.arrival_us;
        latency.total_us = clock_us - r.request.arrival_us;
        latency.tpot_us =
            r.generated > 1
                ? (clock_us - r.first_token_us) /
                      static_cast<double>(r.generated - 1)
                : 0.0;
        metrics.per_request.push_back(latency);
    };

    /** Evicts the latest-arrived running request back to the queue
     * head (recompute-style preemption). */
    const auto preemptBack = [&] {
        COMET_SPAN("replay/preempt");
        COMET_CHECK(!running.empty());
        const Running victim = running.back();
        running.pop_back();
        cache.removeSequence(victim.request.id);
        ++metrics.preemptions;
        metrics.reprefill_tokens +=
            victim.request.prompt_tokens + victim.generated;
        // running is in arrival order and victims are taken latest
        // first, so push_front restores FCFS order.
        pending.push_front({victim.request, victim.generated,
                            victim.first_token_us});
    };

    while (!pending.empty() || !running.empty()) {
        COMET_SPAN("replay/step");
        // Client cancellations: drop abandoned requests wherever
        // they live, releasing any KV blocks they hold.
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->request.cancel_us > 0.0 &&
                it->request.cancel_us <= clock_us) {
                ++metrics.cancelled;
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
        for (auto it = running.begin(); it != running.end();) {
            if (it->request.cancel_us > 0.0 &&
                it->request.cancel_us <= clock_us) {
                cache.removeSequence(it->request.id);
                ++metrics.cancelled;
                it = running.erase(it);
            } else {
                ++it;
            }
        }
        if (pending.empty() && running.empty())
            break;

        // Admit arrived requests while capacity lasts (FCFS,
        // honoring the engine's admission policy).
        int64_t reserved = 0;
        if (reserve_full) {
            for (const Running &r : running) {
                reserved +=
                    cache.blocksForTokens(r.request.prompt_tokens +
                                          r.request.output_tokens) -
                    cache.blocksForTokens(
                        cache.sequenceTokens(r.request.id));
            }
        }
        int64_t admitted = 0;
        std::vector<int64_t> admitted_prefill_tokens;
        {
        COMET_SPAN("replay/admit");
        while (!pending.empty() &&
               pending.front().request.arrival_us <= clock_us &&
               static_cast<int64_t>(running.size()) <
                   config.max_batch) {
            const Pending &head = pending.front();
            const int64_t full_need = cache.blocksForTokens(
                head.request.prompt_tokens +
                head.request.output_tokens);
            // Graceful degradation: a request that cannot fit even
            // alone is dropped, not left to block the queue forever.
            if (full_need > cache.totalBlocks()) {
                ++metrics.rejected;
                pending.pop_front();
                continue;
            }
            const int64_t target =
                head.request.prompt_tokens + head.generated;
            bool fits;
            if (reserve_full) {
                fits = full_need + reserved <= cache.freeBlocks();
                if (fits) {
                    reserved +=
                        full_need - cache.blocksForTokens(target);
                }
            } else {
                // The watermark holds decode headroom, but must not
                // starve an empty system.
                const int64_t slack =
                    running.empty() ? 0
                                    : config.kv_watermark_blocks;
                fits = cache.blocksForTokens(target) + slack <=
                       cache.freeBlocks();
            }
            if (!fits)
                break;
            COMET_CHECK(
                cache.addSequence(head.request.id, target).isOk());
            Running r;
            r.request = head.request;
            r.prefill_target = target;
            r.generated = head.generated;
            r.first_token_us = head.first_token_us;
            // Non-chunked mode: the whole context is processed as
            // one blocking prefill at admission.
            if (chunk <= 0) {
                r.prefilled = target;
                admitted_prefill_tokens.push_back(target);
            }
            running.push_back(r);
            pending.pop_front();
            ++admitted;
        }
        } // replay/admit
        if (admitted > 0 && chunk <= 0) {
            COMET_SPAN("replay/prefill");
            // Charge the wave's actual (re)prefill token counts, not
            // the engine's configured workload shape.
            clock_us +=
                engine.prefillLatencyUs(admitted_prefill_tokens);
            // The prefill's own forward pass produces each admitted
            // request's next output token — no extra decode step.
            std::vector<Running> still_running;
            still_running.reserve(running.size());
            for (size_t i = 0; i < running.size(); ++i) {
                Running &r = running[i];
                const bool fresh =
                    i >= running.size() -
                             static_cast<size_t>(admitted);
                if (!fresh) {
                    still_running.push_back(std::move(r));
                    continue;
                }
                ++r.generated;
                ++generated_total;
                if (r.generated == 1)
                    r.first_token_us = clock_us;
                if (r.generated >= r.request.output_tokens)
                    finishRequest(r);
                else
                    still_running.push_back(std::move(r));
            }
            running = std::move(still_running);
        }
        notePeaks();

        if (running.empty()) {
            // Idle until the next arrival (pending may have drained
            // through cancellation or rejection).
            if (pending.empty())
                break;
            clock_us = std::max(
                clock_us, pending.front().request.arrival_us);
            continue;
        }

        // --- One fused iteration ---
        // Decode tokens for every decoding request, plus (in chunked
        // mode) a budget of prompt tokens taken FCFS from prefilling
        // requests and piggybacked onto the same GEMM launches.
        COMET_SPAN("replay/decode");
        int64_t decode_batch = 0;
        double context_sum = 0.0;
        for (const Running &r : running) {
            if (r.decoding()) {
                ++decode_batch;
                context_sum += static_cast<double>(
                    r.request.prompt_tokens + r.generated);
            }
        }
        int64_t chunk_tokens = 0;
        double chunk_attention_us = 0.0;
        if (chunk > 0) {
            int64_t budget = chunk;
            for (Running &r : running) {
                if (budget <= 0)
                    break;
                if (r.decoding())
                    continue;
                const int64_t take = std::min(
                    budget, r.prefill_target - r.prefilled);
                r.prefilled += take;
                budget -= take;
                chunk_tokens += take;
                // The chunk attends over this request's growing
                // prefix (memory-bound read of its partial cache).
                chunk_attention_us += engine.attentionLatencyUs(
                    1, std::max<int64_t>(r.prefilled, 1));
            }
        }

        double step_us = 0.0;
        const int64_t gemm_tokens = decode_batch + chunk_tokens;
        if (gemm_tokens > 0)
            step_us += engine.stepGemmLatencyUs(gemm_tokens);
        if (decode_batch > 0) {
            step_us += engine.attentionLatencyUs(
                decode_batch,
                static_cast<int64_t>(
                    context_sum /
                    static_cast<double>(decode_batch)));
        }
        step_us += chunk_attention_us;
        if (gemm_tokens == 0) {
            // Nothing to do (should not happen, defensive).
            clock_us += 1.0;
            continue;
        }
        clock_us += step_us;

        // Advance decoding requests by one token each; on KV
        // exhaustion, preempt the latest-arrived requests (not yet
        // stepped this iteration) instead of aborting.
        std::vector<Running> still_running;
        still_running.reserve(running.size());
        size_t i = 0;
        while (i < running.size()) {
            Running &r = running[i];
            if (!r.decoding()) {
                still_running.push_back(std::move(r));
                ++i;
                continue;
            }
            Status status = cache.appendToken(r.request.id);
            while (status.code() ==
                       StatusCode::kResourceExhausted &&
                   running.size() > i + 1) {
                preemptBack();
                status = cache.appendToken(r.request.id);
            }
            if (status.code() == StatusCode::kResourceExhausted) {
                // This request is the latest survivor; yield it too
                // and let the already-stepped ones retire first.
                preemptBack(); // running[i] is the back here
                break;
            }
            COMET_CHECK_MSG(status.isOk(),
                            status.message().c_str());
            ++r.generated;
            ++generated_total;
            if (r.generated == 1)
                r.first_token_us = clock_us;
            if (r.generated >= r.request.output_tokens)
                finishRequest(r);
            else
                still_running.push_back(std::move(r));
            ++i;
        }
        running = std::move(still_running);
        notePeaks();
    }

    metrics.makespan_us = clock_us;
    metrics.throughput_tokens_per_s =
        clock_us > 0.0 ? static_cast<double>(generated_total) /
                             (clock_us * 1e-6)
                       : 0.0;
    metrics.total_kv_blocks = cache.totalBlocks();
    // The one place the fraction is computed (units: [0, 1], the
    // SchedulerCounters::peakKvUtilization definition).
    metrics.peak_kv_utilization =
        metrics.total_kv_blocks > 0
            ? static_cast<double>(metrics.peak_used_blocks) /
                  static_cast<double>(metrics.total_kv_blocks)
            : 0.0;
    metrics.publishTo(obs::MetricsRegistry::global());
    return metrics;
}

} // namespace comet
