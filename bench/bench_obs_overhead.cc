/**
 * @file
 * Proves the observability fast path is free enough to leave compiled
 * into hot code permanently. Three measurements:
 *
 *  1. Per-span disabled cost: a tight loop over COMET_SPAN with no
 *     session armed (one relaxed atomic load each), in ns/span.
 *  2. A fig10-smoke-like serving workload (trace replay through the
 *     full engine stack) timed with spans disabled vs enabled.
 *  3. The disabled-path overhead bound for that workload: spans
 *     crossed x per-span disabled cost, as a fraction of run time —
 *     the acceptance target is <= 1%.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_flags.h"
#include "comet/obs/trace_session.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

using namespace comet;

namespace {

double
nowMs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     epoch)
        .count();
}

/** The fig10-smoke-like workload: a bursty trace run on a Server
 * through the full engine stack (scheduler, KV cache, latency
 * model). */
void
runWorkload(const ServingEngine &engine,
            const std::vector<server::LoadgenRequest> &trace)
{
    const server::LoadgenConfig config = server::traceLoadgenConfig();
    server::Server server(&engine,
                          server::traceServerConfig(engine.config()));
    server::runLoadgen(&server, config, trace);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "Observability overhead micro: disabled-span cost and its "
        "bound on a fig10-smoke-like replay");

    // --- 1. per-span disabled cost -------------------------------
    obs::TraceSession::global().stop();
    obs::TraceSession::global().drain();
    constexpr int64_t kProbeIters = 20'000'000;
    const double probe_begin_ms = nowMs();
    for (int64_t i = 0; i < kProbeIters; ++i) {
        COMET_SPAN("overhead_probe");
        // Keep the compiler from folding iterations together.
        asm volatile("" ::: "memory");
    }
    const double probe_ms = nowMs() - probe_begin_ms;
    const double ns_per_span = probe_ms * 1e6 /
                               static_cast<double>(kProbeIters);
    std::printf("=== Observability overhead ===\n\n");
    std::printf("disabled COMET_SPAN fast path: %.2f ns/span "
                "(%lld iterations)\n\n",
                ns_per_span, static_cast<long long>(kProbeIters));

    // --- 2. fig10-smoke-like workload, disabled vs enabled -------
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 64;
    const ServingEngine engine(config);
    server::TraceConfig trace_config;
    trace_config.num_requests = 64;
    trace_config.request_rate_per_s = 200.0;
    trace_config.mean_prompt_tokens = 128;
    trace_config.mean_output_tokens = 64;
    const auto trace = server::generateTrace(trace_config);

    constexpr int kRepeats = 5;
    std::vector<double> disabled_ms, enabled_ms;
    int64_t spans_per_run = 0;
    runWorkload(engine, trace); // warm-up (page-in, allocator)
    for (int r = 0; r < kRepeats; ++r) {
        double begin = nowMs();
        runWorkload(engine, trace);
        disabled_ms.push_back(nowMs() - begin);

        obs::TraceSession::global().start();
        begin = nowMs();
        runWorkload(engine, trace);
        enabled_ms.push_back(nowMs() - begin);
        obs::TraceSession::global().stop();
        spans_per_run = static_cast<int64_t>(
            obs::TraceSession::global().drain().size());
    }
    const double disabled_median = median(disabled_ms);
    const double enabled_median = median(enabled_ms);
    std::printf("trace replay (64 requests, 128/64 tokens), median "
                "of %d:\n",
                kRepeats);
    std::printf("  spans disabled: %8.2f ms\n", disabled_median);
    std::printf("  spans enabled : %8.2f ms  (%+.1f%%, %lld spans "
                "recorded per run)\n\n",
                enabled_median,
                (enabled_median / disabled_median - 1.0) * 100.0,
                static_cast<long long>(spans_per_run));

    // --- 3. the disabled-path bound ------------------------------
    // Every span site crossed by the workload costs ns_per_span when
    // no session is armed; relative to the run itself that bound must
    // stay under 1% for instrumentation to live in hot paths.
    const double disabled_overhead_pct =
        static_cast<double>(spans_per_run) * ns_per_span /
        (disabled_median * 1e6) * 100.0;
    std::printf("disabled-path overhead bound: %lld span sites x "
                "%.2f ns = %.4f%% of the run (target <= 1%%) -> %s\n",
                static_cast<long long>(spans_per_run), ns_per_span,
                disabled_overhead_pct,
                disabled_overhead_pct <= 1.0 ? "PASS" : "FAIL");
    return disabled_overhead_pct <= 1.0 ? 0 : 1;
}
