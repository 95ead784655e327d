/**
 * @file
 * A sampled trace run as a loadgen session on a fresh Server, with
 * what the session counted — the shape the trace and observability
 * tests read their latency, preemption and KV numbers from.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {

/** One trace run: the loadgen report plus the session's counters. */
struct TraceRun {
    server::LoadgenReport report;
    server::ServerStats stats;
    SchedulerCounters counters;
    int64_t kv_total_blocks = 0;

    /** The only tenant's report row. */
    const server::LoadgenTenantReport &
    row() const
    {
        return report.tenants[0];
    }

    /** Streamed tokens per virtual second over the makespan. */
    double
    throughputTokensPerS() const
    {
        return static_cast<double>(report.tokens) /
               (report.makespan_us * 1e-6);
    }

    /** TTFT of every completed request, in id order. */
    std::vector<double>
    ttftsUs() const
    {
        std::vector<double> values;
        for (const server::RequestOutcome &outcome : report.outcomes) {
            if (outcome.terminal == server::StreamEventKind::kFinished)
                values.push_back(outcome.ttftUs());
        }
        return values;
    }

    /** TPOT of every completed request with >= 2 tokens. */
    std::vector<double>
    tpotsUs() const
    {
        std::vector<double> values;
        for (const server::RequestOutcome &outcome : report.outcomes) {
            if (outcome.terminal == server::StreamEventKind::kFinished &&
                outcome.tokens > 1)
                values.push_back(outcome.tpotUs());
        }
        return values;
    }
};

/**
 * Runs @p trace (generateTrace's requests) through runLoadgen on a
 * Server built by traceServerConfig; @p chunk_tokens > 0 turns on
 * chunked prefill with the same per-step token budget.
 */
inline TraceRun
runTrace(const ServingEngine &engine,
         const std::vector<server::LoadgenRequest> &trace,
         int64_t chunk_tokens = 0)
{
    const server::LoadgenConfig config = server::traceLoadgenConfig();
    server::ServerConfig server_config =
        server::traceServerConfig(engine.config());
    server_config.chunked_prefill_tokens = chunk_tokens;
    server_config.step_token_budget = chunk_tokens;
    server::Server server(&engine, server_config);
    TraceRun run;
    run.report = server::runLoadgen(&server, config, trace);
    run.stats = server.stats();
    run.counters = server.schedulerCounters();
    run.kv_total_blocks = server.kvTotalBlocks();
    return run;
}

} // namespace comet
