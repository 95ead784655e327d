/**
 * @file
 * Open-loop Poisson load generator for the online server.
 *
 * The generator pre-computes the whole workload from a seed — per
 * tenant, Poisson arrivals (exponential inter-arrival gaps) with
 * uniformly sampled prompt/output lengths — then drives a Server
 * from N concurrent client threads (driveLoadgenClients, the one
 * client drive cluster::runClusterLoadgen shares). Open loop:
 * arrival times never react to server progress, so overload shows
 * up as queueing/rejection rather than as a slowed-down generator.
 * Because arrivals are virtual-time stamps and the server is
 * deterministic under its conservative ingress gate, the resulting
 * per-tenant latency report is bit-identical for a fixed seed, any
 * thread interleaving, and either delivery mode (callbacks or
 * pull-iterators). A sampled single-tenant trace (generateTrace) is
 * just another workload: runLoadgen runs it on a one-tenant config,
 * and its per-request outcomes are the one latency record.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comet/common/status.h"
#include "comet/server/server.h"

namespace comet {
namespace server {

/** One tenant's synthetic workload. */
struct LoadgenTenant {
    /** Admission configuration (also registered with the server). */
    TenantConfig admission;
    /** Poisson arrival rate, requests per virtual second. */
    double arrival_rate_per_s = 10.0;
    /** Requests to generate for this tenant. */
    int64_t requests = 32;
    int64_t prompt_min = 64;   ///< prompt length range, inclusive
    int64_t prompt_max = 256;  ///< prompt length range, inclusive
    int64_t output_min = 8;    ///< actual (EOS) output range
    int64_t output_max = 64;   ///< also the declared max_tokens
    /**
     * Shared-prompt pools: when > 0, every request carries real
     * prompt content (StreamRequest::prompt_ids) whose first
     * prompt_min tokens are drawn from one of this many per-tenant
     * pool prompts, with a unique tail after — the redundancy of
     * real traffic (system prompts, replayed chat history) that the
     * prefix cache exists to exploit. 0 keeps requests content-free
     * (lengths only), exactly the pre-prefix-cache workload.
     */
    int64_t shared_prompt_pools = 0;
};

/** Load-generator parameters. */
struct LoadgenConfig {
    uint64_t seed = 42;   ///< workload seed (bit-stable reports)
    int clients = 4;      ///< concurrent client threads
    /** Deliver through per-request callbacks instead of pull-mode
     * streams (both produce identical reports). */
    bool callbacks = false;
    std::vector<LoadgenTenant> tenants; ///< the workload mix
};

/** One pre-generated request of the open-loop workload, before
 * stream ids are assigned (the request's index in the generated
 * vector becomes its id). */
struct LoadgenRequest {
    int tenant = 0;          ///< tenant index into the config
    double arrival_us = 0.0; ///< virtual arrival time
    int64_t prompt_tokens = 0;          ///< sampled prompt length
    int64_t declared_output_tokens = 0; ///< client-declared bound
    int64_t eos_output_tokens = 0;      ///< actual EOS position
    /** Virtual time the client abandons the request; 0 = never. The
     * driver clamps it to at least arrival_us (an earlier time
     * cancels the request as it arrives). */
    double cancel_at_us = 0.0;
    /** Prompt content (empty unless shared_prompt_pools > 0). */
    std::vector<int32_t> prompt_ids;
};

/** Parameters of a synthetic single-tenant Poisson trace. */
struct TraceConfig {
    double request_rate_per_s = 2.0; ///< Poisson arrival rate
    int num_requests = 64;           ///< trace length
    /** Mean lengths; samples are exponential around the means,
     * rounded and clamped to [16, 4 * mean]. @{ */
    int64_t mean_prompt_tokens = 512;
    int64_t mean_output_tokens = 128;
    /** @} */
    uint64_t seed = 1; ///< RNG seed (traces are deterministic)
};

/** What one request experienced, reduced from its stream events. */
struct RequestOutcome {
    int tenant = 0;              ///< tenant index
    double arrival_us = 0.0;     ///< virtual arrival time
    /** Replica the request was routed to (-1 when driven against a
     * single server, or when it never reached a replica). */
    int replica = -1;
    /** How the stream ended. */
    StreamEventKind terminal = StreamEventKind::kCancelled;
    RejectReason reason = RejectReason::kNone; ///< when rejected
    int64_t tokens = 0;          ///< tokens streamed
    double first_token_us = 0.0; ///< virtual time of token 0
    double last_token_us = 0.0;  ///< virtual time of the last token

    /** Time to first token (arrival -> token 0). */
    double ttftUs() const { return first_token_us - arrival_us; }

    /** Mean time per output token after the first; defined only
     * when tokens >= 2. */
    double
    tpotUs() const
    {
        return (last_token_us - first_token_us) /
               static_cast<double>(tokens - 1);
    }
};

/** Per-tenant latency/goodput aggregation. */
struct LoadgenTenantReport {
    std::string name;       ///< tenant name
    int64_t submitted = 0;  ///< requests submitted
    int64_t completed = 0;  ///< streams that ended kFinished
    int64_t rejected = 0;   ///< streams that ended kRejected
    int64_t cancelled = 0;  ///< streams that ended kCancelled
    int64_t tokens = 0;     ///< tokens streamed
    double ttft_p50_us = 0.0; ///< median time-to-first-token
    double ttft_p99_us = 0.0; ///< p99 time-to-first-token
    double tpot_p50_us = 0.0; ///< median time-per-output-token
    double tpot_p99_us = 0.0; ///< p99 time-per-output-token
    /** Completions that met every SLO the tenant configured — TTFT
     * and, when set, TPOT (all completions when no SLO is
     * configured; a completion too short to measure TPOT counts as
     * meeting it). */
    int64_t slo_met = 0;
    /** Completions with a measurable TPOT (>= 2 tokens). */
    int64_t tpot_measured = 0;
    /** TPOT-measurable completions that met the tenant's TPOT SLO
     * (all of them when no TPOT SLO is configured). */
    int64_t tpot_slo_met = 0;
    /** Tokens of SLO-meeting completions per virtual second. */
    double goodput_tokens_per_s = 0.0;
};

/** The full loadgen result. */
struct LoadgenReport {
    std::vector<LoadgenTenantReport> tenants; ///< per-tenant rows
    std::vector<RequestOutcome> outcomes; ///< per-request, id order
    double makespan_us = 0.0; ///< final virtual clock
    int64_t submitted = 0;    ///< total requests submitted
    int64_t completed = 0;    ///< total completions
    int64_t rejected = 0;     ///< total rejections observed
    int64_t cancelled = 0;    ///< total cancellations observed
    int64_t tokens = 0;       ///< total tokens streamed
};

/** The server tenant set a loadgen config implies (register these
 * when constructing the Server the generator will drive). */
std::vector<TenantConfig>
loadgenTenants(const LoadgenConfig &config);

/**
 * Pre-computes the whole workload from the config's seed, sorted by
 * (arrival, generation order). Pure function of the config: the
 * single-server driver (runLoadgen) and the cluster driver
 * (cluster::runClusterLoadgen) submit the identical request
 * sequence, which is what makes their token streams comparable.
 */
std::vector<LoadgenRequest>
generateLoadgenWorkload(const LoadgenConfig &config);

/**
 * Samples a trace (arrivals sorted by time) as tenant-0 requests
 * whose declared and EOS output lengths are both the sampled output.
 * Run it with runLoadgen on traceLoadgenConfig().
 */
std::vector<LoadgenRequest> generateTrace(const TraceConfig &config);

/** The one-tenant ("replay"), one-client, callback-mode config a
 * trace runs under. */
LoadgenConfig traceLoadgenConfig();

/**
 * The Server session a trace runs on: traceLoadgenConfig()'s tenant
 * with the engine's batch cap, KV admission policy and watermark, so
 * a trace sees the limits the engine's own scheduler would. Chunked
 * prefill stays off; callers set ServerConfig::chunked_prefill_tokens
 * (and step_token_budget) for it.
 */
ServerConfig traceServerConfig(const EngineConfig &engine);

/** Reduces one stream event into the outcome slot. Runs either on
 * the server loop thread (callback mode) or a client thread (pull
 * mode); each slot has exactly one writer at a time. */
void recordLoadgenEvent(RequestOutcome *outcome,
                        const StreamEvent &event);

/**
 * Aggregates recorded outcomes into the per-tenant report —
 * percentiles, SLO attainment, goodput. Takes ownership of
 * @p outcomes (they become LoadgenReport::outcomes). Deterministic:
 * a pure function of the outcome vector and @p makespan_us.
 */
LoadgenReport finalizeLoadgenReport(const LoadgenConfig &config,
                                    std::vector<RequestOutcome>
                                        outcomes,
                                    double makespan_us);

/**
 * A deterministic per-replica workload seed: folds @p replica into
 * @p seed with a SplitMix64 round so replica workloads are
 * uncorrelated but reproducible (replica 0 of a 4-replica run always
 * draws the same stream, on every platform). Used by benches that
 * drive per-replica single-server baselines next to a cluster run.
 */
uint64_t deriveReplicaSeed(uint64_t seed, int replica);

/**
 * The client side of a loadgen run, shared by every front end with
 * the Server client API (Server, cluster::ClusterRouter): runs
 * @p workload (generateLoadgenWorkload or generateTrace of the same
 * config's tenants), connects min(config.clients, requests) handles before
 * any submission (so each handle's ingress horizon gates the virtual
 * clock from the start), and runs one thread per handle. Thread c
 * submits workload entries c, c + clients, ... (round-robin over the
 * arrival-sorted workload keeps each handle's arrivals
 * nondecreasing, as the ingress contract requires), closes its
 * handle, then reads its streams back. Returns the recorded outcomes
 * in id order after @p frontend's drain() barrier, which also orders
 * callback-mode events (delivered on loop threads) before the
 * return. The front end must have been built with
 * loadgenTenants(config) and must not have had clients connected.
 */
template <typename Frontend>
std::vector<RequestOutcome>
driveLoadgenClients(Frontend *frontend, const LoadgenConfig &config,
                    const std::vector<LoadgenRequest> &workload)
{
    COMET_CHECK(frontend != nullptr);
    COMET_CHECK(config.clients > 0);
    COMET_CHECK(!config.tenants.empty());

    const size_t total = workload.size();
    std::vector<RequestOutcome> outcomes(total);
    for (size_t i = 0; i < total; ++i) {
        outcomes[i].tenant = workload[i].tenant;
        outcomes[i].arrival_us = workload[i].arrival_us;
    }

    const size_t clients =
        std::min(static_cast<size_t>(config.clients), total);
    std::vector<typename Frontend::Client> handles;
    for (size_t c = 0; c < clients; ++c)
        handles.push_back(frontend->connect());

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            typename Frontend::Client client = handles[c];
            std::vector<std::pair<size_t, TokenStreamPtr>> streams;
            for (size_t i = c; i < total; i += clients) {
                const LoadgenRequest &generated = workload[i];
                StreamRequest request;
                request.id = static_cast<int64_t>(i);
                request.tenant =
                    config.tenants[static_cast<size_t>(
                                       generated.tenant)]
                        .admission.name;
                request.prompt_tokens = generated.prompt_tokens;
                request.max_output_tokens =
                    generated.declared_output_tokens;
                request.eos_output_tokens =
                    generated.eos_output_tokens;
                request.arrival_us = generated.arrival_us;
                if (generated.cancel_at_us > 0.0) {
                    request.cancel_at_us = std::max(
                        generated.cancel_at_us, generated.arrival_us);
                }
                request.prompt_ids = generated.prompt_ids;
                RequestOutcome *outcome = &outcomes[i];
                if (config.callbacks) {
                    request.callback =
                        [outcome](const StreamEvent &event) {
                            recordLoadgenEvent(outcome, event);
                        };
                }
                TokenStreamPtr stream = client.submit(request);
                if (!config.callbacks)
                    streams.emplace_back(i, std::move(stream));
            }
            // Open loop: everything submitted; release the ingress
            // gate, then stream the responses back.
            client.close();
            for (auto &[index, stream] : streams) {
                StreamEvent event;
                while (stream->next(&event))
                    recordLoadgenEvent(&outcomes[index], event);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    frontend->drain();
    return outcomes;
}

/**
 * Runs @p workload against @p server through driveLoadgenClients
 * and aggregates the report, with the server's final virtual clock
 * as the makespan.
 */
LoadgenReport runLoadgen(Server *server, const LoadgenConfig &config,
                         const std::vector<LoadgenRequest> &workload);

/** runLoadgen on generateLoadgenWorkload(config). */
LoadgenReport runLoadgen(Server *server,
                         const LoadgenConfig &config);

/** Renders the per-tenant report as an aligned text table
 * (deterministic for a fixed seed — the bench diffs two runs). */
std::string renderLoadgenReport(const LoadgenReport &report);

/**
 * The canonical mixed SLO workload: one "longctx" ingestion tenant
 * whose multi-thousand-token prompts monopolize monolithic prefill
 * steps, plus two interactive chat tenants ("chat-a", "chat-b") with
 * tight TTFT/TPOT budgets — the scenario chunked prefill exists for
 * (DESIGN.md §14). Shared by bench_slo_attainment and the
 * chunked-prefill tests; @p smoke shrinks request counts for CI.
 */
LoadgenConfig mixedSloWorkload(uint64_t seed, bool smoke);

} // namespace server
} // namespace comet
