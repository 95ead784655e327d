#include "comet/chaos/harness.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "comet/chaos/failpoint.h"
#include "comet/chaos/invariants.h"
#include "comet/common/rng.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"

namespace comet {
namespace chaos {

namespace {

using server::RejectReason;
using server::Server;
using server::StreamEvent;
using server::StreamEventKind;
using server::StreamRequest;
using server::TenantConfig;
using server::TokenStreamPtr;

/** The small, KV-bound engine every chaos run serves against: 256
 * pages make exhaustion, preemption and queueing routine at the
 * script's request sizes. The pool is pinned to the same 256 blocks
 * at every tensor-parallel degree, so TP changes only step latency —
 * admission capacity (and the replay's cross-thread determinism)
 * must not move. Streams can still differ from TP=1 where scripts
 * carry time-triggered cancels: the virtual clock runs at a
 * different rate. */
EngineConfig
chaosEngineConfig(int tp_degree = 1)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    config.tensor_parallel = tp_degree;
    return engineConfigWithKvBlocks(config, 256);
}

/** Tokens a finished stream must have delivered. */
int64_t
stopTokens(const ChaosStep &step)
{
    return step.eos_output_tokens > 0 ? step.eos_output_tokens
                                      : step.max_output_tokens;
}

/** The first @p tokens ids of the stream @p seed seeds — the prompt
 * content a non-zero ChaosStep::prompt_seed stands for. */
std::vector<int32_t>
promptFromSeed(uint64_t seed, int64_t tokens)
{
    Rng rng(seed);
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(tokens));
    for (int64_t i = 0; i < tokens; ++i)
        ids.push_back(static_cast<int32_t>(rng.uniformInt(32000)));
    return ids;
}

std::string
format(const char *fmt, long long a, long long b)
{
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer), fmt, a, b);
    return buffer;
}

/** The per-server config of every chaos run, single server or
 * replica: the script's tenants (defaultChaosTenants() when empty), a
 * batch of 8, the script's chunk size, and with the prefix mode the
 * cache on and every tenant opted in. */
server::ServerConfig
chaosServerConfig(const ChaosScriptConfig &config)
{
    server::ServerConfig server_config;
    server_config.tenants = config.tenants.empty()
                                ? defaultChaosTenants()
                                : config.tenants;
    server_config.max_batch = 8;
    server_config.chunked_prefill_tokens = config.chunk_tokens;
    if (config.prefix) {
        server_config.enable_prefix_cache = true;
        for (TenantConfig &tenant : server_config.tenants)
            tenant.prefix_caching = true;
    }
    return server_config;
}

/** The request a kSubmit step stands for. */
StreamRequest
chaosRequest(const ChaosStep &step,
             const std::vector<TenantConfig> &tenants)
{
    StreamRequest request;
    request.id = step.id;
    request.tenant =
        tenants[static_cast<size_t>(step.tenant) % tenants.size()]
            .name;
    request.prompt_tokens = step.prompt_tokens;
    request.max_output_tokens = step.max_output_tokens;
    request.eos_output_tokens = step.eos_output_tokens;
    request.arrival_us = step.time_us;
    request.cancel_at_us = step.cancel_at_us;
    if (step.prompt_seed != 0)
        request.prompt_ids =
            promptFromSeed(step.prompt_seed, step.prompt_tokens);
    return request;
}

/** A submitted script step and the stream it opened. */
struct Submitted {
    const ChaosStep *step;
    TokenStreamPtr stream;
};

/**
 * The script drive both runners share, over any front end with the
 * Server client API (Server, cluster::ClusterRouter): connects
 * config.clients handles, replays @p script through them, checks
 * after every step that the published clock (@p clock_name in the
 * failure) never runs backwards, then closes every handle and
 * drains. Never blocks on a stream: submissions are non-blocking and
 * pull-mode streams buffer, so consumption waits until after the
 * drain — a mid-script blocking read could deadlock against the
 * ingress gate (the loop may be waiting on this thread's future
 * submissions).
 */
template <typename Frontend>
std::vector<Submitted>
driveChaosScript(Frontend *frontend, const std::vector<ChaosStep> &script,
                 const ChaosScriptConfig &config,
                 const std::vector<TenantConfig> &tenants,
                 const char *clock_name, ChaosRunVerdict *verdict)
{
    std::vector<typename Frontend::Client> clients;
    clients.reserve(static_cast<size_t>(config.clients));
    for (int c = 0; c < config.clients; ++c)
        clients.push_back(frontend->connect());

    std::vector<Submitted> submitted;
    double watermark_us = 0.0;
    for (const ChaosStep &step : script) {
        const size_t slot = static_cast<size_t>(step.client);
        if (slot >= clients.size()) {
            verdict->fail("script step references an unconnected "
                          "client slot");
            break;
        }
        switch (step.kind) {
          case ChaosStepKind::kSubmit:
            submitted.push_back(
                {&step, clients[slot].submit(chaosRequest(step, tenants))});
            break;
          case ChaosStepKind::kAdvance:
            clients[slot].advanceTo(step.time_us);
            break;
          case ChaosStepKind::kReconnect:
            clients[slot].close();
            clients[slot] = frontend->connect();
            break;
        }
        // The published clock must never run backwards, no matter
        // how the loop interleaves with this thread.
        const double clock_us = frontend->virtualClockUs();
        if (clock_us < watermark_us) {
            verdict->fail(std::string("published ") + clock_name +
                          " ran backwards");
        }
        watermark_us = std::max(watermark_us, clock_us);
    }
    for (typename Frontend::Client &client : clients)
        client.close();
    frontend->drain();
    return submitted;
}

/** What the drained streams hold, summed over every submission. */
struct StreamTally {
    int64_t tokens = 0;    ///< token events delivered
    int64_t completed = 0; ///< streams ended kFinished
    int64_t rejected = 0;  ///< streams ended kRejected
    int64_t cancelled = 0; ///< streams ended kCancelled
};

/**
 * The post-drain per-stream audit both runners share: every stream's
 * event shape (contiguous token indices, monotone timestamps, exactly
 * one terminal event, the right token count for its verdict), and
 * every submission ending exactly once. Appends each non-abandoned
 * stream's events to the verdict's event log, in submission order.
 */
StreamTally
auditStreams(const std::vector<Submitted> &submitted,
             ChaosRunVerdict *verdict)
{
    StreamTally tally;
    char line[96];
    for (const Submitted &entry : submitted) {
        const ChaosStep &step = *entry.step;
        StreamEvent event;
        int64_t tokens = 0;
        double last_us = -1.0;
        bool terminal_seen = false;
        StreamEventKind terminal = StreamEventKind::kToken;
        RejectReason reason = RejectReason::kNone;
        while (entry.stream->next(&event)) {
            if (terminal_seen) {
                verdict->fail(format("id=%lld: event after the "
                                     "terminal event (%lld)",
                                     step.id, 0));
                break;
            }
            if (event.virtual_us < last_us) {
                verdict->fail(format("id=%lld: event timestamps ran "
                                     "backwards (%lld)",
                                     step.id, 0));
            }
            last_us = event.virtual_us;
            if (event.kind == StreamEventKind::kToken) {
                if (event.token_index != tokens) {
                    verdict->fail(format("id=%lld: token indices not "
                                         "contiguous at %lld",
                                         step.id, tokens));
                }
                ++tokens;
                if (!step.abandon) {
                    std::snprintf(line, sizeof(line),
                                  "id=%lld token %lld t=%.6f\n",
                                  static_cast<long long>(step.id),
                                  static_cast<long long>(
                                      event.token_index),
                                  event.virtual_us);
                    verdict->event_log += line;
                }
            } else {
                terminal_seen = true;
                terminal = event.kind;
                reason = event.reject_reason;
                if (!step.abandon) {
                    std::snprintf(
                        line, sizeof(line),
                        "id=%lld %s reason=%s t=%.6f\n",
                        static_cast<long long>(step.id),
                        server::streamEventKindName(event.kind),
                        server::rejectReasonName(event.reject_reason),
                        event.virtual_us);
                    verdict->event_log += line;
                }
            }
        }
        if (!terminal_seen) {
            verdict->fail(format("id=%lld: stream ended with no "
                                 "terminal event (%lld tokens)",
                                 step.id, tokens));
            continue;
        }
        tally.tokens += tokens;
        switch (terminal) {
          case StreamEventKind::kFinished:
            ++tally.completed;
            if (tokens != stopTokens(step)) {
                verdict->fail(format("id=%lld: finished with the "
                                     "wrong token count %lld",
                                     step.id, tokens));
            }
            break;
          case StreamEventKind::kRejected:
            ++tally.rejected;
            if (tokens != 0) {
                verdict->fail(format("id=%lld: rejected after "
                                     "streaming %lld tokens",
                                     step.id, tokens));
            }
            if (reason == RejectReason::kNone) {
                verdict->fail(format("id=%lld: rejected with no "
                                     "reason (%lld)",
                                     step.id, 0));
            }
            break;
          case StreamEventKind::kCancelled:
            ++tally.cancelled;
            if (tokens > stopTokens(step)) {
                verdict->fail(format("id=%lld: cancelled after "
                                     "streaming past its stop length "
                                     "(%lld)",
                                     step.id, tokens));
            }
            break;
          default:
            verdict->fail(format("id=%lld: impossible terminal kind "
                                 "(%lld)",
                                 step.id, 0));
            break;
        }
    }
    const int64_t terminals =
        tally.completed + tally.rejected + tally.cancelled;
    if (terminals != static_cast<int64_t>(submitted.size())) {
        verdict->fail(format("terminal conservation: %lld terminals "
                             "for %lld submissions",
                             terminals,
                             static_cast<int64_t>(submitted.size())));
    }
    return tally;
}

} // namespace

void
armChaosFaults(const ChaosFaultConfig &faults)
{
    FailPointRegistry &registry = FailPointRegistry::global();
    if (faults.kv_alloc_p > 0.0) {
        registry.arm("kv.alloc",
                     FailPointSpec::withProbability(
                         faults.kv_alloc_p, faults.seed ^ 0x6b76ull));
    }
    if (faults.pool_task_p > 0.0) {
        registry.arm("pool.task",
                     FailPointSpec::withProbability(
                         faults.pool_task_p,
                         faults.seed ^ 0x706f6f6cull));
    }
    if (faults.ingress_every > 0) {
        registry.arm("server.ingress",
                     FailPointSpec::everyNth(faults.ingress_every));
    }
    if (faults.preempt_every > 0) {
        registry.arm("sched.preempt",
                     FailPointSpec::everyNth(faults.preempt_every));
    }
    if (faults.expire_every > 0) {
        registry.arm("admission.expire",
                     FailPointSpec::everyNth(faults.expire_every));
    }
    if (faults.graft_every > 0) {
        registry.arm("prefix.graft",
                     FailPointSpec::everyNth(faults.graft_every));
    }
    if (faults.chunk_every > 0) {
        // everyNth >= 2 guarantees forward progress: between any two
        // dropped chunks at one site, at least one chunk lands.
        COMET_CHECK(faults.chunk_every >= 2);
        registry.arm("sched.chunk",
                     FailPointSpec::everyNth(faults.chunk_every));
    }
    if (faults.route_every > 0) {
        registry.arm("cluster.route",
                     FailPointSpec::everyNth(faults.route_every));
    }
    if (faults.drain_every > 0) {
        registry.arm("cluster.drain",
                     FailPointSpec::everyNth(faults.drain_every));
    }
    if (faults.allreduce_every > 0) {
        registry.arm("tp.allreduce",
                     FailPointSpec::everyNth(faults.allreduce_every));
    }
}

void
ChaosRunVerdict::fail(const std::string &message)
{
    if (ok) {
        ok = false;
        failure = message;
    }
}

ChaosRunResult
runChaosScript(const std::vector<ChaosStep> &script,
               const ChaosScriptConfig &config,
               const ChaosFaultConfig *faults)
{
    ChaosRunResult result;
    FailPointRegistry::global().disarmAll();
    if (faults != nullptr)
        armChaosFaults(*faults);

    const ServingEngine engine(chaosEngineConfig(config.tp_degree));
    const server::ServerConfig server_config = chaosServerConfig(config);
    {
        Server server(&engine, server_config);
        const std::vector<Submitted> submitted =
            driveChaosScript(&server, script, config,
                             server_config.tenants, "virtual clock",
                             &result);
        result.stats = server.stats();
        const StreamTally tally = auditStreams(submitted, &result);

        // Token conservation and exact terminal accounting against
        // the server's own counters: every submitted stream ended
        // exactly once, and every token the loop counted as streamed
        // is sitting in exactly one stream.
        if (tally.tokens != result.stats.streamed_tokens) {
            result.fail(format("token conservation: streams hold %lld "
                               "tokens, the server streamed %lld",
                               tally.tokens,
                               result.stats.streamed_tokens));
        }
        if (result.stats.submitted !=
            static_cast<int64_t>(submitted.size())) {
            result.fail(format("submitted accounting: %lld vs %lld",
                               result.stats.submitted,
                               static_cast<int64_t>(submitted.size())));
        }
        if (tally.completed != result.stats.completed ||
            tally.rejected != result.stats.rejected ||
            tally.cancelled != result.stats.cancelled) {
            result.fail("terminal accounting: stream verdicts disagree "
                        "with ServerStats");
        }

        // Zero-leak drain: the KV pool is fully free again.
        const Status quiescent =
            checkKvCacheQuiescent(server.kvCacheForAudit());
        if (!quiescent.isOk())
            result.fail(quiescent.message());

        server.stop(/*cancel_in_flight=*/false);
    }
    FailPointRegistry::global().disarmAll();
    return result;
}

ClusterChaosRunResult
runClusterChaosScript(const std::vector<ChaosStep> &script,
                      const ChaosScriptConfig &config,
                      const ChaosFaultConfig *faults, int replicas,
                      cluster::RoutingPolicy policy,
                      const std::vector<int> &tp_degrees)
{
    COMET_CHECK(replicas > 0);
    ClusterChaosRunResult result;
    FailPointRegistry::global().disarmAll();
    if (faults != nullptr) {
        // Cluster-safe subset only — see the header comment: the
        // per-replica sites' shared hit counters interleave across
        // replica loop threads, which would break replay.
        // tp.allreduce stays excluded too: the engine cost path is
        // evaluated on every replica's loop thread against one
        // shared hit counter.
        ChaosFaultConfig restricted;
        restricted.seed = faults->seed;
        restricted.pool_task_p = faults->pool_task_p;
        restricted.kv_alloc_p = 0.0;
        restricted.ingress_every = 0;
        restricted.preempt_every = 0;
        restricted.expire_every = 0;
        restricted.route_every = faults->route_every;
        restricted.drain_every = faults->drain_every;
        armChaosFaults(restricted);
    }

    const ServingEngine engine(chaosEngineConfig());
    cluster::ClusterConfig cluster_config;
    for (int r = 0; r < replicas; ++r) {
        cluster::ReplicaSpec spec;
        spec.engine = &engine;
        if (!tp_degrees.empty()) {
            spec.tp_degree =
                tp_degrees[static_cast<size_t>(r) %
                           tp_degrees.size()];
            // Pin every derived engine to the template's 256-block
            // pool: heterogeneous degrees must not skew per-replica
            // admission capacity (TP=1 entries stay on the shared
            // engine untouched).
            if (spec.tp_degree > 1)
                spec.kv_blocks = 256;
            else
                spec.tp_degree = 0;
        }
        cluster_config.replicas.push_back(spec);
    }
    cluster_config.policy = policy;
    cluster_config.server = chaosServerConfig(config);
    {
        cluster::ClusterRouter router(cluster_config);
        const std::vector<Submitted> submitted =
            driveChaosScript(&router, script, config,
                             cluster_config.server.tenants,
                             "cluster clock", &result);
        result.cluster_stats = router.stats();
        int64_t replica_rejected = 0;
        int64_t replica_cancelled = 0;
        for (int r = 0; r < router.numReplicas(); ++r) {
            const server::ServerStats stats =
                router.replicaStats(r);
            result.replica_streamed_tokens += stats.streamed_tokens;
            result.replica_completed += stats.completed;
            replica_rejected += stats.rejected;
            replica_cancelled += stats.cancelled;
        }
        const StreamTally tally = auditStreams(submitted, &result);

        // Cluster token conservation: every token a replica counted
        // as streamed is sitting in exactly one cluster stream (the
        // drain audit that proves a mid-workload drain dropped
        // nothing).
        if (tally.tokens != result.replica_streamed_tokens) {
            result.fail(format("cluster token conservation: streams "
                               "hold %lld tokens, replicas streamed "
                               "%lld",
                               tally.tokens,
                               result.replica_streamed_tokens));
        }
        const cluster::ClusterStats &cs = result.cluster_stats;
        if (cs.submitted != static_cast<int64_t>(submitted.size())) {
            result.fail(format("cluster submitted accounting: %lld vs "
                               "%lld",
                               cs.submitted,
                               static_cast<int64_t>(submitted.size())));
        }
        // Every submission either reached a replica or got an edge
        // verdict, never both, never neither.
        if (cs.submitted != cs.routed + cs.rejected + cs.cancelled) {
            result.fail(format("cluster routing conservation: %lld "
                               "submitted vs %lld routed+edge "
                               "verdicts",
                               cs.submitted,
                               cs.routed + cs.rejected + cs.cancelled));
        }
        int64_t routed_sum = 0;
        for (int64_t per : cs.routed_per_replica)
            routed_sum += per;
        if (routed_sum != cs.routed) {
            result.fail(format("per-replica routed counters sum to "
                               "%lld, not %lld",
                               routed_sum, cs.routed));
        }
        // Terminal accounting across layers: replica verdicts plus
        // edge verdicts equal the stream verdicts exactly.
        if (tally.completed != result.replica_completed ||
            tally.rejected != replica_rejected + cs.rejected ||
            tally.cancelled != replica_cancelled + cs.cancelled) {
            result.fail("cluster terminal accounting: stream verdicts "
                        "disagree with replica + edge counters");
        }

        // Zero-leak drain on every replica.
        for (int r = 0; r < router.numReplicas(); ++r) {
            const Status quiescent = checkKvCacheQuiescent(
                router.replicaKvCacheForAudit(r));
            if (!quiescent.isOk()) {
                result.fail("replica " + std::to_string(r) + ": " +
                            quiescent.message());
            }
        }

        router.stop(/*cancel_in_flight=*/false);
    }
    FailPointRegistry::global().disarmAll();
    return result;
}

Status
runKvModelFuzz(uint64_t seed, int steps, bool with_faults)
{
    FailPointRegistry::global().disarmAll();
    if (with_faults) {
        FailPointRegistry::global().arm(
            "kv.alloc",
            FailPointSpec::withProbability(0.1, seed ^ 0x6b76ull));
    }
    KvCacheConfig config;
    config.bits_per_value = 4.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = 64e6; // ~120 blocks at KV4
    PagedKvCache cache(LlmConfig::llama3_8b(), config);

    Rng rng(seed);
    std::map<int64_t, int64_t> mirror; // id -> expected token count
    int64_t next_id = 1;
    Status verdict = Status::ok();
    const auto randomLive = [&rng, &mirror]() {
        auto it = mirror.begin();
        std::advance(it, static_cast<int64_t>(rng.uniformInt(
                             mirror.size())));
        return it->first;
    };
    for (int i = 0; i < steps && verdict.isOk(); ++i) {
        const double roll = rng.uniform();
        if (mirror.empty() || roll < 0.35) {
            const int64_t tokens =
                1 + static_cast<int64_t>(rng.uniformInt(200));
            const Status status =
                cache.addSequence(next_id, tokens);
            if (status.isOk()) {
                mirror.emplace(next_id, tokens);
            } else if (status.code() !=
                       StatusCode::kResourceExhausted) {
                verdict = status;
            }
            ++next_id;
        } else if (roll < 0.75) {
            const int64_t id = randomLive();
            const Status status = cache.appendToken(id);
            if (status.isOk()) {
                ++mirror[id];
            } else if (status.code() !=
                       StatusCode::kResourceExhausted) {
                verdict = status;
            }
        } else if (roll < 0.85) {
            const int64_t parent = randomLive();
            const Status status =
                cache.forkSequence(parent, next_id);
            if (status.isOk())
                mirror.emplace(next_id, mirror[parent]);
            else
                verdict = status; // forks never exhaust
            ++next_id;
        } else {
            const int64_t id = randomLive();
            cache.removeSequence(id);
            mirror.erase(id);
        }
        if (!verdict.isOk())
            break;
        verdict = checkKvCacheConsistency(cache);
        if (!verdict.isOk())
            break;
        if (cache.numSequences() !=
            static_cast<int64_t>(mirror.size())) {
            verdict = Status::internal(
                "live sequence count diverged from the model");
            break;
        }
        for (const auto &[id, tokens] : mirror) {
            if (cache.sequenceTokens(id) != tokens) {
                verdict = Status::internal(
                    "sequence token count diverged from the model");
                break;
            }
        }
    }
    if (verdict.isOk()) {
        for (const auto &[id, tokens] : mirror)
            cache.removeSequence(id);
        verdict = checkKvCacheQuiescent(cache);
    }
    FailPointRegistry::global().disarmAll();
    return verdict;
}

Status
runSchedulerFuzz(uint64_t seed, int steps, bool with_faults)
{
    FailPointRegistry::global().disarmAll();
    if (with_faults) {
        FailPointRegistry::global().arm(
            "kv.alloc",
            FailPointSpec::withProbability(0.05, seed ^ 0x6b76ull));
        FailPointRegistry::global().arm(
            "sched.preempt", FailPointSpec::everyNth(13));
    }
    KvCacheConfig config;
    config.bits_per_value = 4.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = 64e6;
    PagedKvCache cache(LlmConfig::llama3_8b(), config);
    BatchSchedulerConfig sched_config;
    sched_config.max_batch = 4;
    sched_config.prefill_emits_token = true;
    BatchScheduler scheduler(&cache, sched_config);

    Rng rng(seed);
    std::set<int64_t> live; // submitted and not yet retired
    int64_t next_id = 1;
    int64_t submitted = 0;
    int64_t finished = 0;
    int64_t cancelled = 0;
    int64_t rejected = 0;
    Status verdict = Status::ok();
    const auto drainRetired = [&]() {
        for (const Request &request : scheduler.drainRetired()) {
            live.erase(request.id);
            switch (request.state) {
              case RequestState::kFinished:
                ++finished;
                break;
              case RequestState::kCancelled:
                ++cancelled;
                break;
              case RequestState::kRejected:
                ++rejected;
                break;
              default:
                verdict = Status::internal(
                    "retired request in a live state");
                break;
            }
        }
    };
    for (int i = 0; i < steps && verdict.isOk(); ++i) {
        const double roll = rng.uniform();
        if (live.empty() || roll < 0.4) {
            Request request;
            request.id = next_id++;
            request.prompt_tokens =
                1 + static_cast<int64_t>(rng.uniformInt(96));
            request.max_output_tokens =
                1 + static_cast<int64_t>(rng.uniformInt(16));
            if (rng.uniform() < 0.5) {
                request.eos_output_tokens =
                    1 + static_cast<int64_t>(rng.uniformInt(
                            static_cast<uint64_t>(
                                request.max_output_tokens)));
            }
            scheduler.submit(request);
            live.insert(request.id);
            ++submitted;
        } else if (roll < 0.55) {
            auto it = live.begin();
            std::advance(it, static_cast<int64_t>(rng.uniformInt(
                                 live.size())));
            verdict = scheduler.cancel(*it);
        } else {
            scheduler.admit();
            scheduler.step();
        }
        drainRetired();
        if (!verdict.isOk())
            break;
        verdict = checkKvCacheConsistency(cache);
    }
    if (verdict.isOk()) {
        // Run the tail down and settle the books exactly.
        for (int64_t id : std::vector<int64_t>(live.begin(),
                                               live.end())) {
            const Status status = scheduler.cancel(id);
            if (!status.isOk()) {
                verdict = status;
                break;
            }
        }
        drainRetired();
    }
    if (verdict.isOk() && !live.empty())
        verdict = Status::internal("cancelled requests not retired");
    if (verdict.isOk() &&
        submitted != finished + cancelled + rejected) {
        verdict = Status::internal(
            "terminal accounting: submitted != finished + "
            "cancelled + rejected");
    }
    if (verdict.isOk())
        verdict = checkKvCacheQuiescent(cache);
    FailPointRegistry::global().disarmAll();
    return verdict;
}

Status
runPrefixFuzz(uint64_t seed, int steps, bool with_faults)
{
    FailPointRegistry::global().disarmAll();
    if (with_faults) {
        FailPointRegistry::global().arm(
            "kv.alloc",
            FailPointSpec::withProbability(0.05, seed ^ 0x6b76ull));
        FailPointRegistry::global().arm(
            "prefix.graft", FailPointSpec::everyNth(7));
    }
    KvCacheConfig config;
    config.bits_per_value = 4.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = 64e6;
    config.enable_prefix_cache = true;
    PagedKvCache cache(LlmConfig::llama3_8b(), config);

    Rng rng(seed);
    std::map<int64_t, int64_t> mirror; // id -> expected token count
    int64_t next_id = 1;
    Status verdict = Status::ok();
    const auto randomLive = [&rng, &mirror]() {
        auto it = mirror.begin();
        std::advance(it, static_cast<int64_t>(rng.uniformInt(
                             mirror.size())));
        return it->first;
    };
    for (int i = 0; i < steps && verdict.isOk(); ++i) {
        const double roll = rng.uniform();
        if (mirror.empty() || roll < 0.4) {
            // Prompt from a small pool of (namespace, pool) seeds so
            // later submits genuinely share key chains and graft.
            const int64_t ns =
                static_cast<int64_t>(rng.uniformInt(2));
            const uint64_t pool = rng.uniformInt(3);
            const int64_t tokens =
                1 + static_cast<int64_t>(rng.uniformInt(200));
            const std::vector<int32_t> prompt = promptFromSeed(
                seed * 7368787ull +
                    static_cast<uint64_t>(ns) * 131ull + pool + 1ull,
                tokens);
            prefix::KeySpace space;
            space.namespace_id = ns;
            space.bits_per_value = config.bits_per_value;
            space.block_tokens = config.block_tokens;
            space.quant_group_tokens = kKvQuantGroupTokens;
            const std::vector<prefix::BlockKey> keys =
                prefix::chainBlockKeys(space, prompt);
            const Result<int64_t> grafted =
                cache.addSequenceWithPrefix(next_id, tokens, ns,
                                            keys);
            if (grafted.isOk()) {
                mirror.emplace(next_id, tokens);
                if (grafted.value() < 0 ||
                    grafted.value() >= tokens ||
                    grafted.value() % config.block_tokens != 0) {
                    verdict = Status::internal(
                        "grafted token count out of bounds (must be "
                        "a block multiple strictly below the "
                        "prompt)");
                }
            } else if (grafted.status().code() !=
                       StatusCode::kResourceExhausted) {
                verdict = grafted.status();
            }
            ++next_id;
        } else if (roll < 0.7) {
            const int64_t id = randomLive();
            const Status status = cache.appendToken(id);
            if (status.isOk()) {
                ++mirror[id];
            } else if (status.code() !=
                       StatusCode::kResourceExhausted) {
                verdict = status;
            }
        } else if (roll < 0.8) {
            const int64_t parent = randomLive();
            const Status status =
                cache.forkSequence(parent, next_id);
            if (status.isOk())
                mirror.emplace(next_id, mirror[parent]);
            else
                verdict = status; // forks never exhaust
            ++next_id;
        } else if (roll < 0.98) {
            const int64_t id = randomLive();
            cache.removeSequence(id);
            mirror.erase(id);
        } else {
            cache.clearPrefixCache();
            if (cache.prefixOwnedBlocks() != 0) {
                verdict = Status::internal(
                    "prefix index still holds pages after clear");
            }
        }
        if (!verdict.isOk())
            break;
        verdict = checkKvCacheConsistency(cache);
        if (!verdict.isOk())
            break;
        for (const auto &[id, tokens] : mirror) {
            if (cache.sequenceTokens(id) != tokens) {
                verdict = Status::internal(
                    "sequence token count diverged from the model");
                break;
            }
        }
    }
    if (verdict.isOk()) {
        for (const auto &[id, tokens] : mirror)
            cache.removeSequence(id);
        verdict = checkKvCacheQuiescent(cache);
    }
    if (verdict.isOk()) {
        // Quiescence tolerates index-held pages; a full clear must
        // hand every last block back.
        cache.clearPrefixCache();
        if (cache.physicalBlocksInUse() != 0) {
            verdict = Status::internal(
                "blocks still allocated after clearing the prefix "
                "cache (leak)");
        }
    }
    FailPointRegistry::global().disarmAll();
    return verdict;
}

} // namespace chaos
} // namespace comet
