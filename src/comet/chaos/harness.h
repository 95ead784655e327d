/**
 * @file
 * The chaos harness: seeded fault schedules, the scripted runners for
 * a Server and a ClusterRouter, and model-based fuzzers for the KV
 * cache, the batch scheduler and the prefix cache.
 *
 * The two scripted runners, runChaosScript() (one Server) and
 * runClusterChaosScript() (a ClusterRouter over replica Servers),
 * replay a generated workload script (see script.h) with an optional
 * fault schedule armed. They share everything but their accounting:
 *
 *  - one per-server config (tenants, batch size, chunked prefill,
 *    prefix opt-in), used by the Server and by every replica;
 *  - one script drive, templated over the front end's client API
 *    (submit, advance, reconnect through non-blocking handles, then
 *    close and drain), which checks after every step that the
 *    published virtual clock never runs backwards;
 *  - one post-drain per-stream audit: event shape, token counts per
 *    verdict, every submission ending exactly once. It tallies the
 *    delivered tokens and terminal verdicts and writes the canonical
 *    text event log, byte-identical across runs of the same seed at
 *    any COMET_THREADS: the bit-identical-replay check the soak and
 *    CI legs enforce.
 *
 * Each runner then checks that tally against its own counters
 * (ServerStats, or the router's edge counters plus the summed
 * replica stats) and audits KV-cache quiescence (zero leaked blocks)
 * on its one pool or on every replica's.
 *
 * The fuzzers drive one component directly:
 *
 *  - runKvModelFuzz() drives a PagedKvCache through random
 *    add/append/fork/remove sequences against a token-count mirror,
 *    cross-validating allocator refcounts, chain sizing and block
 *    conservation after every operation (with injected allocator OOM
 *    when faults are on).
 *
 *  - runSchedulerFuzz() drives a BatchScheduler through random
 *    submit/admit/step/cancel interleavings, checking KV consistency
 *    each round and exact terminal accounting at the end.
 *
 *  - runPrefixFuzz() drives a prefix-enabled PagedKvCache through
 *    shared-prompt adds, forks, evictions-under-pressure and cache
 *    clears, auditing the index's extra refcounts and the
 *    grafted-token bounds (see below).
 *
 * Every runner and fuzzer returns the violated invariant as an error
 * instead of aborting, so a failing seed can be reported — and, for
 * scripts, shrunk — by the caller.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comet/chaos/script.h"
#include "comet/cluster/router.h"
#include "comet/common/status.h"
#include "comet/server/server.h"

namespace comet {
namespace chaos {

/**
 * One fault schedule over the serving stack's failpoints. Each knob
 * arms one site; 0 disables it. The probability sites draw from Rngs
 * seeded off @p seed, so a (seed, knobs) pair is one exact fault
 * schedule.
 */
struct ChaosFaultConfig {
    uint64_t seed = 1; ///< seeds the probability-trigger draws
    /** P(injected allocator OOM) per KV block allocation. */
    double kv_alloc_p = 0.05;
    /** P(injected delay) per thread-pool chunk. */
    double pool_task_p = 0.02;
    /** Simulate a client cancel racing admission on every Nth
     * ingested arrival. */
    int64_t ingress_every = 17;
    /** Force a spurious preemption on every Nth scheduler step. */
    int64_t preempt_every = 97;
    /** Force an admission-deadline expiry on every Nth queue pick. */
    int64_t expire_every = 131;
    /** Force a prefix-cache miss (failed graft, full prefill
     * fallback) on every Nth lookup; 0 leaves the graft path clean.
     * Only observable with the prefix cache on. */
    int64_t graft_every = 0;
    /** Drop every Nth prefill chunk at its boundary (`sched.chunk`;
     * the chunk is re-planned on a later step). Only observable with
     * chunked prefill on (ChaosScriptConfig::chunk_tokens); must be
     * >= 2 when armed — every chunk dropped would stall prefill
     * forever. 0 leaves the chunk path clean. */
    int64_t chunk_every = 0;
    /** Force every Nth cluster placement onto its second-choice
     * replica (`cluster.route`). Only observable through a
     * ClusterRouter. */
    int64_t route_every = 0;
    /** Inject a drain of the chosen replica on every Nth cluster
     * placement (`cluster.drain`; skipped when it would leave no
     * active replica). Only observable through a ClusterRouter. */
    int64_t drain_every = 0;
    /** Fire the `tp.allreduce` failpoint on every Nth evaluation: in
     * the engine's collective cost path the step's all-reduces run at
     * degraded (halved) link bandwidth, in a ShardedW4AxGemm the fold
     * is discarded and replayed byte-identically. Only observable
     * with tensor parallelism on (ChaosScriptConfig::tp_degree > 1);
     * latency-only, so event logs must not change. */
    int64_t allreduce_every = 0;
};

/** Arms (replacing any armed schedule, resetting all counters) the
 * failpoints a non-zero knob selects. Disarm with
 * FailPointRegistry::global().disarmAll(). */
void armChaosFaults(const ChaosFaultConfig &faults);

/** What both scripted runners report: the first violated invariant
 * and the canonical event log. */
struct ChaosRunVerdict {
    bool ok = true;       ///< every invariant held
    std::string failure;  ///< first violated invariant (ok = false)
    /** Canonical per-request event log (submission order, one line
     * per event); abandoned requests are audited but not logged —
     * their client is gone. Byte-identical across replays of the
     * same seed and fault schedule at any thread count. */
    std::string event_log;

    /** Records @p message as the failure unless one is recorded. */
    void fail(const std::string &message);
};

/** Outcome of one scripted server run. */
struct ChaosRunResult : ChaosRunVerdict {
    server::ServerStats stats; ///< the session's final counters
};

/**
 * Replays @p script against a fresh Server (tenants from @p config)
 * and audits the drained session (see the file comment). When
 * @p faults is non-null its schedule is armed for the run; all
 * failpoints are disarmed before returning either way.
 */
ChaosRunResult runChaosScript(const std::vector<ChaosStep> &script,
                              const ChaosScriptConfig &config,
                              const ChaosFaultConfig *faults);

/** Outcome of one scripted cluster run. */
struct ClusterChaosRunResult : ChaosRunVerdict {
    cluster::ClusterStats cluster_stats; ///< router counters
    int64_t replica_streamed_tokens = 0; ///< summed over replicas
    int64_t replica_completed = 0;       ///< summed over replicas
};

/**
 * Replays @p script against a fresh @p replicas -replica
 * ClusterRouter (tenants from @p config, all replicas on one shared
 * engine) and audits the drained session: the per-stream audit
 * runChaosScript runs, token conservation against the *summed*
 * replica streamed-token counters, terminal accounting against the
 * summed replica stats plus the router's edge verdicts
 * (submitted == routed + edge-rejected + edge-cancelled), a monotone
 * published cluster clock, and per-replica KV quiescence.
 *
 * When @p faults is non-null, only its cluster-safe subset is armed:
 * `cluster.route` / `cluster.drain` (hit exclusively on the routing
 * thread, so their every-Nth schedules replay exactly) and the
 * thread-pool delay site. Per-replica failpoints (kv.alloc,
 * sched.preempt, admission.expire, server.ingress, prefix.graft,
 * sched.chunk, tp.allreduce) are deliberately excluded: their hit
 * counters are shared across all replica loop threads, so which
 * replica's step absorbs the Nth hit depends on wall-clock
 * interleaving — armed, they would break the bit-identical-replay
 * guarantee this runner audits. All failpoints are disarmed before
 * returning.
 *
 * @p tp_degrees, when non-empty, builds a heterogeneous cluster:
 * replica r serves at degree `tp_degrees[r % tp_degrees.size()]`
 * (via ReplicaSpec::tp_degree overrides of the one shared template
 * engine), every overridden replica's KV pool pinned to the shared
 * engine's 256 blocks so capacities — and the event log — match the
 * homogeneous cluster's.
 */
ClusterChaosRunResult
runClusterChaosScript(const std::vector<ChaosStep> &script,
                      const ChaosScriptConfig &config,
                      const ChaosFaultConfig *faults, int replicas,
                      cluster::RoutingPolicy policy,
                      const std::vector<int> &tp_degrees = {});

/** Model-based KV-cache fuzz (see the file comment). OK when every
 * per-op invariant held and the drained cache is quiescent. */
Status runKvModelFuzz(uint64_t seed, int steps, bool with_faults);

/** Model-based batch-scheduler fuzz (see the file comment). */
Status runSchedulerFuzz(uint64_t seed, int steps, bool with_faults);

/**
 * Model-based prefix-cache fuzz: drives a prefix-enabled PagedKvCache
 * through random add-with-prefix / append / fork / remove /
 * clear-cache interleavings, with prompts drawn from a small pool of
 * shared seeds so grafts actually happen, cross-validating refcounts
 * (including the index's own holds), block conservation and the
 * grafted-tokens bound after every operation. @p with_faults arms
 * injected allocator OOM and the prefix.graft forced-miss failpoint.
 * Ends by draining, checking quiescence, clearing the cache and
 * requiring a fully free pool.
 */
Status runPrefixFuzz(uint64_t seed, int steps, bool with_faults);

} // namespace chaos
} // namespace comet
