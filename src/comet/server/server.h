/**
 * @file
 * The COMET online serving front-end.
 *
 * Server turns the offline serving stack (ServingEngine cost model +
 * PagedKvCache + the continuous-batching BatchScheduler) into an
 * asynchronous, multi-client system: concurrent client threads submit
 * requests and stream tokens back while a dedicated serving loop runs
 * continuous batching over a deterministic **virtual clock** advanced
 * by the engine's modeled prefill/decode latencies. The loop costs
 * every fused step with ServingEngine::stepLatencyUs and emits
 * COMET_SPANs plus `server.*` registry metrics.
 *
 * ## Determinism (conservative virtual-time ingress)
 *
 * Latency numbers must be bit-stable for a fixed workload even though
 * submission is racy host concurrency. Each client connects once and
 * submits requests with nondecreasing virtual arrival times; the
 * client handle's last submitted (or explicitly advanced) arrival is
 * its *horizon* — a promise that every arrival still coming through
 * the handle is at or after it. The loop never advances the virtual
 * clock to T until every open horizon is *strictly* past T (equal
 * arrival times through one handle are legal, so a horizon exactly at
 * T could still produce more arrivals at T), and before committing a
 * clock jump it re-examines any submission that landed while it was
 * waiting — the newcomer may be earlier than the planned target. By
 * the time the loop makes any admission or scheduling decision at
 * clock T it has therefore ingested every arrival <= T that will ever
 * exist, and the whole session replays identically regardless of
 * thread interleaving (classic conservative discrete-event
 * synchronization). Closing a handle moves its horizon to infinity;
 * drain()/stop() close ingress and release the gate.
 *
 * The gate is one piece of code, IngressGate (ingress_gate.h), which
 * the Server and cluster::ClusterRouter each hold: the horizon table,
 * the submit-path verdicts, connect/advance/close, drain/stop
 * signalling and the clock-advance wait live there, and both front
 * ends hand out the same ClientHandle.
 *
 * ## Backpressure contract
 *
 * Overload is always an explicit, recoverable verdict, never an
 * abort: bounded queues, rate limits, impossible footprints, expired
 * deadlines and shutdown all reject the request with a
 * RejectReason on its stream, and KV exhaustion inside the batch is
 * absorbed by the scheduler's recoverable preemption.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/server/admission.h"
#include "comet/server/ingress_gate.h"
#include "comet/server/streaming.h"

namespace comet {
namespace server {

/** Server construction parameters. */
struct ServerConfig {
    /** The tenant set (at least one; see TenantConfig). */
    std::vector<TenantConfig> tenants;
    /** Hard cap on concurrently decoding requests. */
    int64_t max_batch = 64;
    /** KV admission policy of the underlying scheduler. */
    AdmissionPolicy admission = AdmissionPolicy::kOptimisticPreempt;
    /** Free-block decode headroom under optimistic admission. */
    int64_t kv_watermark_blocks = 0;
    /** Builds the session's KV cache with the automatic prefix cache
     * (comet::prefix). Tenants still opt in individually via
     * TenantConfig::prefix_caching, and requests must carry
     * StreamRequest::prompt_ids to participate. */
    bool enable_prefix_cache = false;
    /**
     * Chunked prefill (DESIGN.md §14): process at most this many
     * prefill tokens per request per step, fused with decode into
     * one GEMM launch, instead of charging each admission wave's
     * whole prefill up front. 0 (the default) keeps monolithic
     * prefill. Token streams are byte-identical between the two
     * modes; only the virtual-time shape changes — decode tenants
     * stop stalling behind long prompts. Prefill chunks are ordered
     * by TTFT deadline (arrival + TenantConfig::ttft_slo_us).
     */
    int64_t chunked_prefill_tokens = 0;
    /** Per-step token budget (decode + prefill chunks) of the
     * scheduler's knapsack; 0 = uncapped. Only meaningful with
     * chunked_prefill_tokens > 0 (see
     * BatchSchedulerConfig::step_token_budget). */
    int64_t step_token_budget = 0;
    /**
     * Namespace prefix of every metric this server publishes
     * (`<prefix>.submitted`, `<prefix>.tenant.<name>.ttft_us`, ...).
     * The default keeps the historical `server.*` names; a cluster
     * replica is constructed with `cluster.replica.<i>` so N replicas
     * publish into disjoint namespaces of one registry.
     */
    std::string metrics_prefix = "server";
};

/** Per-tenant SLO attainment over a session's finished streams (all
 * zero for tenants with no SLO budgets configured). */
struct TenantSloStats {
    std::string tenant;    ///< tenant name (metric label)
    int64_t finished = 0;  ///< streams that ended kFinished
    /** Finished streams whose TTFT met / missed
     * TenantConfig::ttft_slo_us (both 0 when no budget is set). @{ */
    int64_t ttft_ok = 0;
    int64_t ttft_miss = 0;
    /** @} */
    /** Finished streams (with >= 2 tokens) whose mean TPOT met /
     * missed TenantConfig::tpot_slo_us. @{ */
    int64_t tpot_ok = 0;
    int64_t tpot_miss = 0;
    /** @} */
};

/** Session counters, live over the session and stable after
 * drain()/stop(). */
struct ServerStats {
    int64_t submitted = 0;       ///< submit() calls observed
    int64_t queued = 0;          ///< accepted into the fair queue
    int64_t completed = 0;       ///< streams ended kFinished
    int64_t rejected = 0;        ///< streams ended kRejected
    int64_t cancelled = 0;       ///< streams ended kCancelled
    int64_t streamed_tokens = 0; ///< token events delivered
    int64_t preemptions = 0;     ///< scheduler KV-exhaustion evictions
    int64_t reprefill_tokens = 0; ///< recompute cost of preemptions
    // Prefix-cache accounting (all zero when the cache is off):
    int64_t prefix_hits = 0;   ///< admissions that grafted >= 1 block
    int64_t prefix_misses = 0; ///< lookups that matched nothing
    /** Context tokens grafted instead of prefilled, summed. */
    int64_t prefix_matched_tokens = 0;
    int64_t prefix_blocks_matched = 0; ///< KV pages grafted
    int64_t prefix_blocks_evicted = 0; ///< cached pages evicted
    int64_t prefix_bytes_saved = 0;    ///< quantized bytes not built
    /** Per-tenant SLO attainment, one row per configured tenant (in
     * ServerConfig::tenants order). Also published as
     * `server.tenant.<name>.slo.*` registry counters. */
    std::vector<TenantSloStats> tenant_slo;
};

/**
 * The asynchronous serving front-end (see the file comment).
 *
 * Construction starts the serving loop; stop() (or destruction) ends
 * it. All public methods are thread-safe.
 */
class Server
{
  public:
    /** A client's submission handle (see ClientHandle). */
    using Client = ClientHandle<Server>;

    /**
     * Builds the serving state (KV cache sized from the engine's
     * budget, scheduler, fair queue, metrics) and starts the loop.
     * @p engine is not owned and must outlive the server.
     */
    Server(const ServingEngine *engine, ServerConfig config);

    /** Stops the loop (cancelling in-flight work) and joins it. */
    ~Server();

    /** Servers own a thread and cannot be copied. @{ */
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;
    /** @} */

    /**
     * Registers a client and returns its handle. For a deterministic
     * session, connect every client before the first submission —
     * each open handle gates the virtual clock at its horizon. A
     * handle connected mid-session starts with its horizon at the
     * current virtual clock (it can neither drag the ingress gate
     * below the virtual present nor submit arrivals in the past).
     */
    Client connect() { return Client(this, ingress_->connect()); }

    /**
     * Graceful drain: stops accepting submissions (further submits
     * reject kShuttingDown), releases the ingress gate, and blocks
     * until every accepted request reached a terminal event. The
     * loop stays alive (metrics readable); call stop() to join it.
     */
    void drain() { ingress_->drain(); }

    /**
     * Ends the session and joins the loop. With @p cancel_in_flight,
     * queued and running requests are cancelled deterministically
     * (ascending id order, one kCancelled event each) at the current
     * virtual clock; otherwise the call drains first. Idempotent.
     */
    void stop(bool cancel_in_flight = true);

    /** Session counters (stable once drain()/stop() returned). */
    ServerStats stats() const { return ingress_->stats(); }

    /** Scheduler counters of the session (stable after
     * drain()/stop(); see SchedulerCounters). */
    SchedulerCounters schedulerCounters() const;

    /** Current virtual clock, microseconds. */
    double virtualClockUs() const { return ingress_->clockUs(); }

    /**
     * The session's KV cache, for invariant audits (comet::chaos
     * checks block conservation and zero leaks through it). Only
     * valid once drain() or stop() returned — the serving loop owns
     * the cache and this asserts the session is complete.
     */
    const PagedKvCache &kvCacheForAudit() const;

    /**
     * Blocks until every stream event with a virtual timestamp
     * strictly below @p virtual_us has been delivered (the server's
     * *settled horizon* has reached @p virtual_us).
     *
     * The settled horizon only advances at points where the serving
     * loop can prove no earlier-stamped event can still be produced,
     * so the guarantee holds under the caller discipline the cluster
     * router follows: every open client handle's horizon has been
     * advanced to at least @p virtual_us before the call, and no new
     * handle connects while waiting. (A handle connected mid-wait
     * starts at the published clock, which may sit below an already
     * settled horizon; early rejects on the submit path are likewise
     * stamped with the published clock and are outside the
     * guarantee — a router that validates tenants at its own edge
     * never triggers them.) Returns immediately once the session is
     * complete.
     */
    void
    waitSettled(double virtual_us) const
    {
        ingress_->waitSettled(virtual_us);
    }

    /** Total KV block capacity of the session's paged cache. */
    int64_t kvTotalBlocks() const;

    /**
     * KV blocks a request spanning @p tokens context tokens
     * reserves at admission (pure ceiling division by the cache's
     * block size — safe from any thread). The cluster router uses
     * this for reserved-blocks load accounting.
     */
    int64_t kvBlocksForTokens(int64_t tokens) const;

  private:
    /** A submission as queued from a client thread to the loop. */
    struct SubmitRecord {
        PendingRequest request;
        double arrival_us = 0.0;
        /** Scheduled client abandon time; 0 = never (see
         * StreamRequest::cancel_at_us). */
        double cancel_at_us = 0.0;
    };

    /** Loop-side bookkeeping for one live (non-terminal) request. */
    struct LiveRequest {
        TokenStreamPtr stream;
        int tenant = 0;
        double arrival_us = 0.0;
        double first_token_us = -1.0;
        double last_token_us = -1.0;
        int64_t streamed_tokens = 0;
        bool in_scheduler = false; ///< else waiting in the fair queue
    };

    /** What the loop publishes for stats() and schedulerCounters(). */
    struct Published {
        ServerStats stats;
        SchedulerCounters sched;
    };

    friend class ClientHandle<Server>;

    void loop();
    TokenStreamPtr submitFromClient(size_t client,
                                    const StreamRequest &request);
    void acceptArrival(SubmitRecord &&record);
    bool advanceClockTo(double target_us);
    void ingestDueArrivals();
    bool stepOnce();
    void injectFromFairQueue();
    void deliverRunningProgress();
    void deliverRetired(const std::vector<Request> &retired);
    void processCancellations();
    void processDueCancels();
    bool cancelOne(int64_t id);
    void rejectPending(PendingRequest &&pending,
                       RejectReason reason);
    void emitTokens(LiveRequest &live, int64_t generated_total);
    void cancelEverything();
    bool sessionIdle() const;
    void publish(bool complete);

    const ServingEngine *engine_;
    ServerConfig config_;
    ServingPrecision precision_;
    /** Key-space template of the session's cache geometry; submit
     * stamps the tenant index in as the namespace. */
    prefix::KeySpace key_space_;
    std::unique_ptr<PagedKvCache> cache_;
    std::unique_ptr<BatchScheduler> scheduler_;
    std::unique_ptr<FairAdmissionQueue> fair_;

    /** The ingress gate shared with client threads. */
    std::shared_ptr<IngressGate<SubmitRecord, Published>> ingress_;
    std::thread loop_thread_;
    std::mutex join_mutex_; ///< serializes stop()'s join

    // --- Loop-owned state (no locking; the loop thread only) ---
    /** Arrivals not yet due, ordered by (arrival_us, id). */
    std::set<std::pair<double, int64_t>> arrival_order_;
    /** Scheduled client abandons not yet due, ordered by
     * (cancel_at_us, id). */
    std::set<std::pair<double, int64_t>> cancel_order_;
    std::map<int64_t, SubmitRecord> arrivals_;
    std::map<int64_t, LiveRequest> live_;
    StepGemmMemo gemm_cache_;
    double clock_ = 0.0;
    ServerStats stats_;
};

} // namespace server
} // namespace comet
