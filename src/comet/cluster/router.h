#ifndef COMET_CLUSTER_ROUTER_H_
#define COMET_CLUSTER_ROUTER_H_

/**
 * @file router.h
 * `comet::cluster` — a deterministic multi-replica serving router.
 *
 * A ClusterRouter fronts N independent `comet::server` replicas,
 * each with its own ServingEngine, PagedKvCache, and BatchScheduler
 * (replicas may differ in tensor-parallel degree or KV capacity by
 * pointing at different engines). Clients talk to the router exactly
 * as they would to a single Server — connect / submit / advanceTo /
 * close — and receive the same TokenStream events; the router places
 * each request on a replica with a pluggable deterministic policy
 * (see RoutingPolicy) and forwards the replica's stream events
 * verbatim.
 *
 * Determinism. The router runs the single-server virtual-time
 * ingress gate — the same server::IngressGate code each replica's
 * Server holds (see server.h, "Determinism") — and extends it to
 * per-replica horizons: the cluster clock advances to an event time
 * E only once every open *cluster* client horizon is strictly past
 * E, and before any placement at E every *replica* handle's horizon
 * is advanced to E. The floor forwarded to the replicas is the
 * gate's promised floor, so a late connect() starts at or above it.
 * Placement inputs at E — the
 * edge fair-admission order, the policy state, and (for
 * least-loaded) reserved-block loads built from replica stream
 * events settled strictly before E via Server::waitSettled — are
 * therefore pure functions of the submitted workload, so cluster
 * runs replay bit-identically at any `COMET_THREADS`.
 *
 * Cross-replica fair admission. Requests pass a cluster-level
 * FairAdmissionQueue before any per-replica admission: token-bucket
 * rate limits are enforced once at the edge (replicas receive
 * rate-limit-stripped tenant configs), and same-instant arrivals are
 * placed in start-time weighted fair order, so one hot replica's
 * overload rejects cannot starve a tenant with capacity elsewhere.
 * Per-tenant queue bounds and admission deadlines remain per-replica
 * (the edge never holds a request across events, so they could not
 * trigger there).
 *
 * Drain. A replica drain (scheduled in ClusterConfig::drains, fired
 * by the `cluster.drain` failpoint, or requested at wall-clock time
 * via requestDrain) marks the replica inactive for placement, closes
 * the router's ingress handle to it, and lets its in-flight streams
 * run to completion — zero streams dropped. A drain that would leave
 * no active replica is skipped (availability wins).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comet/cluster/placement.h"
#include "comet/server/server.h"

namespace comet {
namespace cluster {

/** One replica behind the router. */
struct ReplicaSpec {
    /** The replica's engine (not owned; may be shared between
     * replicas of identical configuration). */
    const ServingEngine *engine = nullptr;
    /** Placement weight for the hash ring (vnode share) and
     * weighted round-robin. Must be > 0. */
    double weight = 1.0;
    /**
     * Intra-replica tensor-parallel degree override. 0 (default)
     * keeps the engine's own degree; > 0 makes the router derive an
     * owned engine from `engine->config()` with this degree —
     * heterogeneous clusters (say TP=4 next to TP=1 replicas) then
     * need only one template engine. Must pass tp::validateTpDegree
     * for the engine's model (see validateClusterConfig).
     */
    int tp_degree = 0;
    /**
     * Per-replica KV pool override, in full-model blocks. 0 keeps
     * the engine's memory fraction; > 0 resizes the derived engine's
     * pool via engineConfigWithKvBlocks — the knob that keeps a
     * heterogeneous cluster's replicas at equal admission capacity
     * when their TP degrees (and thus per-GPU budgets) differ.
     */
    int64_t kv_blocks = 0;
};

/** A replica drain scheduled at a virtual time: deterministic, and
 * replayed identically on every run. The drain takes effect before
 * the first placement at or after @ref at_us. */
struct ScheduledDrain {
    int replica = 0;    ///< replica index to drain
    double at_us = 0.0; ///< virtual fire time, microseconds
};

/** Cluster configuration: the replica set plus the per-replica
 * server template. */
struct ClusterConfig {
    /** The replicas (at least one). */
    std::vector<ReplicaSpec> replicas;
    /**
     * Template for every replica's ServerConfig. The router rewrites
     * per replica: `metrics_prefix` becomes `cluster.replica.<i>`,
     * and tenant token-bucket rate limits are stripped (the cluster
     * edge enforces them once, at true arrival time). Tenant names,
     * weights, queue bounds, deadlines, SLOs, and prefix-caching
     * opt-ins apply to every replica alike.
     */
    server::ServerConfig server;
    /** Placement policy (see RoutingPolicy). */
    RoutingPolicy policy = RoutingPolicy::kConsistentHash;
    /** Deterministic drains to fire at virtual times. */
    std::vector<ScheduledDrain> drains;
};

/**
 * Validates a cluster configuration before construction: at least
 * one replica, every replica with an engine and positive weight, and
 * every tp_degree/kv_blocks override legal for its engine's model
 * (degree dividing the head, hidden, intermediate and vocab extents).
 * Returns a descriptive invalid-argument Status naming the offending
 * replica — the ClusterRouter constructor aborts on the same check,
 * so callers wanting a recoverable error validate first.
 */
Status validateClusterConfig(const ClusterConfig &config);

/** Router-level session counters (replica counters live in each
 * replica's ServerStats; see ClusterRouter::replicaStats). */
struct ClusterStats {
    int64_t submitted = 0; ///< cluster submit() calls (any verdict)
    int64_t routed = 0;    ///< requests forwarded to a replica
    int64_t rerouted = 0;  ///< placements moved off the first choice
    int64_t drains = 0;    ///< replica drains fired
    int64_t drains_skipped = 0; ///< drains skipped (last replica)
    int64_t rejected = 0;  ///< rejected at the cluster edge
    int64_t cancelled = 0; ///< cancelled before reaching a replica
    /** Requests forwarded to each replica, by replica index. */
    std::vector<int64_t> routed_per_replica;
};

/**
 * The multi-replica serving router. Owns its replicas' Server
 * instances and a routing loop thread; thread-safe in the same
 * pattern as Server (client handles from any thread, one handle's
 * calls serialized by the caller).
 */
class ClusterRouter {
  public:
    /** A client handle on the cluster: the same handle type as
     * Server::Client (see server::ClientHandle). */
    using Client = server::ClientHandle<ClusterRouter>;

    /**
     * Builds the replica servers and starts the routing loop.
     * Engines must outlive the router.
     */
    explicit ClusterRouter(ClusterConfig config);

    /** Stops the router (cancelling in-flight work) and joins. */
    ~ClusterRouter();

    ClusterRouter(const ClusterRouter &) = delete;
    ClusterRouter &operator=(const ClusterRouter &) = delete;

    /**
     * Registers a cluster client; see Server::connect. The new
     * handle's horizon starts at the router's propagated ingress
     * floor (>= the published clock): the router forwards its
     * clients' joint horizon to the replicas as it advances, so a
     * later connect may not submit below what was already promised.
     * Keep at least one handle open (or connect all clients up
     * front) if mid-session connects are needed; once every handle
     * has closed and all work routed, the floor is infinite and a
     * new handle could never submit.
     */
    Client connect() { return Client(this, ingress_->connect()); }

    /**
     * Graceful cluster drain: closes ingress, routes what was
     * already submitted, drains every replica, and blocks until all
     * accepted streams reached a terminal event.
     */
    void drain() { ingress_->drain(); }

    /**
     * Ends the session and joins the routing loop. With
     * @p cancel_in_flight, unrouted requests are cancelled at the
     * cluster edge (ascending id order) and every replica is stopped
     * with cancellation; otherwise drains first. Idempotent.
     */
    void stop(bool cancel_in_flight = true);

    /**
     * Requests a drain of @p replica from any thread. The drain
     * lands at the router's next wall-clock iteration — use
     * ClusterConfig::drains for deterministic replays.
     */
    void requestDrain(int replica);

    /** Router counters (stable once drain()/stop() returned). */
    ClusterStats stats() const { return ingress_->stats(); }

    /** Replica count. */
    int numReplicas() const;

    /** Session counters of replica @p replica. */
    server::ServerStats replicaStats(int replica) const;

    /** Scheduler counters of replica @p replica. */
    SchedulerCounters replicaSchedulerCounters(int replica) const;

    /** Replica @p replica's KV cache for invariant audits; valid
     * once drain()/stop() returned (see Server::kvCacheForAudit). */
    const PagedKvCache &replicaKvCacheForAudit(int replica) const;

    /** Current cluster virtual clock, microseconds (the latest
     * committed router event time). */
    double virtualClockUs() const { return ingress_->clockUs(); }

    /** Replica @p replica's published virtual clock, microseconds.
     * Unlike the router clock (which tracks routing events only),
     * replica clocks advance through serving steps, so after a drain
     * their max is the session makespan. */
    double replicaVirtualClockUs(int replica) const;

    /**
     * The replica a request was placed on, or -1 when the request
     * is unknown, not yet routed, or was rejected/cancelled at the
     * cluster edge.
     */
    int placementOf(int64_t id) const;

  private:
    /** A submission queued from a client thread to the loop. */
    struct RouteRecord {
        server::StreamRequest request; ///< callback cleared
        server::TokenStreamPtr stream; ///< cluster-facing stream
        int tenant = 0;                ///< edge tenant index
    };

    /** What the loop publishes for stats() and placementOf(). */
    struct Published {
        ClusterStats stats;
        /** id -> replica, recorded at placement time. */
        std::map<int64_t, int> placements;
    };

    friend class server::ClientHandle<ClusterRouter>;

    void loop();
    server::TokenStreamPtr
    submitFromClient(size_t client,
                     const server::StreamRequest &request);
    void acceptSubmit(RouteRecord &&record);
    bool stepOnce();
    void fireDueDrains(double now_us);
    void drainReplica(int replica);
    void propagateHorizons();
    void advanceReplicas(double now_us);
    void settleReplicas(double now_us);
    void applyReleases(double now_us);
    void recordRelease(int64_t id, double virtual_us);
    void routeArrivalsAt(double now_us);
    void placeRequest(int64_t id);
    void forwardToReplica(int replica, RouteRecord &&record);
    int choosePlacement(uint64_t key);
    int secondChoice(uint64_t key, int first) const;
    int leastLoaded(int excluded) const;
    bool fitsReplica(int replica,
                     const server::StreamRequest &request) const;
    int activeCount() const;
    void rejectAtEdge(int64_t id, server::RejectReason reason);
    void cancelAtEdge(server::TokenStream &stream);
    void processEdgeCancellations();
    void cancelUnrouted();
    void completeSession();
    void stopReplicas(bool cancel_in_flight);
    bool routerIdle() const;
    void publish(bool complete);

    ClusterConfig config_;
    /** Engines derived for replicas with tp_degree/kv_blocks
     * overrides. Declared before servers_ so every Server's engine
     * outlives it. */
    std::vector<std::unique_ptr<ServingEngine>> owned_engines_;
    std::vector<std::unique_ptr<server::Server>> servers_;
    std::vector<server::Server::Client> handles_;
    std::unique_ptr<server::FairAdmissionQueue> fair_edge_;

    /** The ingress gate shared with client threads (the same
     * protocol each replica's Server runs). */
    std::shared_ptr<server::IngressGate<RouteRecord, Published>> ingress_;
    std::thread loop_thread_;
    std::mutex join_mutex_; ///< serializes stop()'s join

    /** Wall-clock drain requests the loop has not taken yet
     * (requestDrain queues here, then pokes the gate). */
    std::mutex drain_mutex_;
    std::vector<int> drain_requests_;

    /** Terminal-event releases recorded by replica loop threads;
     * applied by the router loop once settled (strictly before the
     * current event time). */
    std::mutex release_mutex_;
    std::vector<std::pair<double, int64_t>> releases_;

    // --- Loop-owned state (the routing loop thread only) ---
    /** Pending arrivals, ordered by (arrival_us, id). */
    std::set<std::pair<double, int64_t>> pending_order_;
    std::map<int64_t, RouteRecord> pending_;
    /** Unfired scheduled drains, ordered by (at_us, replica). */
    std::set<std::pair<double, int>> drain_order_;
    std::vector<bool> replica_active_;
    /** Reserved-KV-block load per replica (least-loaded policy). */
    std::vector<int64_t> reserved_blocks_;
    /** id -> (replica, reserved blocks) for routed, non-terminal
     * streams (least-loaded policy). */
    std::map<int64_t, std::pair<int, int64_t>> outstanding_;
    ConsistentHashRing ring_;
    SmoothWeightedRoundRobin wrr_;
    ClusterStats stats_;
    bool session_done_ = false;
    double clock_ = 0.0;
};

} // namespace cluster
} // namespace comet

#endif // COMET_CLUSTER_ROUTER_H_
