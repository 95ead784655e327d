#include "comet/cluster/router.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "comet/chaos/failpoint.h"
#include "comet/common/status.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"
#include "comet/tp/shard.h"

namespace comet {
namespace cluster {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

obs::Counter &
clusterCounter(const std::string &name)
{
    return obs::MetricsRegistry::global().counter("cluster." + name);
}

/** SplitMix64 finalizer (see placement.cc — kept local so the
 * anonymous namespaces stay independent). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Canonical prompt-prefix span the placement key hashes: one
 * default KV block of leading token ids. Replica-geometry
 * independent, so heterogeneous clusters hash identically. */
constexpr int64_t kPlacementPrefixTokens = 16;

uint64_t
requestPlacementKey(const server::StreamRequest &request)
{
    uint64_t prefix_hash = 0;
    bool has_prefix = false;
    if (!request.prompt_ids.empty()) {
        const int64_t span = std::min<int64_t>(
            kPlacementPrefixTokens,
            static_cast<int64_t>(request.prompt_ids.size()));
        prefix_hash = mix64(static_cast<uint64_t>(span));
        for (int64_t i = 0; i < span; ++i) {
            prefix_hash = mix64(
                prefix_hash ^
                static_cast<uint64_t>(static_cast<uint32_t>(
                    request.prompt_ids[static_cast<size_t>(i)])));
        }
        has_prefix = true;
    }
    return placementKey(request.tenant, prefix_hash, has_prefix);
}

} // namespace

Status
validateClusterConfig(const ClusterConfig &config)
{
    if (config.replicas.empty()) {
        return Status::invalidArgument(
            "a cluster needs at least one replica");
    }
    for (size_t i = 0; i < config.replicas.size(); ++i) {
        const ReplicaSpec &spec = config.replicas[i];
        const std::string where = "replica " + std::to_string(i);
        if (spec.engine == nullptr)
            return Status::invalidArgument(where + " has no engine");
        if (!(spec.weight > 0.0)) {
            return Status::invalidArgument(
                where + " needs a positive placement weight");
        }
        if (spec.tp_degree < 0 || spec.kv_blocks < 0) {
            return Status::invalidArgument(
                where +
                " overrides must be non-negative (0 = inherit)");
        }
        if (spec.tp_degree > 0) {
            const Status tp_ok = tp::validateTpDegree(
                spec.engine->config().model, spec.tp_degree);
            if (!tp_ok.isOk()) {
                return Status::invalidArgument(where + ": " +
                                               tp_ok.message());
            }
        }
    }
    return Status::ok();
}

ClusterRouter::ClusterRouter(ClusterConfig config)
    : config_(std::move(config))
{
    const Status valid = validateClusterConfig(config_);
    COMET_CHECK_MSG(valid.isOk(), valid.message().c_str());
    const size_t n = config_.replicas.size();
    std::vector<double> weights;
    for (size_t i = 0; i < n; ++i) {
        const ReplicaSpec &spec = config_.replicas[i];
        const ServingEngine *engine = spec.engine;
        if (spec.tp_degree > 0 || spec.kv_blocks > 0) {
            EngineConfig derived = spec.engine->config();
            if (spec.tp_degree > 0)
                derived.tensor_parallel = spec.tp_degree;
            if (spec.kv_blocks > 0) {
                derived =
                    engineConfigWithKvBlocks(derived, spec.kv_blocks);
            }
            owned_engines_.push_back(
                std::make_unique<ServingEngine>(derived));
            engine = owned_engines_.back().get();
        }
        server::ServerConfig replica_config = config_.server;
        replica_config.metrics_prefix =
            "cluster.replica." + std::to_string(i);
        // Rate limits are enforced once, at the cluster edge; a
        // replica applying them again would double-charge tenants
        // whose traffic concentrates on it.
        for (server::TenantConfig &tenant : replica_config.tenants)
            tenant.rate_limit_per_s = 0.0;
        servers_.push_back(std::make_unique<server::Server>(
            engine, std::move(replica_config)));
        ring_.addReplica(static_cast<int>(i), spec.weight);
        weights.push_back(spec.weight);
    }
    wrr_.reset(weights);
    for (size_t i = 0; i < n; ++i)
        handles_.push_back(servers_[i]->connect());
    replica_active_.assign(n, true);
    reserved_blocks_.assign(n, 0);
    stats_.routed_per_replica.assign(n, 0);

    // The edge queue re-uses the per-replica fairness machinery with
    // edge semantics: weights and rate limits apply (enforced here,
    // at true arrival time), queue bounds and deadlines do not (the
    // edge never holds a request across an event, so they could
    // never trigger — they stay per-replica, where real queueing
    // happens).
    std::vector<server::TenantConfig> edge_tenants =
        config_.server.tenants;
    for (server::TenantConfig &tenant : edge_tenants) {
        tenant.max_queued = 0;
        tenant.admission_deadline_us = 0.0;
    }
    fair_edge_ = std::make_unique<server::FairAdmissionQueue>(
        edge_tenants);

    for (const ScheduledDrain &drain : config_.drains) {
        COMET_CHECK(drain.replica >= 0 &&
                    drain.replica < static_cast<int>(n));
        COMET_CHECK(drain.at_us >= 0.0);
        drain_order_.insert({drain.at_us, drain.replica});
    }

    ingress_ = std::make_shared<server::IngressGate<RouteRecord, Published>>(
        "cluster");
    ingress_->update(
        [&](Published &published) { published.stats = stats_; });
    loop_thread_ = std::thread(&ClusterRouter::loop, this);
}

ClusterRouter::~ClusterRouter() { stop(true); }

server::TokenStreamPtr
ClusterRouter::submitFromClient(size_t client,
                                const server::StreamRequest &request)
{
    // Until the request is routed, a cancellation pokes the router;
    // forwardToReplica re-points the poke at the replica stream.
    return ingress_->submit(
        client, request, config_.server.tenants,
        [&](int tenant, const server::TokenStreamPtr &stream) {
            RouteRecord record;
            record.request = request;
            record.request.callback = nullptr;
            record.stream = stream;
            record.tenant = tenant;
            return record;
        });
}

void
ClusterRouter::stop(bool cancel_in_flight)
{
    ingress_->requestStop(cancel_in_flight);
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (loop_thread_.joinable())
        loop_thread_.join();
}

void
ClusterRouter::requestDrain(int replica)
{
    COMET_CHECK(replica >= 0 && replica < numReplicas());
    {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        drain_requests_.push_back(replica);
    }
    ingress_->poke();
}

int
ClusterRouter::numReplicas() const
{
    return static_cast<int>(servers_.size());
}

server::ServerStats
ClusterRouter::replicaStats(int replica) const
{
    COMET_CHECK(replica >= 0 && replica < numReplicas());
    return servers_[static_cast<size_t>(replica)]->stats();
}

SchedulerCounters
ClusterRouter::replicaSchedulerCounters(int replica) const
{
    COMET_CHECK(replica >= 0 && replica < numReplicas());
    return servers_[static_cast<size_t>(replica)]
        ->schedulerCounters();
}

const PagedKvCache &
ClusterRouter::replicaKvCacheForAudit(int replica) const
{
    COMET_CHECK(replica >= 0 && replica < numReplicas());
    return servers_[static_cast<size_t>(replica)]->kvCacheForAudit();
}

double
ClusterRouter::replicaVirtualClockUs(int replica) const
{
    COMET_CHECK(replica >= 0 && replica < numReplicas());
    return servers_[static_cast<size_t>(replica)]->virtualClockUs();
}

int
ClusterRouter::placementOf(int64_t id) const
{
    return ingress_->read([id](const Published &published) {
        auto it = published.placements.find(id);
        return it == published.placements.end() ? -1 : it->second;
    });
}

// --------------------------------------------------------------------
// Routing loop
// --------------------------------------------------------------------

void
ClusterRouter::loop()
{
    obs::configureFromEnv();
    COMET_SPAN("cluster/session");
    for (;;) {
        auto wakeup = ingress_->waitForWork([&] {
            // A client horizon moved past what the replicas were
            // promised: wake to propagate, or a fully-routed session
            // would leave the replicas gated forever.
            return !routerIdle() || ingress_->horizonsPastFloorLocked();
        });
        std::vector<int> drain_requests;
        {
            std::lock_guard<std::mutex> lock(drain_mutex_);
            drain_requests.swap(drain_requests_);
        }
        for (RouteRecord &record : wakeup.inbox)
            acceptSubmit(std::move(record));
        for (int replica : drain_requests)
            drainReplica(replica);
        // Publish the drains now: stepOnce may park in the gate's
        // clock-advance wait until a client horizon moves.
        if (!drain_requests.empty())
            publish(/*complete=*/false);
        if (wakeup.stop && wakeup.cancel) {
            cancelUnrouted();
            stopReplicas(true);
            publish(/*complete=*/true);
            return;
        }
        processEdgeCancellations();
        propagateHorizons();
        if (!routerIdle()) {
            if (!stepOnce()) {
                cancelUnrouted();
                stopReplicas(true);
                publish(/*complete=*/true);
                return;
            }
            publish(/*complete=*/false);
            continue;
        }
        if (wakeup.draining || wakeup.stop) {
            completeSession();
            publish(/*complete=*/true);
            if (wakeup.stop) {
                stopReplicas(wakeup.cancel);
                return;
            }
            continue;
        }
        publish(/*complete=*/false);
    }
}

void
ClusterRouter::acceptSubmit(RouteRecord &&record)
{
    const int64_t id = record.request.id;
    COMET_CHECK_MSG(pending_.find(id) == pending_.end(),
                    "request ids must be unique per session");
    pending_order_.insert({record.request.arrival_us, id});
    pending_.emplace(id, std::move(record));
}

bool
ClusterRouter::stepOnce()
{
    const double next_arrival =
        pending_order_.empty() ? kInfinity
                               : pending_order_.begin()->first;
    const double next_drain = drain_order_.empty()
                                  ? kInfinity
                                  : drain_order_.begin()->first;
    const double target = std::min(next_arrival, next_drain);
    if (target == kInfinity)
        return true;
    if (target > clock_) {
        switch (ingress_->waitToAdvance(target, /*replan=*/true)) {
          case server::AdvanceOutcome::kInterrupted:
            return false;
          case server::AdvanceOutcome::kReplan:
            return true; // the outer loop re-enters stepOnce
          case server::AdvanceOutcome::kAdvance:
            clock_ = target;
            ingress_->commitClock(clock_);
            break;
        }
    }
    // A drain scheduled at t takes effect before any placement at or
    // after t.
    fireDueDrains(clock_);
    if (pending_order_.empty() ||
        pending_order_.begin()->first > clock_)
        return true;
    const double now = pending_order_.begin()->first;
    // Every replica's ingress horizon reaches the event time before
    // any submission at it — the per-replica extension of the
    // cluster gate.
    advanceReplicas(now);
    if (config_.policy == RoutingPolicy::kLeastLoaded)
        settleReplicas(now);
    routeArrivalsAt(now);
    return true;
}

void
ClusterRouter::fireDueDrains(double now_us)
{
    while (!drain_order_.empty() &&
           drain_order_.begin()->first <= now_us) {
        const int replica = drain_order_.begin()->second;
        drain_order_.erase(drain_order_.begin());
        drainReplica(replica);
    }
}

void
ClusterRouter::drainReplica(int replica)
{
    if (replica < 0 || replica >= numReplicas())
        return;
    if (!replica_active_[static_cast<size_t>(replica)])
        return;
    if (activeCount() <= 1) {
        // Availability wins: draining the last active replica would
        // leave nowhere to place traffic.
        ++stats_.drains_skipped;
        clusterCounter("drains_skipped").add();
        return;
    }
    COMET_SPAN("cluster/drain");
    replica_active_[static_cast<size_t>(replica)] = false;
    ++stats_.drains;
    clusterCounter("drains").add();
    // Close our ingress handle (the replica's gate opens fully) and
    // let in-flight streams run to completion — zero drops. The
    // blocking wait is deterministic: the replica's completion is a
    // virtual-time fact, independent of wall-clock interleaving.
    handles_[static_cast<size_t>(replica)].close();
    servers_[static_cast<size_t>(replica)]->drain();
}

void
ClusterRouter::propagateHorizons()
{
    // The cluster ingress floor: no future forward can be below the
    // least client horizon, nor below the earliest accepted arrival
    // still waiting to route (queued here, or still in the gate's
    // inbox while its client may already have closed). Replicas may
    // advance their clocks up to it — this is what lets them finish
    // the final batch (floor becomes infinity once every client
    // closed and everything routed) instead of idling at the last
    // event time.
    const std::optional<double> floor = ingress_->raiseFloor(
        pending_order_.empty() ? kInfinity
                               : pending_order_.begin()->first);
    if (floor)
        advanceReplicas(*floor);
}

void
ClusterRouter::advanceReplicas(double now_us)
{
    for (size_t i = 0; i < handles_.size(); ++i) {
        if (replica_active_[i])
            handles_[i].advanceTo(now_us);
    }
}

void
ClusterRouter::settleReplicas(double now_us)
{
    // Reserved-block accounting must observe exactly the terminal
    // events stamped strictly before the event time: wait for every
    // replica's settled horizon (drained replicas settle at
    // infinity), then fold in the releases below it. Records at
    // exactly now_us stay queued — the settled promise does not
    // cover them, and a run racing ahead must not see more releases
    // than a replay.
    for (size_t i = 0; i < servers_.size(); ++i)
        servers_[i]->waitSettled(now_us);
    applyReleases(now_us);
}

void
ClusterRouter::applyReleases(double now_us)
{
    std::lock_guard<std::mutex> lock(release_mutex_);
    auto it = releases_.begin();
    while (it != releases_.end()) {
        if (it->first < now_us) {
            auto held = outstanding_.find(it->second);
            COMET_CHECK(held != outstanding_.end());
            const int replica = held->second.first;
            reserved_blocks_[static_cast<size_t>(replica)] -=
                held->second.second;
            COMET_CHECK(
                reserved_blocks_[static_cast<size_t>(replica)] >= 0);
            outstanding_.erase(held);
            it = releases_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ClusterRouter::recordRelease(int64_t id, double virtual_us)
{
    std::lock_guard<std::mutex> lock(release_mutex_);
    releases_.emplace_back(virtual_us, id);
}

void
ClusterRouter::routeArrivalsAt(double now_us)
{
    // Batch every arrival at the committed event time, offer the
    // batch to the edge fair queue, then place picks in start-time
    // weighted fair order: same-instant arrivals are placed by fair
    // share, not submission interleaving.
    std::vector<int64_t> batch;
    while (!pending_order_.empty() &&
           pending_order_.begin()->first <= now_us) {
        batch.push_back(pending_order_.begin()->second);
        pending_order_.erase(pending_order_.begin());
    }
    for (int64_t id : batch) {
        auto it = pending_.find(id);
        COMET_CHECK(it != pending_.end());
        const RouteRecord &record = it->second;
        server::PendingRequest pending;
        pending.id = id;
        pending.tenant = record.tenant;
        pending.arrival_us = record.request.arrival_us;
        pending.prompt_tokens = record.request.prompt_tokens;
        pending.max_output_tokens = record.request.max_output_tokens;
        pending.eos_output_tokens = record.request.eos_output_tokens;
        pending.stream = record.stream;
        const server::RejectReason verdict =
            fair_edge_->offer(std::move(pending), now_us);
        if (verdict != server::RejectReason::kNone)
            rejectAtEdge(id, verdict);
    }
    server::PendingRequest next;
    std::vector<server::PendingRequest> expired;
    while (fair_edge_->pick(now_us, &next, &expired)) {
        for (server::PendingRequest &e : expired)
            rejectAtEdge(e.id,
                         server::RejectReason::kDeadlineExpired);
        expired.clear();
        placeRequest(next.id);
    }
    for (server::PendingRequest &e : expired)
        rejectAtEdge(e.id, server::RejectReason::kDeadlineExpired);
    COMET_CHECK(fair_edge_->empty());
}

void
ClusterRouter::placeRequest(int64_t id)
{
    COMET_SPAN("cluster/route");
    auto it = pending_.find(id);
    COMET_CHECK(it != pending_.end());
    RouteRecord record = std::move(it->second);
    pending_.erase(it);

    const uint64_t key = requestPlacementKey(record.request);
    int chosen = choosePlacement(key);
    COMET_CHECK_MSG(chosen >= 0,
                    "placement with no active replica");

    // Chaos: inject a drain of the chosen replica mid-placement,
    // then re-place. Fired on the routing thread only, so the drain
    // schedule is a pure function of the placement sequence.
    if (COMET_FAILPOINT("cluster.drain")) {
        if (activeCount() > 1) {
            drainReplica(chosen);
            chosen = choosePlacement(key);
            COMET_CHECK(chosen >= 0);
        }
    }
    // Chaos: force the second-choice replica (a failover decision
    // without a failure).
    if (COMET_FAILPOINT("cluster.route")) {
        const int second = secondChoice(key, chosen);
        if (second >= 0 && second != chosen) {
            chosen = second;
            ++stats_.rerouted;
            clusterCounter("rerouted").add();
        }
    }
    // Never-fits reroute: a request too large for the chosen
    // replica's pool but servable elsewhere takes the lowest-index
    // fitting replica instead of bouncing off admission. If nowhere
    // fits, the chosen replica rejects kTooLarge exactly as a
    // single server would.
    if (!fitsReplica(chosen, record.request)) {
        for (int i = 0; i < numReplicas(); ++i) {
            if (i == chosen ||
                !replica_active_[static_cast<size_t>(i)])
                continue;
            if (fitsReplica(i, record.request)) {
                chosen = i;
                ++stats_.rerouted;
                clusterCounter("rerouted").add();
                break;
            }
        }
    }

    ++stats_.routed;
    ++stats_.routed_per_replica[static_cast<size_t>(chosen)];
    clusterCounter("routed").add();
    clusterCounter(std::string("policy.") +
                   routingPolicyName(config_.policy) +
                   ".placements")
        .add();
    ingress_->update(
        [&](Published &published) { published.placements[id] = chosen; });
    forwardToReplica(chosen, std::move(record));
}

void
ClusterRouter::forwardToReplica(int replica, RouteRecord &&record)
{
    const int64_t id = record.request.id;
    server::StreamRequest forward;
    forward.id = id;
    forward.tenant = record.request.tenant;
    forward.prompt_tokens = record.request.prompt_tokens;
    forward.prompt_ids = std::move(record.request.prompt_ids);
    forward.max_output_tokens = record.request.max_output_tokens;
    forward.eos_output_tokens = record.request.eos_output_tokens;
    forward.arrival_us = record.request.arrival_us;
    forward.cancel_at_us = record.request.cancel_at_us;

    server::TokenStreamPtr cluster_stream = record.stream;
    const bool track_release =
        config_.policy == RoutingPolicy::kLeastLoaded;
    if (track_release) {
        const int64_t blocks =
            servers_[static_cast<size_t>(replica)]
                ->kvBlocksForTokens(forward.prompt_tokens +
                                    forward.max_output_tokens);
        reserved_blocks_[static_cast<size_t>(replica)] += blocks;
        outstanding_.emplace(id, std::make_pair(replica, blocks));
    }
    // The replica delivers straight into the cluster-facing stream;
    // terminal events additionally release the reserved-block
    // accounting (applied by the routing loop once settled).
    forward.callback = [this, id, track_release,
                        cluster_stream](
                           const server::StreamEvent &event) {
        if (track_release && isTerminal(event.kind))
            recordRelease(id, event.virtual_us);
        cluster_stream->deliver(event);
    };
    server::TokenStreamPtr replica_stream =
        handles_[static_cast<size_t>(replica)].submit(forward);
    // From here on a cancellation goes straight to the replica. The
    // hook holds the replica stream weakly: its forwarding callback
    // already holds the cluster stream, and two strong references
    // would keep both streams alive forever. The replica keeps its
    // stream until the terminal event, after which a cancel is moot.
    const std::weak_ptr<server::TokenStream> weak_replica =
        replica_stream;
    cluster_stream->setCancelPoke([weak_replica] {
        if (server::TokenStreamPtr replica = weak_replica.lock())
            replica->requestCancel();
    });
    if (cluster_stream->cancelRequested() &&
        !replica_stream->cancelRequested())
        replica_stream->requestCancel();
}

int
ClusterRouter::choosePlacement(uint64_t key)
{
    int chosen = -1;
    switch (config_.policy) {
      case RoutingPolicy::kConsistentHash:
        chosen = ring_.pick(key, replica_active_);
        break;
      case RoutingPolicy::kLeastLoaded:
        chosen = leastLoaded(/*excluded=*/-1);
        break;
      case RoutingPolicy::kWeightedRoundRobin:
        chosen = wrr_.pick(replica_active_);
        break;
    }
    return chosen;
}

int
ClusterRouter::secondChoice(uint64_t key, int first) const
{
    if (config_.policy == RoutingPolicy::kConsistentHash)
        return ring_.pickSecond(key, replica_active_);
    if (config_.policy == RoutingPolicy::kLeastLoaded)
        return leastLoaded(first);
    for (int i = 0; i < numReplicas(); ++i) {
        if (i != first && replica_active_[static_cast<size_t>(i)])
            return i;
    }
    return -1;
}

int
ClusterRouter::leastLoaded(int excluded) const
{
    std::vector<ReplicaLoad> loads(servers_.size());
    for (size_t i = 0; i < servers_.size(); ++i) {
        loads[i].reserved_blocks = reserved_blocks_[i];
        loads[i].capacity_blocks = servers_[i]->kvTotalBlocks();
        loads[i].active =
            replica_active_[i] && static_cast<int>(i) != excluded;
    }
    return pickLeastLoaded(loads);
}

bool
ClusterRouter::fitsReplica(
    int replica, const server::StreamRequest &request) const
{
    const server::Server &server =
        *servers_[static_cast<size_t>(replica)];
    return server.kvBlocksForTokens(request.prompt_tokens +
                                    request.max_output_tokens) <=
           server.kvTotalBlocks();
}

int
ClusterRouter::activeCount() const
{
    int count = 0;
    for (bool active : replica_active_)
        count += active ? 1 : 0;
    return count;
}

void
ClusterRouter::rejectAtEdge(int64_t id, server::RejectReason reason)
{
    auto it = pending_.find(id);
    COMET_CHECK(it != pending_.end());
    const server::TokenStreamPtr stream = std::move(it->second.stream);
    pending_.erase(it);
    ++stats_.rejected;
    clusterCounter("rejected").add();
    stream->finish(server::StreamEventKind::kRejected, clock_, reason);
}

void
ClusterRouter::cancelAtEdge(server::TokenStream &stream)
{
    ++stats_.cancelled;
    clusterCounter("cancelled").add();
    stream.finish(server::StreamEventKind::kCancelled, clock_);
}

void
ClusterRouter::processEdgeCancellations()
{
    std::vector<int64_t> ids;
    for (const auto &entry : pending_) {
        if (entry.second.stream->cancelRequested())
            ids.push_back(entry.first);
    }
    for (int64_t id : ids) {
        auto it = pending_.find(id);
        COMET_CHECK(it != pending_.end());
        pending_order_.erase({it->second.request.arrival_us, id});
        const server::TokenStreamPtr stream =
            std::move(it->second.stream);
        pending_.erase(it);
        cancelAtEdge(*stream);
    }
}

void
ClusterRouter::cancelUnrouted()
{
    // A stop-with-cancel can land with submissions still in the
    // inbox; pull them in so every accepted stream terminates.
    for (RouteRecord &record : ingress_->takeInbox())
        acceptSubmit(std::move(record));
    for (auto &entry : pending_)
        cancelAtEdge(*entry.second.stream);
    pending_.clear();
    pending_order_.clear();
}

void
ClusterRouter::completeSession()
{
    if (session_done_)
        return;
    session_done_ = true;
    for (size_t i = 0; i < servers_.size(); ++i) {
        if (replica_active_[i])
            handles_[i].close();
        servers_[i]->drain();
    }
}

void
ClusterRouter::stopReplicas(bool cancel_in_flight)
{
    for (auto &server : servers_)
        server->stop(cancel_in_flight);
    session_done_ = true;
}

bool
ClusterRouter::routerIdle() const
{
    return pending_.empty();
}

void
ClusterRouter::publish(bool complete)
{
    ingress_->publish(clock_, complete,
                      [&](Published &published) {
                          published.stats = stats_;
                      });
}

} // namespace cluster
} // namespace comet
