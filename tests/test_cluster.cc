/**
 * @file
 * Tests for the multi-replica cluster router: single-server
 * equivalence, placement affinity (replica-local prefix reuse),
 * graceful drain with zero dropped streams, cross-replica fair
 * admission, and bit-identical replays across thread counts.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comet/chaos/harness.h"
#include "comet/chaos/script.h"
#include "comet/cluster/cluster_loadgen.h"
#include "comet/cluster/router.h"
#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {
namespace cluster {
namespace {

using server::LoadgenConfig;
using server::LoadgenReport;
using server::RequestOutcome;
using server::StreamEventKind;

/** The small KV-bound engine every cluster test serves against. */
EngineConfig
testEngineConfig(int64_t kv_blocks = 2048)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    return engineConfigWithKvBlocks(config, kv_blocks);
}

ClusterConfig
clusterConfig(const ServingEngine *engine, int replicas,
              const LoadgenConfig &workload,
              RoutingPolicy policy = RoutingPolicy::kConsistentHash)
{
    ClusterConfig config;
    for (int r = 0; r < replicas; ++r) {
        ReplicaSpec spec;
        spec.engine = engine;
        config.replicas.push_back(spec);
    }
    config.policy = policy;
    config.server.tenants = server::loadgenTenants(workload);
    config.server.max_batch = 16;
    return config;
}

class ClusterTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::MetricsRegistry::global().reset();
    }
};

TEST_F(ClusterTest, OneReplicaClusterMatchesBareServer)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(31, /*smoke=*/true);

    server::ServerConfig server_config;
    server_config.tenants = server::loadgenTenants(workload);
    server_config.max_batch = 16;
    server::Server server(&engine, server_config);
    const LoadgenReport single = runLoadgen(&server, workload);
    server.stop();

    ClusterRouter router(clusterConfig(&engine, 1, workload));
    const LoadgenReport routed =
        runClusterLoadgen(&router, workload);
    router.stop(/*cancel_in_flight=*/false);

    // Token-stream equality, request by request: same verdicts, same
    // token counts, same virtual timestamps.
    ASSERT_EQ(single.outcomes.size(), routed.outcomes.size());
    for (size_t i = 0; i < single.outcomes.size(); ++i) {
        const RequestOutcome &a = single.outcomes[i];
        const RequestOutcome &b = routed.outcomes[i];
        EXPECT_EQ(a.terminal, b.terminal) << "id " << i;
        EXPECT_EQ(a.tokens, b.tokens) << "id " << i;
        EXPECT_DOUBLE_EQ(a.first_token_us, b.first_token_us)
            << "id " << i;
        EXPECT_DOUBLE_EQ(a.last_token_us, b.last_token_us)
            << "id " << i;
        if (b.terminal == StreamEventKind::kRejected)
            EXPECT_TRUE(b.replica == -1 || b.replica == 0);
        else
            EXPECT_EQ(b.replica, 0);
    }
    EXPECT_DOUBLE_EQ(single.makespan_us, routed.makespan_us);
    EXPECT_EQ(server::renderLoadgenReport(single),
              server::renderLoadgenReport(routed));

    const ClusterStats stats = router.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<int64_t>(routed.outcomes.size()));
    EXPECT_EQ(stats.routed, stats.submitted - stats.rejected);
}

TEST_F(ClusterTest, TerminalStreamsAreReleased)
{
    // A routed stream and its replica-side twin point at each other:
    // the forwarding callback one way, the cancel hook the other. Once
    // the stream is terminal and the session is over, dropping the
    // caller's pointer must free it.
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(31, /*smoke=*/true);
    std::weak_ptr<server::TokenStream> watched;
    {
        ClusterRouter router(clusterConfig(&engine, 2, workload));
        ClusterRouter::Client client = router.connect();
        server::StreamRequest request;
        request.id = 0;
        request.tenant = workload.tenants[0].admission.name;
        request.prompt_tokens = 64;
        request.max_output_tokens = 8;
        server::TokenStreamPtr stream = client.submit(request);
        client.close();
        watched = stream;
        server::StreamEvent event;
        int64_t tokens = 0;
        while (stream->next(&event))
            tokens += event.kind == StreamEventKind::kToken ? 1 : 0;
        EXPECT_EQ(tokens, 8);
        router.stop(/*cancel_in_flight=*/false);
    }
    EXPECT_TRUE(watched.expired());
}

/** @p replicas replicas of @p engine serving the one tenant "t". */
ClusterConfig
oneTenantCluster(const ServingEngine *engine, int replicas,
                 RoutingPolicy policy = RoutingPolicy::kConsistentHash)
{
    ClusterConfig config;
    for (int r = 0; r < replicas; ++r) {
        ReplicaSpec spec;
        spec.engine = engine;
        config.replicas.push_back(spec);
    }
    config.policy = policy;
    server::TenantConfig tenant;
    tenant.name = "t";
    config.server.tenants = {tenant};
    config.server.max_batch = 16;
    return config;
}

server::StreamRequest
gateRequest(int64_t id, double arrival_us, const std::string &tenant = "t")
{
    server::StreamRequest request;
    request.id = id;
    request.tenant = tenant;
    request.prompt_tokens = 64;
    request.max_output_tokens = 2;
    request.eos_output_tokens = 2;
    request.arrival_us = arrival_us;
    return request;
}

/** Reads @p stream to its terminal event. */
void
drainStream(const server::TokenStreamPtr &stream)
{
    server::StreamEvent event;
    while (stream->next(&event)) {
    }
}

TEST_F(ClusterTest, EdgeRejectsCarryTheRouterClock)
{
    // The router's submit path refuses an unknown tenant, and any
    // submission after drain(), at once: the stream ends kRejected
    // before submit() returns, stamped with the router's published
    // clock, and ClusterStats counts both.
    const ServingEngine engine(testEngineConfig());
    ClusterRouter router(oneTenantCluster(&engine, 2));
    ClusterRouter::Client a = router.connect();
    ClusterRouter::Client b = router.connect();
    b.advanceTo(1e7);
    server::TokenStreamPtr served = a.submit(gateRequest(1, 1000.0));
    a.advanceTo(1e7);
    drainStream(served);
    EXPECT_EQ(served->terminalKind(), StreamEventKind::kFinished);
    // Routing events are the router clock's only ticks.
    EXPECT_DOUBLE_EQ(router.virtualClockUs(), 1000.0);

    server::TokenStreamPtr unknown =
        a.submit(gateRequest(2, 1e7, "nope"));
    ASSERT_TRUE(unknown->done());
    EXPECT_EQ(unknown->terminalKind(), StreamEventKind::kRejected);
    EXPECT_EQ(unknown->terminalReason(),
              server::RejectReason::kUnknownTenant);
    server::StreamEvent event;
    ASSERT_TRUE(unknown->next(&event));
    EXPECT_DOUBLE_EQ(event.virtual_us, 1000.0);

    a.close();
    router.drain();
    server::TokenStreamPtr late = b.submit(gateRequest(3, 1e7));
    ASSERT_TRUE(late->done());
    EXPECT_EQ(late->terminalKind(), StreamEventKind::kRejected);
    EXPECT_EQ(late->terminalReason(),
              server::RejectReason::kShuttingDown);
    ASSERT_TRUE(late->next(&event));
    EXPECT_DOUBLE_EQ(event.virtual_us, router.virtualClockUs());
    EXPECT_DOUBLE_EQ(event.virtual_us, 1000.0);

    const ClusterStats stats = router.stats();
    EXPECT_EQ(stats.submitted, 3);
    EXPECT_EQ(stats.rejected, 2);
    EXPECT_EQ(stats.routed, 1);
    const obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    EXPECT_EQ(registry.counterValue("cluster.submitted"), 3);
    EXPECT_EQ(registry.counterValue("cluster.rejected"), 2);
    router.stop();
}

TEST_F(ClusterTest, LateConnectStartsAtThePropagatedFloor)
{
    // Once the router has promised its replicas no submission below
    // the joint client horizon (the propagated floor, here 1e7 while
    // the router clock sits at the 1000 us routing event), a client
    // connecting later starts at max(clock, floor): a submission at
    // the floor is served, one below it is refused at the edge.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const ServingEngine engine(testEngineConfig());
    ClusterRouter router(oneTenantCluster(&engine, 2));
    ClusterRouter::Client a = router.connect();
    server::TokenStreamPtr first = a.submit(gateRequest(1, 1000.0));
    a.advanceTo(1e7);
    // The replica finishes the request only once the router has
    // forwarded the 1e7 horizon to it.
    drainStream(first);
    EXPECT_EQ(first->terminalKind(), StreamEventKind::kFinished);
    EXPECT_DOUBLE_EQ(router.virtualClockUs(), 1000.0);

    ClusterRouter::Client b = router.connect();
    EXPECT_DEATH(b.submit(gateRequest(2, 5e6)),
                 "nondecreasing per client");
    server::TokenStreamPtr second = b.submit(gateRequest(2, 1e7));
    a.close();
    b.close();
    router.drain();
    EXPECT_EQ(second->terminalKind(), StreamEventKind::kFinished);
    EXPECT_DOUBLE_EQ(router.virtualClockUs(), 1e7);
    router.stop();
}

TEST_F(ClusterTest, GateWaitReplansForEarlierSubmissions)
{
    // With the routing loop parked in its clock-advance wait toward a
    // known arrival, a submission with an earlier arrival lands. The
    // gate re-plans: the newcomer is routed first, at its own arrival
    // time, exactly as when it beat the loop to the inbox.
    const ServingEngine engine(testEngineConfig());
    struct Run {
        int early_replica = -1;
        int late_replica = -1;
        std::vector<double> times;
    };
    auto run = [&](bool let_gate_block_first) {
        ClusterRouter router(oneTenantCluster(
            &engine, 2, RoutingPolicy::kWeightedRoundRobin));
        ClusterRouter::Client a = router.connect();
        ClusterRouter::Client b = router.connect();
        server::TokenStreamPtr late = a.submit(gateRequest(1, 50000.0));
        a.close();
        if (let_gate_block_first) {
            // Wall time for the loop to enter the wait toward 50 ms.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        server::TokenStreamPtr early = b.submit(gateRequest(2, 1000.0));
        b.close();
        router.drain();
        Run result;
        result.early_replica = router.placementOf(2);
        result.late_replica = router.placementOf(1);
        server::StreamEvent event;
        while (early->next(&event))
            result.times.push_back(event.virtual_us);
        while (late->next(&event))
            result.times.push_back(event.virtual_us);
        router.stop();
        return result;
    };

    const Run eager = run(false);
    const Run delayed = run(true);
    // Smooth weighted round-robin over equal weights places its first
    // pick on replica 0: the earlier arrival was routed first.
    for (const Run *r : {&eager, &delayed}) {
        EXPECT_EQ(r->early_replica, 0);
        EXPECT_EQ(r->late_replica, 1);
    }
    ASSERT_EQ(eager.times.size(), delayed.times.size());
    for (size_t i = 0; i < eager.times.size(); ++i)
        EXPECT_DOUBLE_EQ(eager.times[i], delayed.times[i]);
    ASSERT_GE(delayed.times.size(), 1u);
    EXPECT_LT(delayed.times[0], 50000.0);
}

TEST_F(ClusterTest, RequestedDrainInterruptsTheGateWait)
{
    // A wall-clock drain request pokes the gate: with the routing loop
    // parked in its clock-advance wait toward a pending arrival, the
    // drain lands before that arrival is placed.
    const ServingEngine engine(testEngineConfig());
    ClusterRouter router(oneTenantCluster(
        &engine, 2, RoutingPolicy::kWeightedRoundRobin));
    ClusterRouter::Client a = router.connect();
    ClusterRouter::Client b = router.connect();
    a.submit(gateRequest(1, 50000.0));
    a.close();
    // Wall time for the loop to enter the wait toward 50 ms (b's open
    // horizon holds it there until b closes).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Queued and poked before b closes, the drain reaches the loop
    // before the arrival can be placed, however the threads interleave.
    router.requestDrain(0);
    b.close();
    router.drain();
    // Smooth weighted round-robin would place the first pick on
    // replica 0; drained, it is skipped.
    EXPECT_EQ(router.placementOf(1), 1);
    EXPECT_EQ(router.stats().drains, 1);
    EXPECT_EQ(router.stats().routed_per_replica[0], 0);
    router.stop();
}

TEST_F(ClusterTest, RequestedDrainShowsInStatsWhileAClientIsOpen)
{
    // The routing loop parks in its clock-advance wait toward a
    // pending arrival while b's horizon is open; a drain it handled
    // on the way there must already show in stats().
    const ServingEngine engine(testEngineConfig());
    ClusterRouter router(oneTenantCluster(&engine, 2));
    ClusterRouter::Client a = router.connect();
    ClusterRouter::Client b = router.connect();
    a.submit(gateRequest(1, 50000.0));
    a.close();
    router.requestDrain(0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (router.stats().drains == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(router.stats().drains, 1);
    b.close();
    router.drain();
    EXPECT_EQ(router.placementOf(1), 1);
    router.stop();
}

TEST_F(ClusterTest, HashAffinityKeepsPrefixReuseReplicaLocal)
{
    const ServingEngine engine(testEngineConfig());
    LoadgenConfig workload =
        server::mixedSloWorkload(7, /*smoke=*/true);
    // Real prompt content drawn from shared per-tenant pools, and
    // prefix caching on: the traffic the hash policy exists for.
    for (server::LoadgenTenant &tenant : workload.tenants) {
        tenant.shared_prompt_pools = 2;
        tenant.admission.prefix_caching = true;
    }

    ClusterConfig config = clusterConfig(
        &engine, 4, workload, RoutingPolicy::kConsistentHash);
    config.server.enable_prefix_cache = true;
    for (server::TenantConfig &tenant : config.server.tenants)
        tenant.prefix_caching = true;
    ClusterRouter router(config);
    const LoadgenReport report =
        runClusterLoadgen(&router, workload);

    // Placement affinity: every pair of requests sharing (tenant,
    // leading prompt tokens) landed on the same replica — prefix
    // reuse never needs to cross a replica boundary, which is also
    // the isolation property (replicas share no cache state).
    const std::vector<server::LoadgenRequest> generated =
        server::generateLoadgenWorkload(workload);
    std::map<std::pair<int, int32_t>, int> group_replica;
    for (size_t i = 0; i < generated.size(); ++i) {
        if (report.outcomes[i].replica < 0)
            continue;
        ASSERT_FALSE(generated[i].prompt_ids.empty());
        const std::pair<int, int32_t> group = {
            generated[i].tenant, generated[i].prompt_ids[0]};
        auto it = group_replica.find(group);
        if (it == group_replica.end()) {
            group_replica.emplace(group,
                                  report.outcomes[i].replica);
        } else {
            EXPECT_EQ(it->second, report.outcomes[i].replica)
                << "tenant " << group.first << " pool prompt moved "
                << "across replicas (request " << i << ")";
        }
    }
    EXPECT_GT(group_replica.size(), 1u);

    // The grafts actually happened, replica-locally.
    int64_t prefix_hits = 0;
    for (int r = 0; r < router.numReplicas(); ++r)
        prefix_hits += router.replicaStats(r).prefix_hits;
    EXPECT_GT(prefix_hits, 0);
    router.stop(/*cancel_in_flight=*/false);
}

TEST_F(ClusterTest, ScheduledDrainCompletesAllStreams)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(11, /*smoke=*/true);

    ClusterConfig config = clusterConfig(
        &engine, 4, workload, RoutingPolicy::kWeightedRoundRobin);
    // Drain replica 2 mid-workload: the smoke mix spans several
    // virtual seconds, so 0.4 s lands between arrivals.
    ScheduledDrain drain;
    drain.replica = 2;
    drain.at_us = 4e5;
    config.drains.push_back(drain);
    ClusterRouter router(config);
    const LoadgenReport report =
        runClusterLoadgen(&router, workload);

    const ClusterStats stats = router.stats();
    EXPECT_EQ(stats.drains, 1);
    EXPECT_EQ(stats.drains_skipped, 0);

    // Zero dropped streams: every submission ended kFinished or
    // kRejected — never kCancelled — and token conservation holds
    // against the summed replica counters.
    EXPECT_EQ(report.cancelled, 0);
    EXPECT_EQ(report.completed + report.rejected, report.submitted);
    int64_t replica_tokens = 0;
    for (int r = 0; r < router.numReplicas(); ++r)
        replica_tokens += router.replicaStats(r).streamed_tokens;
    EXPECT_EQ(report.tokens, replica_tokens);

    // Nothing was routed to the drained replica after the drain
    // fired, but it did serve traffic before.
    EXPECT_GT(stats.routed_per_replica[2], 0);
    for (const RequestOutcome &outcome : report.outcomes) {
        if (outcome.arrival_us >= drain.at_us) {
            EXPECT_NE(outcome.replica, 2)
                << "arrival at " << outcome.arrival_us;
        }
    }
    router.stop(/*cancel_in_flight=*/false);
}

TEST_F(ClusterTest, DrainingLastReplicaIsSkipped)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(13, /*smoke=*/true);

    ClusterConfig config = clusterConfig(&engine, 2, workload);
    for (int r = 0; r < 2; ++r) {
        ScheduledDrain drain;
        drain.replica = r;
        drain.at_us = 1e5;
        config.drains.push_back(drain);
    }
    ClusterRouter router(config);
    const LoadgenReport report =
        runClusterLoadgen(&router, workload);

    // The first drain fires; the second would leave zero active
    // replicas and is skipped — the workload still completes.
    const ClusterStats stats = router.stats();
    EXPECT_EQ(stats.drains, 1);
    EXPECT_EQ(stats.drains_skipped, 1);
    EXPECT_EQ(report.cancelled, 0);
    EXPECT_EQ(report.completed + report.rejected, report.submitted);
    router.stop(/*cancel_in_flight=*/false);
}

TEST_F(ClusterTest, PoliciesSpreadLoadAcrossReplicas)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(17, /*smoke=*/true);
    for (RoutingPolicy policy :
         {RoutingPolicy::kLeastLoaded,
          RoutingPolicy::kWeightedRoundRobin}) {
        obs::MetricsRegistry::global().reset();
        ClusterRouter router(
            clusterConfig(&engine, 4, workload, policy));
        const LoadgenReport report =
            runClusterLoadgen(&router, workload);
        EXPECT_EQ(report.completed + report.rejected,
                  report.submitted)
            << routingPolicyName(policy);
        const ClusterStats stats = router.stats();
        for (int r = 0; r < 4; ++r) {
            EXPECT_GT(stats.routed_per_replica[static_cast<size_t>(
                          r)],
                      0)
                << routingPolicyName(policy) << " replica " << r;
        }
        // The per-policy placement counter matched the routed count.
        EXPECT_EQ(obs::MetricsRegistry::global()
                      .counter(std::string("cluster.policy.") +
                               routingPolicyName(policy) +
                               ".placements")
                      .value(),
                  stats.routed);
        router.stop(/*cancel_in_flight=*/false);
    }
}

TEST_F(ClusterTest, PerReplicaMetricsNamespacesAreDisjoint)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(19, /*smoke=*/true);
    ClusterRouter router(clusterConfig(&engine, 2, workload));
    const LoadgenReport report =
        runClusterLoadgen(&router, workload);
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    // Each replica publishes under its own prefix; the summed
    // per-replica submissions equal the routed total.
    const int64_t r0 =
        registry.counter("cluster.replica.0.submitted").value();
    const int64_t r1 =
        registry.counter("cluster.replica.1.submitted").value();
    EXPECT_GT(r0, 0);
    EXPECT_GT(r1, 0);
    EXPECT_EQ(r0 + r1, router.stats().routed);
    EXPECT_EQ(registry.counter("cluster.routed").value(),
              router.stats().routed);
    EXPECT_EQ(registry.counter("cluster.submitted").value(),
              report.submitted);
    // The bare "server.*" namespace stayed empty: replicas never
    // leak into the single-server names.
    EXPECT_EQ(registry.counter("server.submitted").value(), 0);
    router.stop(/*cancel_in_flight=*/false);
}

TEST_F(ClusterTest, RendersPerReplicaReport)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        server::mixedSloWorkload(23, /*smoke=*/true);
    ClusterRouter router(clusterConfig(&engine, 2, workload));
    const LoadgenReport report =
        runClusterLoadgen(&router, workload);
    const std::string rendered =
        renderClusterLoadgenReport(report, 2);
    EXPECT_NE(rendered.find("replica"), std::string::npos);
    EXPECT_NE(rendered.find("ttft p99"), std::string::npos);
    // Re-rendering is byte-stable.
    EXPECT_EQ(rendered, renderClusterLoadgenReport(report, 2));
    router.stop(/*cancel_in_flight=*/false);
}

TEST_F(ClusterTest, ReplicaSeedsAreDistinctAndStable)
{
    EXPECT_EQ(server::deriveReplicaSeed(42, 0),
              server::deriveReplicaSeed(42, 0));
    EXPECT_NE(server::deriveReplicaSeed(42, 0),
              server::deriveReplicaSeed(42, 1));
    EXPECT_NE(server::deriveReplicaSeed(42, 0),
              server::deriveReplicaSeed(43, 0));
    EXPECT_NE(server::deriveReplicaSeed(42, 0), 42u);
}

TEST_F(ClusterTest, FaultedClusterReplaysBitIdenticallyAcrossThreads)
{
    chaos::ChaosScriptConfig config;
    config.seed = 29;
    config.steps = 300;
    const std::vector<chaos::ChaosStep> script =
        chaos::generateChaosScript(config);
    chaos::ChaosFaultConfig faults;
    faults.seed = 29;
    faults.route_every = 7;
    faults.drain_every = 41;

    ThreadPool::setGlobalThreads(1);
    const chaos::ClusterChaosRunResult serial =
        chaos::runClusterChaosScript(script, config, &faults, 4,
                                     RoutingPolicy::kConsistentHash);
    ThreadPool::setGlobalThreads(8);
    const chaos::ClusterChaosRunResult pooled =
        chaos::runClusterChaosScript(script, config, &faults, 4,
                                     RoutingPolicy::kConsistentHash);
    ThreadPool::setGlobalThreads(0); // back to the environment pick

    EXPECT_TRUE(serial.ok) << serial.failure;
    EXPECT_TRUE(pooled.ok) << pooled.failure;
    ASSERT_FALSE(serial.event_log.empty());
    EXPECT_EQ(serial.event_log, pooled.event_log);
    EXPECT_EQ(serial.replica_streamed_tokens,
              pooled.replica_streamed_tokens);
    EXPECT_EQ(serial.cluster_stats.routed,
              pooled.cluster_stats.routed);
    EXPECT_EQ(serial.cluster_stats.rerouted,
              pooled.cluster_stats.rerouted);
    EXPECT_EQ(serial.cluster_stats.drains,
              pooled.cluster_stats.drains);
    EXPECT_EQ(serial.cluster_stats.routed_per_replica,
              pooled.cluster_stats.routed_per_replica);
    // The armed failpoints actually fired.
    EXPECT_GT(serial.cluster_stats.rerouted, 0);
    EXPECT_GT(serial.cluster_stats.drains, 0);
}

TEST_F(ClusterTest, UnfaultedClusterSoakHoldsAllInvariants)
{
    chaos::ChaosScriptConfig config;
    config.seed = 37;
    config.steps = 250;
    const std::vector<chaos::ChaosStep> script =
        chaos::generateChaosScript(config);
    const chaos::ClusterChaosRunResult result =
        chaos::runClusterChaosScript(script, config, nullptr, 3,
                                     RoutingPolicy::kLeastLoaded);
    EXPECT_TRUE(result.ok) << result.failure;
    EXPECT_GT(result.replica_completed, 0);
    EXPECT_FALSE(result.event_log.empty());
}

} // namespace
} // namespace cluster
} // namespace comet
