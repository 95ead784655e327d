/**
 * @file
 * Tests for the chaos subsystem: failpoint triggers and injection
 * sites, scheduled virtual-time cancels, seeded workload scripts,
 * delta-debugging shrinks, the model-based fuzzers, and bit-identical
 * faulted replay of the full server harness.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "comet/chaos/failpoint.h"
#include "comet/chaos/harness.h"
#include "comet/chaos/invariants.h"
#include "comet/chaos/script.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/server/server.h"

namespace comet {
namespace chaos {
namespace {

/** A ~120-block KV4 cache (the fuzzers' pool size). */
PagedKvCache
smallCache()
{
    KvCacheConfig config;
    config.bits_per_value = 4.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = 64e6;
    return PagedKvCache(LlmConfig::llama3_8b(), config);
}

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

server::ServerConfig
oneTenantConfig()
{
    server::ServerConfig config;
    server::TenantConfig tenant;
    tenant.name = "t";
    config.tenants = {tenant};
    config.max_batch = 16;
    return config;
}

/** Every test starts with clean metrics and no armed failpoint. */
class ChaosTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::MetricsRegistry::global().reset();
        FailPointRegistry::global().disarmAll();
    }

    void
    TearDown() override
    {
        FailPointRegistry::global().disarmAll();
    }
};

TEST_F(ChaosTest, DisarmedFailpointsNeverFire)
{
    EXPECT_FALSE(FailPointRegistry::armed());
    EXPECT_FALSE(COMET_FAILPOINT("chaos.test.unarmed"));
    // The disarmed fast path must not even count hits.
    EXPECT_EQ(FailPointRegistry::global().hitCount(
                  "chaos.test.unarmed"),
              0);
}

TEST_F(ChaosTest, NthHitFiresExactlyOnce)
{
    FailPointRegistry::global().arm("chaos.test.fp",
                                    FailPointSpec::nthHit(3));
    EXPECT_TRUE(FailPointRegistry::armed());
    std::vector<bool> fired;
    for (int i = 0; i < 10; ++i)
        fired.push_back(COMET_FAILPOINT("chaos.test.fp"));
    const std::vector<bool> expected{false, false, true,  false,
                                     false, false, false, false,
                                     false, false};
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(FailPointRegistry::global().hitCount("chaos.test.fp"),
              10);
    EXPECT_EQ(FailPointRegistry::global().fireCount("chaos.test.fp"),
              1);
}

TEST_F(ChaosTest, EveryNthFiresPeriodically)
{
    FailPointRegistry::global().arm("chaos.test.fp",
                                    FailPointSpec::everyNth(4));
    int fires = 0;
    for (int i = 0; i < 12; ++i) {
        const bool fired = COMET_FAILPOINT("chaos.test.fp");
        EXPECT_EQ(fired, (i + 1) % 4 == 0) << "hit " << i;
        fires += fired ? 1 : 0;
    }
    EXPECT_EQ(fires, 3);
}

TEST_F(ChaosTest, HitListFiresOnExactlyTheListedHits)
{
    FailPointRegistry::global().arm(
        "chaos.test.fp", FailPointSpec::atHits({5, 0, 2}));
    std::vector<int> fired_at;
    for (int i = 0; i < 8; ++i) {
        if (COMET_FAILPOINT("chaos.test.fp"))
            fired_at.push_back(i);
    }
    EXPECT_EQ(fired_at, (std::vector<int>{0, 2, 5}));
}

TEST_F(ChaosTest, ProbabilityScheduleIsSeededAndCapped)
{
    const auto run = [] {
        FailPointRegistry::global().arm(
            "chaos.test.fp",
            FailPointSpec::withProbability(0.5, 42,
                                           /*max_fires=*/3));
        std::vector<bool> pattern;
        for (int i = 0; i < 64; ++i)
            pattern.push_back(COMET_FAILPOINT("chaos.test.fp"));
        return pattern;
    };
    const std::vector<bool> first = run();
    const std::vector<bool> second = run();
    EXPECT_EQ(first, second); // re-arming resets the seeded draws
    int fires = 0;
    for (const bool fired : first)
        fires += fired ? 1 : 0;
    EXPECT_EQ(fires, 3); // the cap binds at p = 0.5 over 64 hits
    EXPECT_EQ(FailPointRegistry::global().fireCount("chaos.test.fp"),
              3);
}

TEST_F(ChaosTest, ArmingOneNameLeavesOthersInert)
{
    FailPointRegistry::global().arm("chaos.test.a",
                                    FailPointSpec::everyNth(1));
    EXPECT_TRUE(COMET_FAILPOINT("chaos.test.a"));
    EXPECT_FALSE(COMET_FAILPOINT("chaos.test.b"));
    FailPointRegistry::global().disarm("chaos.test.a");
    EXPECT_FALSE(FailPointRegistry::armed());
}

TEST_F(ChaosTest, FiresAreCountedInTheMetricsRegistry)
{
    FailPointRegistry::global().arm("chaos.test.fp",
                                    FailPointSpec::everyNth(2));
    for (int i = 0; i < 10; ++i)
        (void)COMET_FAILPOINT("chaos.test.fp");
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .counter("chaos.failpoint.chaos.test.fp")
                  .value(),
              5);
}

// ---- Injection sites -------------------------------------------------

TEST_F(ChaosTest, InjectedKvAllocFailureRollsBackCleanly)
{
    PagedKvCache cache = smallCache();
    // Fire on the 3rd block allocation: the failure lands mid-chain
    // and the first two blocks must be rolled back.
    FailPointRegistry::global().arm("kv.alloc",
                                    FailPointSpec::nthHit(3));
    const Status status = cache.addSequence(1, 5 * 16);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(checkKvCacheQuiescent(cache).isOk());
    FailPointRegistry::global().disarmAll();
    EXPECT_TRUE(cache.addSequence(1, 5 * 16).isOk());
    EXPECT_TRUE(checkKvCacheConsistency(cache).isOk());
}

TEST_F(ChaosTest, SchedulerRetriesAdmissionAfterInjectedExhaustion)
{
    PagedKvCache cache = smallCache();
    BatchSchedulerConfig config;
    config.max_batch = 4;
    BatchScheduler scheduler(&cache, config);
    Request request;
    request.id = 1;
    request.prompt_tokens = 32;
    request.max_output_tokens = 4;
    scheduler.submit(request);

    FailPointRegistry::global().arm("kv.alloc",
                                    FailPointSpec::nthHit(1));
    EXPECT_EQ(scheduler.admit(), 0); // injected fault: head stays
    EXPECT_EQ(scheduler.queuedCount(), 1);
    EXPECT_TRUE(checkKvCacheQuiescent(cache).isOk());
    FailPointRegistry::global().disarmAll();
    EXPECT_EQ(scheduler.admit(), 1); // recoverable: retry succeeds
    EXPECT_EQ(scheduler.runningCount(), 1);
}

TEST_F(ChaosTest, InjectedPreemptionReprefillsLikeARealOne)
{
    PagedKvCache cache = smallCache();
    BatchSchedulerConfig config;
    config.max_batch = 4;
    BatchScheduler scheduler(&cache, config);
    Request request;
    request.id = 1;
    request.prompt_tokens = 32;
    request.max_output_tokens = 4;
    scheduler.submit(request);
    ASSERT_EQ(scheduler.admit(), 1);

    FailPointRegistry::global().arm("sched.preempt",
                                    FailPointSpec::nthHit(1));
    scheduler.step(); // the victim is evicted before decoding
    EXPECT_EQ(scheduler.counters().preemptions, 1);
    EXPECT_EQ(scheduler.runningCount(), 0);
    EXPECT_EQ(scheduler.queuedCount(), 1);
    EXPECT_TRUE(checkKvCacheConsistency(cache).isOk());
    FailPointRegistry::global().disarmAll();
    while (scheduler.finishedCount() < 1) {
        scheduler.admit();
        scheduler.step();
    }
    EXPECT_TRUE(checkKvCacheQuiescent(cache).isOk());
}

TEST_F(ChaosTest, InjectedAdmissionExpiryRejectsWithoutADeadline)
{
    server::TenantConfig tenant;
    tenant.name = "t"; // no admission deadline configured
    server::FairAdmissionQueue queue({tenant});
    server::PendingRequest request;
    request.id = 1;
    request.prompt_tokens = 8;
    request.max_output_tokens = 2;
    ASSERT_EQ(queue.offer(std::move(request), 0.0),
              server::RejectReason::kNone);

    FailPointRegistry::global().arm("admission.expire",
                                    FailPointSpec::nthHit(1));
    server::PendingRequest out;
    std::vector<server::PendingRequest> expired;
    EXPECT_FALSE(queue.pick(0.0, &out, &expired));
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 1);
    EXPECT_TRUE(queue.empty());
}

TEST_F(ChaosTest, InjectedIngressCancelEndsExactlyOneStream)
{
    const ServingEngine engine(testEngineConfig());
    server::Server server(&engine, oneTenantConfig());
    // The first ingested arrival (the earliest) is cancelled as if
    // its client disconnected while admission raced it.
    FailPointRegistry::global().arm("server.ingress",
                                    FailPointSpec::nthHit(1));
    server::Server::Client client = server.connect();
    server::StreamRequest request;
    request.tenant = "t";
    request.prompt_tokens = 32;
    // Long enough to outlive the iteration that ingests it: the
    // injected cancel flag is observed at the next loop boundary.
    request.max_output_tokens = 64;
    request.id = 1;
    request.arrival_us = 0.0;
    server::TokenStreamPtr first = client.submit(request);
    request.id = 2;
    request.arrival_us = 10.0;
    server::TokenStreamPtr second = client.submit(request);
    client.close();
    server.drain();

    EXPECT_EQ(first->terminalKind(),
              server::StreamEventKind::kCancelled);
    EXPECT_LT(first->tokenCount(), 64);
    EXPECT_EQ(second->terminalKind(),
              server::StreamEventKind::kFinished);
    EXPECT_EQ(second->tokenCount(), 64);
    const server::ServerStats stats = server.stats();
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_TRUE(
        checkKvCacheQuiescent(server.kvCacheForAudit()).isOk());
    server.stop();
}

// ---- Scheduled virtual-time cancels ---------------------------------

TEST_F(ChaosTest, CancelScheduledAtArrivalLandsBeforeAnyToken)
{
    const ServingEngine engine(testEngineConfig());
    server::Server server(&engine, oneTenantConfig());
    server::Server::Client client = server.connect();
    server::StreamRequest request;
    request.id = 1;
    request.tenant = "t";
    request.prompt_tokens = 32;
    request.max_output_tokens = 8;
    request.arrival_us = 1000.0;
    request.cancel_at_us = 1000.0; // abandon the instant it arrives
    server::TokenStreamPtr stream = client.submit(request);
    client.close();
    server.drain();

    EXPECT_EQ(stream->terminalKind(),
              server::StreamEventKind::kCancelled);
    EXPECT_EQ(stream->tokenCount(), 0);
    EXPECT_EQ(server.stats().cancelled, 1);
    EXPECT_EQ(server.stats().streamed_tokens, 0);
    server.stop();
}

TEST_F(ChaosTest, CancelScheduledAfterCompletionIsANoOp)
{
    const ServingEngine engine(testEngineConfig());
    server::Server server(&engine, oneTenantConfig());
    server::Server::Client client = server.connect();
    server::StreamRequest request;
    request.id = 1;
    request.tenant = "t";
    request.prompt_tokens = 32;
    request.max_output_tokens = 3;
    request.eos_output_tokens = 3;
    request.arrival_us = 0.0;
    request.cancel_at_us = 1e12; // long after the stream finishes
    server::TokenStreamPtr stream = client.submit(request);
    client.close();
    server.drain();

    EXPECT_EQ(stream->terminalKind(),
              server::StreamEventKind::kFinished);
    EXPECT_EQ(stream->tokenCount(), 3);
    EXPECT_EQ(server.stats().cancelled, 0);
    server.stop();
}

// ---- Scripts and shrinking ------------------------------------------

TEST_F(ChaosTest, ScriptGenerationIsSeedDeterministic)
{
    ChaosScriptConfig config;
    config.seed = 9;
    config.steps = 300;
    const std::vector<ChaosStep> a = generateChaosScript(config);
    const std::vector<ChaosStep> b = generateChaosScript(config);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(renderChaosScript(a), renderChaosScript(b));
    config.seed = 10;
    EXPECT_NE(renderChaosScript(a),
              renderChaosScript(generateChaosScript(config)));
}

TEST_F(ChaosTest, ScriptTimesStrictlyIncreaseAndIdsAreUnique)
{
    ChaosScriptConfig config;
    config.seed = 3;
    config.steps = 500;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    ASSERT_EQ(script.size(), 500u);
    double last_us = -1.0;
    std::vector<int64_t> ids;
    for (const ChaosStep &step : script) {
        EXPECT_GT(step.time_us, last_us);
        last_us = step.time_us;
        EXPECT_GE(step.client, 0);
        EXPECT_LT(step.client, config.clients);
        if (step.kind == ChaosStepKind::kSubmit) {
            ids.push_back(step.id);
            EXPECT_GT(step.prompt_tokens, 0);
            EXPECT_GT(step.max_output_tokens, 0);
            EXPECT_LE(step.eos_output_tokens,
                      step.max_output_tokens);
            if (step.cancel_at_us != 0.0) {
                EXPECT_GE(step.cancel_at_us, step.time_us);
            }
        }
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) ==
                ids.end());
}

TEST_F(ChaosTest, ShrinkReducesToTheSingleCulpritStep)
{
    ChaosScriptConfig config;
    config.seed = 5;
    config.steps = 200;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    // Find some submit step mid-script and pretend only it "fails".
    int64_t culprit = 0;
    for (const ChaosStep &step : script) {
        if (step.kind == ChaosStepKind::kSubmit)
            culprit = step.id;
    }
    ASSERT_NE(culprit, 0);
    int runs = 0;
    const std::vector<ChaosStep> shrunk = shrinkChaosScript(
        script,
        [&](const std::vector<ChaosStep> &candidate) {
            ++runs;
            for (const ChaosStep &step : candidate) {
                if (step.kind == ChaosStepKind::kSubmit &&
                    step.id == culprit) {
                    return true;
                }
            }
            return false;
        },
        /*max_runs=*/512);
    ASSERT_EQ(shrunk.size(), 1u);
    EXPECT_EQ(shrunk[0].id, culprit);
    EXPECT_GT(runs, 0);
}

TEST_F(ChaosTest, QuiescenceCheckerFlagsALiveSequence)
{
    PagedKvCache cache = smallCache();
    ASSERT_TRUE(cache.addSequence(1, 16).isOk());
    EXPECT_TRUE(checkKvCacheConsistency(cache).isOk());
    const Status status = checkKvCacheQuiescent(cache);
    EXPECT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("sequences still live"),
              std::string::npos);
    cache.removeSequence(1);
    EXPECT_TRUE(checkKvCacheQuiescent(cache).isOk());
}

// ---- Model-based fuzzers --------------------------------------------

TEST_F(ChaosTest, KvModelFuzzHoldsCleanAndUnderFaults)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const Status clean = runKvModelFuzz(seed, 300, false);
        EXPECT_TRUE(clean.isOk()) << clean.toString();
        const Status faulted = runKvModelFuzz(seed, 300, true);
        EXPECT_TRUE(faulted.isOk()) << faulted.toString();
    }
}

TEST_F(ChaosTest, SchedulerFuzzHoldsCleanAndUnderFaults)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const Status clean = runSchedulerFuzz(seed, 300, false);
        EXPECT_TRUE(clean.isOk()) << clean.toString();
        const Status faulted = runSchedulerFuzz(seed, 300, true);
        EXPECT_TRUE(faulted.isOk()) << faulted.toString();
    }
}

TEST_F(ChaosTest, PrefixFuzzHoldsCleanAndUnderFaults)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const Status clean = runPrefixFuzz(seed, 300, false);
        EXPECT_TRUE(clean.isOk()) << clean.toString();
        const Status faulted = runPrefixFuzz(seed, 300, true);
        EXPECT_TRUE(faulted.isOk()) << faulted.toString();
    }
}

// ---- The full server harness ----------------------------------------

TEST_F(ChaosTest, ScriptedServerRunHoldsAllInvariants)
{
    ChaosScriptConfig config;
    config.seed = 7;
    config.steps = 250;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    const ChaosRunResult result =
        runChaosScript(script, config, nullptr);
    EXPECT_TRUE(result.ok) << result.failure;
    EXPECT_GT(result.stats.completed, 0);
    EXPECT_FALSE(result.event_log.empty());
}

TEST_F(ChaosTest, FaultedRunReplaysBitIdenticallyAcrossThreadCounts)
{
    ChaosScriptConfig config;
    config.seed = 11;
    config.steps = 400;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    ChaosFaultConfig faults;
    faults.seed = 11;

    ThreadPool::setGlobalThreads(1);
    const ChaosRunResult serial =
        runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(4);
    const ChaosRunResult pooled =
        runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(0); // back to the environment pick

    EXPECT_TRUE(serial.ok) << serial.failure;
    EXPECT_TRUE(pooled.ok) << pooled.failure;
    EXPECT_FALSE(serial.event_log.empty());
    EXPECT_EQ(serial.event_log, pooled.event_log);
    EXPECT_EQ(serial.stats.streamed_tokens,
              pooled.stats.streamed_tokens);
    EXPECT_EQ(serial.stats.completed, pooled.stats.completed);
    EXPECT_EQ(serial.stats.rejected, pooled.stats.rejected);
    EXPECT_EQ(serial.stats.cancelled, pooled.stats.cancelled);
    // The faulted run actually injected something.
    EXPECT_GT(pooled.stats.cancelled + pooled.stats.rejected, 0);
}

TEST_F(ChaosTest, PrefixScriptGraftsAndReplaysBitIdentically)
{
    ChaosScriptConfig config;
    config.seed = 13;
    config.steps = 400;
    config.prefix = true;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    ChaosFaultConfig faults;
    faults.seed = 13;
    faults.graft_every = 11; // forced misses on the graft path too

    ThreadPool::setGlobalThreads(1);
    const ChaosRunResult serial =
        runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(4);
    const ChaosRunResult pooled =
        runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(0);

    EXPECT_TRUE(serial.ok) << serial.failure;
    EXPECT_TRUE(pooled.ok) << pooled.failure;
    EXPECT_FALSE(serial.event_log.empty());
    EXPECT_EQ(serial.event_log, pooled.event_log);
    // The cache genuinely grafted despite the armed graft failpoint,
    // and both replays agree on every prefix counter.
    EXPECT_GT(serial.stats.prefix_matched_tokens, 0);
    EXPECT_GT(serial.stats.prefix_hits, 0);
    EXPECT_EQ(serial.stats.prefix_matched_tokens,
              pooled.stats.prefix_matched_tokens);
    EXPECT_EQ(serial.stats.prefix_hits, pooled.stats.prefix_hits);
    EXPECT_EQ(serial.stats.prefix_blocks_matched,
              pooled.stats.prefix_blocks_matched);
}

// ---- Pinned event logs ----------------------------------------------
//
// The threads-1-vs-8 replay checks above compare two runs of the same
// code; these pin what that code produces. Each case is a fixed
// (script, fault schedule, front end) whose event log is digested
// with 64-bit FNV-1a and printed with the final counters; any change
// to what a chaos run submits, observes or counts moves the line.

/** FNV-1a, 64-bit, of @p text, as 16 hex digits. */
std::string
fnv1aHex(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, h);
    return buffer;
}

/** The 300-step script of @p seed, in prefix mode when asked. */
ChaosScriptConfig
pinScriptConfig(uint64_t seed, bool prefix = false)
{
    ChaosScriptConfig config;
    config.seed = seed;
    config.steps = 300;
    config.prefix = prefix;
    return config;
}

/** Digest and final counters of one faulted server run. */
std::string
serverPin(const ChaosScriptConfig &config,
          const ChaosFaultConfig &faults)
{
    const ChaosRunResult result = runChaosScript(
        generateChaosScript(config), config, &faults);
    EXPECT_TRUE(result.ok) << result.failure;
    const server::ServerStats &s = result.stats;
    char line[192];
    std::snprintf(line, sizeof(line),
                  " sub=%lld done=%lld rej=%lld can=%lld tok=%lld "
                  "graft=%lld",
                  static_cast<long long>(s.submitted),
                  static_cast<long long>(s.completed),
                  static_cast<long long>(s.rejected),
                  static_cast<long long>(s.cancelled),
                  static_cast<long long>(s.streamed_tokens),
                  static_cast<long long>(s.prefix_matched_tokens));
    return fnv1aHex(result.event_log) + line;
}

/** Digest and final counters of one faulted 4-replica cluster run. */
std::string
clusterPin(const ChaosScriptConfig &config,
           cluster::RoutingPolicy policy,
           const std::vector<int> &tp_degrees = {})
{
    ChaosFaultConfig faults;
    faults.seed = config.seed;
    faults.route_every = 7;
    faults.drain_every = 41;
    const ClusterChaosRunResult result =
        runClusterChaosScript(generateChaosScript(config), config,
                              &faults, 4, policy, tp_degrees);
    EXPECT_TRUE(result.ok) << result.failure;
    const cluster::ClusterStats &s = result.cluster_stats;
    char line[192];
    std::snprintf(line, sizeof(line),
                  " sub=%lld routed=%lld rerouted=%lld drains=%lld "
                  "rej=%lld can=%lld done=%lld tok=%lld",
                  static_cast<long long>(s.submitted),
                  static_cast<long long>(s.routed),
                  static_cast<long long>(s.rerouted),
                  static_cast<long long>(s.drains),
                  static_cast<long long>(s.rejected),
                  static_cast<long long>(s.cancelled),
                  static_cast<long long>(result.replica_completed),
                  static_cast<long long>(
                      result.replica_streamed_tokens));
    return fnv1aHex(result.event_log) + line;
}

TEST_F(ChaosTest, ServerEventLogsArePinned)
{
    ChaosFaultConfig faults;
    faults.seed = 41;
    EXPECT_EQ(serverPin(pinScriptConfig(41), faults),
              "c8ab785d0f1ea104"
              " sub=279 done=104 rej=124 can=51 tok=988 graft=0");

    ChaosFaultConfig graft;
    graft.seed = 43;
    graft.graft_every = 23;
    EXPECT_EQ(serverPin(pinScriptConfig(43, /*prefix=*/true), graft),
              "45875ae6f25f7d83"
              " sub=279 done=115 rej=106 can=58 tok=1082 graft=7600");

    ChaosScriptConfig chunked = pinScriptConfig(47);
    chunked.chunk_tokens = 48;
    ChaosFaultConfig chunk;
    chunk.seed = 47;
    chunk.chunk_every = 5;
    EXPECT_EQ(serverPin(chunked, chunk),
              "05ceb9a695c0ae3d"
              " sub=271 done=117 rej=108 can=46 tok=1183 graft=0");

    ChaosScriptConfig sharded = pinScriptConfig(53);
    sharded.tp_degree = 2;
    ChaosFaultConfig allreduce;
    allreduce.seed = 53;
    allreduce.allreduce_every = 13;
    EXPECT_EQ(serverPin(sharded, allreduce),
              "84c2e34a47725e97"
              " sub=277 done=120 rej=107 can=50 tok=1021 graft=0");
}

TEST_F(ChaosTest, ClusterEventLogsArePinned)
{
    using cluster::RoutingPolicy;
    EXPECT_EQ(clusterPin(pinScriptConfig(59),
                         RoutingPolicy::kLeastLoaded),
              "d98456b95ad139c1 sub=268 routed=221 rerouted=17"
              " drains=3 rej=47 can=0 done=133 tok=1435");
    EXPECT_EQ(clusterPin(pinScriptConfig(61),
                         RoutingPolicy::kConsistentHash),
              "7f6b53ed7b45ff3e sub=269 routed=222 rerouted=17"
              " drains=3 rej=47 can=0 done=132 tok=1328");
    EXPECT_EQ(clusterPin(pinScriptConfig(67),
                         RoutingPolicy::kWeightedRoundRobin),
              "35e5e062788378e7 sub=271 routed=221 rerouted=17"
              " drains=3 rej=50 can=0 done=141 tok=1312");
    // Heterogeneous tensor parallelism across the four replicas.
    EXPECT_EQ(clusterPin(pinScriptConfig(71),
                         RoutingPolicy::kLeastLoaded, {1, 2, 4, 2}),
              "ec261e3cf629aabd sub=268 routed=229 rerouted=17"
              " drains=3 rej=39 can=0 done=137 tok=1379");
    EXPECT_EQ(clusterPin(pinScriptConfig(73, /*prefix=*/true),
                         RoutingPolicy::kConsistentHash),
              "4f5216e3ad0f9e59 sub=264 routed=226 rerouted=17"
              " drains=3 rej=38 can=0 done=147 tok=1422");
}

// ---- Always-on checks along chaos paths (satellite: a violated
// COMET_CHECK aborts with its message in every build type) -----------

using ChaosDeathTest = ChaosTest;

TEST_F(ChaosDeathTest, BlockAccountingChecksAbortWithTheirMessage)
{
PagedKvCache cache = smallCache();
    ASSERT_TRUE(cache.addSequence(1, 16).isOk());
    // The chaos-path accounting checks must hold in Release builds
    // too: COMET_CHECK never compiles out, and the abort carries the
    // violated expression's message.
    EXPECT_DEATH(cache.removeSequence(7), "unknown sequence id");
    EXPECT_DEATH(cache.sequenceBlocks(7), "unknown sequence id");
    cache.removeSequence(1);
}

TEST_F(ChaosDeathTest, InvalidFailPointSpecsAbort)
{
EXPECT_DEATH(FailPointSpec::nthHit(0), "n >= 1");
    EXPECT_DEATH(FailPointSpec::withProbability(1.5, 0),
                 "p >= 0.0 && p <= 1.0");
    EXPECT_DEATH(FailPointRegistry::global().arm(
                     "", FailPointSpec::nthHit(1)),
                 "failpoint names must be non-empty");
}

} // namespace
} // namespace chaos
} // namespace comet
