/**
 * @file
 * Tensor-parallel equivalence suite: sharding is a latency
 * optimization, never a behaviour change. With the KV pool pinned to
 * the same block count, a TP=N engine must drive the scheduler — and
 * the full online server — through token-for-token the same streams
 * as TP=1, for every degree the model admits and at any
 * COMET_THREADS. (Step *latencies* legitimately differ: that is the
 * whole point of TP. What must not move is which request gets which
 * token when, in scheduler order.)
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comet/common/rng.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/model/llm_config.h"
#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {
namespace {

EngineConfig
tpEngineConfig(int tp_degree, int64_t blocks = 256)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    config.tensor_parallel = tp_degree;
    return engineConfigWithKvBlocks(config, blocks);
}

/** A seeded workload with varied prompt/output shapes. */
std::vector<Request>
workloadFromSeed(uint64_t seed, int64_t count)
{
    Rng rng(seed);
    std::vector<Request> requests;
    for (int64_t i = 0; i < count; ++i) {
        Request request;
        request.id = i;
        request.prompt_tokens =
            64 + static_cast<int64_t>(rng.uniformInt(96));
        request.max_output_tokens =
            4 + static_cast<int64_t>(rng.uniformInt(12));
        requests.push_back(request);
    }
    return requests;
}

/** Runs the workload through a scheduler whose cache is sized from
 * the engine's shard-aware KV pool, recording every request's
 * per-step token stream and terminal. */
std::vector<std::string>
runSchedulerWorkload(const std::vector<Request> &requests,
                     const ServingEngine &engine)
{
    KvCacheConfig cache_config;
    cache_config.bits_per_value =
        servingPrecision(engine.config().mode).kv_bits;
    cache_config.block_tokens = kKvBlockTokens;
    cache_config.memory_budget_bytes = engine.kvPoolBytes();
    PagedKvCache cache(engine.config().model, cache_config);
    BatchSchedulerConfig config;
    config.max_batch = 8;
    BatchScheduler scheduler(&cache, config);

    std::vector<std::string> streams(requests.size());
    size_t next = 0;
    int64_t steps = 0;
    while (next < requests.size() || !scheduler.idle()) {
        for (int i = 0; i < 2 && next < requests.size(); ++i)
            scheduler.submit(requests[next++]);
        scheduler.admit();
        scheduler.step();
        for (const Request &request : scheduler.running()) {
            streams[static_cast<size_t>(request.id)] +=
                std::to_string(request.generated_tokens) + ",";
        }
        for (const Request &request : scheduler.drainRetired()) {
            std::string &stream = streams[static_cast<size_t>(request.id)];
            // Appended piece by piece: GCC 12 -O3 flags
            // `"@" + std::to_string(...)` with a false -Wrestrict.
            stream += requestStateName(request.state);
            stream += '@';
            stream += std::to_string(request.generated_tokens);
        }
        if (++steps >= 100000) {
            ADD_FAILURE() << "workload did not converge";
            break;
        }
    }
    return streams;
}

TEST(TpEquivalenceTest, SchedulerStreamsIdenticalAcrossDegrees)
{
    for (uint64_t seed : {1u, 7u, 42u}) {
        const auto requests = workloadFromSeed(seed, 40);
        const ServingEngine baseline(tpEngineConfig(1));
        const auto expected =
            runSchedulerWorkload(requests, baseline);
        for (int tp : {2, 4, 8}) {
            const ServingEngine engine(tpEngineConfig(tp));
            EXPECT_EQ(runSchedulerWorkload(requests, engine),
                      expected)
                << "seed " << seed << " tp " << tp;
        }
    }
}

TEST(TpEquivalenceTest, SmallPoolPreemptionPatternsAlsoMatch)
{
    // 48 blocks: admission, preemption and re-prefill all fire. The
    // shard-aware accounting must keep even the pathological
    // schedules identical.
    const auto requests = workloadFromSeed(11, 48);
    const ServingEngine baseline(tpEngineConfig(1, 48));
    const auto expected = runSchedulerWorkload(requests, baseline);
    for (int tp : {2, 8}) {
        const ServingEngine engine(tpEngineConfig(tp, 48));
        EXPECT_EQ(runSchedulerWorkload(requests, engine), expected)
            << "tp " << tp;
    }
}

// ---- End-to-end: the online server ----

server::LoadgenConfig
serverWorkload(uint64_t seed)
{
    server::LoadgenConfig workload;
    workload.seed = seed;
    workload.clients = 4;
    server::LoadgenTenant tenant;
    tenant.admission.name = "a";
    tenant.arrival_rate_per_s = 100.0;
    tenant.requests = 24;
    tenant.prompt_min = 64;
    tenant.prompt_max = 128;
    tenant.output_min = 2;
    tenant.output_max = 12;
    server::LoadgenTenant other = tenant;
    other.admission.name = "b";
    workload.tenants = {tenant, other};
    return workload;
}

server::LoadgenReport
runServerWorkload(const server::LoadgenConfig &workload,
                  int tp_degree)
{
    obs::MetricsRegistry::global().reset();
    const ServingEngine engine(tpEngineConfig(tp_degree, 1024));
    server::ServerConfig config;
    config.tenants = server::loadgenTenants(workload);
    config.max_batch = 8;
    server::Server server(&engine, config);
    const server::LoadgenReport report =
        server::runLoadgen(&server, workload);
    server.stop();
    return report;
}

TEST(TpEquivalenceTest, ServerOutcomesIdenticalAcrossDegrees)
{
    const server::LoadgenConfig workload = serverWorkload(21);
    const server::LoadgenReport baseline =
        runServerWorkload(workload, 1);
    ASSERT_GT(baseline.completed, 0);
    for (int tp : {2, 4, 8}) {
        const server::LoadgenReport report =
            runServerWorkload(workload, tp);
        // Timings shift (that is TP working); verdicts, terminals
        // and token counts must not.
        ASSERT_EQ(report.outcomes.size(), baseline.outcomes.size())
            << "tp " << tp;
        for (size_t i = 0; i < report.outcomes.size(); ++i) {
            EXPECT_EQ(report.outcomes[i].terminal,
                      baseline.outcomes[i].terminal)
                << "tp " << tp << " request " << i;
            EXPECT_EQ(report.outcomes[i].tokens,
                      baseline.outcomes[i].tokens)
                << "tp " << tp << " request " << i;
        }
        EXPECT_EQ(report.completed, baseline.completed);
        EXPECT_EQ(report.tokens, baseline.tokens);
    }
}

TEST(TpEquivalenceTest, ShardedServerBitIdenticalAcrossThreads)
{
    // At a fixed degree the whole report — timings included — must
    // replay bit-identically at any pool size.
    const server::LoadgenConfig workload = serverWorkload(22);
    ThreadPool::setGlobalThreads(1);
    const server::LoadgenReport serial =
        runServerWorkload(workload, 4);
    ThreadPool::setGlobalThreads(4);
    const server::LoadgenReport pooled =
        runServerWorkload(workload, 4);
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(server::renderLoadgenReport(serial),
              server::renderLoadgenReport(pooled));
    ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
    for (size_t i = 0; i < serial.outcomes.size(); ++i) {
        EXPECT_EQ(serial.outcomes[i].tokens,
                  pooled.outcomes[i].tokens);
        EXPECT_EQ(serial.outcomes[i].first_token_us,
                  pooled.outcomes[i].first_token_us);
        EXPECT_EQ(serial.outcomes[i].last_token_us,
                  pooled.outcomes[i].last_token_us);
    }
}

TEST(TpEquivalenceTest, HigherDegreesActuallyChangeLatency)
{
    // Sanity that the equivalence above is not vacuous: TP really
    // does alter the latency surface it is allowed to alter.
    const ServingEngine one(tpEngineConfig(1, 1024));
    const ServingEngine four(tpEngineConfig(4, 1024));
    StepPlan plan;
    plan.decode_batch = 8;
    plan.decode_context_sum = 8 * 256;
    StepGemmMemo one_memo, four_memo;
    EXPECT_NE(one.stepLatencyUs(plan, one_memo),
              four.stepLatencyUs(plan, four_memo));
    EXPECT_GT(four.allReduceLatencyUs(8), 0.0);
    EXPECT_DOUBLE_EQ(one.allReduceLatencyUs(8), 0.0);
}

} // namespace
} // namespace comet
