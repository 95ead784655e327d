/**
 * @file
 * Tests for chunked prefill (DESIGN.md §14): the decode-first token
 * knapsack, deadline-ordered chunk planning, KV pages held across
 * chunk steps, first-token credit at final-chunk completion,
 * byte-identical chunked-vs-monolithic token streams, determinism
 * across thread counts, and chunk-boundary chaos (dropped chunks,
 * cancels, preemptions and grafts landing at chunk edges).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "comet/chaos/failpoint.h"
#include "comet/chaos/harness.h"
#include "comet/chaos/script.h"
#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {
namespace {

PagedKvCache
makeCache(double budget_gb = 10.0)
{
    KvCacheConfig config;
    config.bits_per_value = 16.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = budget_gb * 1e9;
    return PagedKvCache(LlmConfig::llama3_8b(), config);
}

Request
makeRequest(int64_t id, int64_t prompt, int64_t output,
            double deadline_us = 0.0)
{
    Request request;
    request.id = id;
    request.prompt_tokens = prompt;
    request.max_output_tokens = output;
    request.deadline_us = deadline_us;
    return request;
}

EngineConfig
testEngineConfig(int64_t kv_blocks = 4096)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    return engineConfigWithKvBlocks(config, kv_blocks);
}

/** Every test starts with clean metrics and no armed failpoint. */
class ChunkedPrefillTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::MetricsRegistry::global().reset();
        chaos::FailPointRegistry::global().disarmAll();
    }

    void
    TearDown() override
    {
        chaos::FailPointRegistry::global().disarmAll();
    }
};

TEST_F(ChunkedPrefillTest, PlanFillsBudgetInDeadlineOrder)
{
    PagedKvCache cache = makeCache();
    BatchSchedulerConfig config;
    config.chunk_tokens = 16;
    config.step_token_budget = 20;
    BatchScheduler scheduler(&cache, config);
    // No deadline sorts last (0 = none = infinity); the tight
    // deadline goes first even though it arrived second.
    scheduler.submit(makeRequest(1, 64, 4, /*deadline_us=*/0.0));
    scheduler.submit(makeRequest(2, 48, 4, /*deadline_us=*/100.0));
    scheduler.admit();

    const StepPlan plan = scheduler.planStep();
    EXPECT_EQ(plan.decode_batch, 0);
    ASSERT_EQ(plan.chunks.size(), 2u);
    EXPECT_EQ(plan.chunks[0].id, 2);
    EXPECT_EQ(plan.chunks[0].tokens, 16);
    EXPECT_EQ(plan.chunks[0].context_after, 16);
    // Budget 20 leaves 4 tokens for the second request's chunk.
    EXPECT_EQ(plan.chunks[1].id, 1);
    EXPECT_EQ(plan.chunks[1].tokens, 4);
    EXPECT_EQ(plan.prefill_tokens, 20);
    EXPECT_EQ(plan.gemmTokens(), 20);
}

TEST_F(ChunkedPrefillTest, DecodeStealsPriorityFromChunks)
{
    PagedKvCache cache = makeCache();
    BatchSchedulerConfig config;
    config.chunk_tokens = 16;
    config.step_token_budget = 18;
    BatchScheduler scheduler(&cache, config);
    scheduler.submit(makeRequest(1, 32, 8));
    scheduler.admit();
    // Two steps of chunked prefill complete request 1's context; it
    // decodes from the third step on.
    EXPECT_EQ(scheduler.step(), 0);
    EXPECT_EQ(scheduler.step(), 0);

    scheduler.submit(makeRequest(2, 64, 4));
    scheduler.admit();
    const StepPlan plan = scheduler.planStep();
    // Request 1 decodes first (decode steals priority); the chunk
    // only gets the remaining 18 - 1 = 17 -> capped at chunk_tokens.
    EXPECT_EQ(plan.decode_batch, 1);
    EXPECT_EQ(plan.decode_context_sum, 32);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].id, 2);
    EXPECT_EQ(plan.chunks[0].tokens, 16);

    // A budget at the decode batch size defers all prefill but never
    // stalls decode.
    BatchSchedulerConfig tight = config;
    tight.step_token_budget = 1;
    PagedKvCache cache2 = makeCache();
    BatchScheduler starved(&cache2, tight);
    starved.submit(makeRequest(1, 32, 8));
    starved.admit();
    const StepPlan starved_plan = starved.planStep();
    ASSERT_EQ(starved_plan.chunks.size(), 1u);
    EXPECT_EQ(starved_plan.chunks[0].tokens, 1);
}

TEST_F(ChunkedPrefillTest, PagesHeldAcrossChunkSteps)
{
    PagedKvCache cache = makeCache();
    BatchSchedulerConfig config;
    config.chunk_tokens = 16;
    BatchScheduler scheduler(&cache, config);
    scheduler.submit(makeRequest(1, 64, 2));
    scheduler.admit();
    // Admission allocates the full prefill footprint up front — the
    // same pages monolithic mode would take — and holds it across
    // every chunk step.
    const int64_t used_after_admit =
        cache.totalBlocks() - cache.freeBlocks();
    EXPECT_EQ(used_after_admit, 4); // 64 tokens / 16-token blocks
    ASSERT_EQ(scheduler.running().size(), 1u);
    EXPECT_TRUE(scheduler.running()[0].prefilling());

    for (int step = 1; step <= 4; ++step) {
        EXPECT_EQ(scheduler.step(), 0);
        EXPECT_EQ(cache.totalBlocks() - cache.freeBlocks(),
                  used_after_admit);
        EXPECT_EQ(scheduler.running()[0].prefilled_tokens,
                  16 * step);
    }
    EXPECT_FALSE(scheduler.running()[0].prefilling());
    EXPECT_EQ(scheduler.counters().prefill_chunks, 4);
    // Prefill done: the next steps decode to completion.
    EXPECT_EQ(scheduler.step(), 1);
    EXPECT_EQ(scheduler.step(), 1);
    EXPECT_TRUE(scheduler.idle());
    scheduler.counters().publishTo(obs::MetricsRegistry::global());
    EXPECT_EQ(obs::MetricsRegistry::global().counterValue(
                  "serve.scheduler.prefill_chunks"),
              4);
}

TEST_F(ChunkedPrefillTest, FirstTokenCreditAtFinalChunk)
{
    PagedKvCache cache = makeCache();
    BatchSchedulerConfig config;
    config.chunk_tokens = 16;
    config.prefill_emits_token = true;
    BatchScheduler scheduler(&cache, config);
    // A one-token generation: monolithic mode would retire it at
    // admit(); chunked mode retires it on the final-chunk step.
    scheduler.submit(makeRequest(1, 32, 1));
    EXPECT_EQ(scheduler.admit(), 1);
    EXPECT_EQ(scheduler.finishedCount(), 0);
    EXPECT_EQ(scheduler.step(), 0); // first chunk: no credit yet
    EXPECT_EQ(scheduler.step(), 1); // final chunk: credit + retire
    EXPECT_EQ(scheduler.finishedCount(), 1);
    EXPECT_TRUE(scheduler.idle());
    const std::vector<Request> retired = scheduler.drainRetired();
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(retired[0].state, RequestState::kFinished);
    EXPECT_EQ(retired[0].generated_tokens, 1);
}

TEST_F(ChunkedPrefillTest, SchedulerTokenStreamsMatchMonolithic)
{
    auto run = [](int64_t chunk_tokens) {
        PagedKvCache cache = makeCache();
        BatchSchedulerConfig config;
        config.chunk_tokens = chunk_tokens;
        config.prefill_emits_token = true;
        BatchScheduler scheduler(&cache, config);
        for (int64_t i = 0; i < 12; ++i) {
            scheduler.submit(makeRequest(i, 32 + 16 * (i % 5),
                                         1 + (i % 7)));
        }
        std::vector<Request> retired;
        while (!scheduler.idle()) {
            scheduler.admit();
            scheduler.step();
            for (Request &request : scheduler.drainRetired())
                retired.push_back(request);
        }
        std::sort(retired.begin(), retired.end(),
                  [](const Request &a, const Request &b) {
                      return a.id < b.id;
                  });
        return retired;
    };

    const std::vector<Request> monolithic = run(0);
    for (const int64_t chunk : {8, 16, 64}) {
        const std::vector<Request> chunked = run(chunk);
        ASSERT_EQ(chunked.size(), monolithic.size());
        for (size_t i = 0; i < monolithic.size(); ++i) {
            EXPECT_EQ(chunked[i].id, monolithic[i].id);
            EXPECT_EQ(chunked[i].state, monolithic[i].state);
            EXPECT_EQ(chunked[i].generated_tokens,
                      monolithic[i].generated_tokens);
        }
    }
}

/** Runs the mixed SLO workload against a fresh server with the given
 * chunk size (0 = monolithic) and returns the report. */
server::LoadgenReport
runMixedWorkload(const ServingEngine &engine, int64_t chunk_tokens)
{
    obs::MetricsRegistry::global().reset();
    const server::LoadgenConfig workload =
        server::mixedSloWorkload(/*seed=*/21, /*smoke=*/true);
    server::ServerConfig config;
    config.tenants = server::loadgenTenants(workload);
    config.max_batch = 16;
    config.chunked_prefill_tokens = chunk_tokens;
    server::Server server(&engine, config);
    server::LoadgenReport report =
        server::runLoadgen(&server, workload);
    server.stop();
    return report;
}

TEST_F(ChunkedPrefillTest, ServerTokenStreamsMatchAcrossChunkSizes)
{
    const ServingEngine engine(testEngineConfig());
    const server::LoadgenReport monolithic =
        runMixedWorkload(engine, 0);
    // The scenario must be equality-safe: every verdict is
    // clock-independent (no rate limits, deadlines, bounded queues
    // or cancels), so chunking may only change virtual time.
    EXPECT_GT(monolithic.completed, 0);
    EXPECT_EQ(monolithic.rejected, 0);
    EXPECT_EQ(monolithic.cancelled, 0);

    for (const int64_t chunk : {8, 64, 1024}) {
        const server::LoadgenReport chunked =
            runMixedWorkload(engine, chunk);
        EXPECT_EQ(chunked.completed, monolithic.completed);
        EXPECT_EQ(chunked.rejected, 0);
        EXPECT_EQ(chunked.cancelled, 0);
        EXPECT_EQ(chunked.tokens, monolithic.tokens);
        ASSERT_EQ(chunked.outcomes.size(),
                  monolithic.outcomes.size());
        for (size_t i = 0; i < monolithic.outcomes.size(); ++i) {
            EXPECT_EQ(chunked.outcomes[i].terminal,
                      monolithic.outcomes[i].terminal)
                << "request " << i << " chunk " << chunk;
            EXPECT_EQ(chunked.outcomes[i].tokens,
                      monolithic.outcomes[i].tokens)
                << "request " << i << " chunk " << chunk;
        }
    }
}

TEST_F(ChunkedPrefillTest, ChunkedRunsAreBitIdenticalAcrossThreads)
{
    const ServingEngine engine(testEngineConfig());
    ThreadPool::setGlobalThreads(1);
    const server::LoadgenReport serial = runMixedWorkload(engine, 64);
    ThreadPool::setGlobalThreads(4);
    const server::LoadgenReport pooled = runMixedWorkload(engine, 64);
    ThreadPool::setGlobalThreads(0); // back to the environment pick

    // Full bit-identity, virtual timestamps included.
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
    EXPECT_EQ(serial.makespan_us, pooled.makespan_us);
}

TEST_F(ChunkedPrefillTest, ChunkedChaosScriptHoldsAllInvariants)
{
    chaos::ChaosScriptConfig config;
    config.seed = 17;
    config.steps = 300;
    config.chunk_tokens = 32;
    const std::vector<chaos::ChaosStep> script =
        chaos::generateChaosScript(config);
    const chaos::ChaosRunResult result =
        chaos::runChaosScript(script, config, nullptr);
    EXPECT_TRUE(result.ok) << result.failure;
    EXPECT_GT(result.stats.completed, 0);
}

TEST_F(ChunkedPrefillTest, DroppedChunksReplayBitIdentically)
{
    // Cancels, preemptions and grafts now land at chunk boundaries,
    // and the sched.chunk failpoint drops every 3rd chunk on top —
    // dropped chunks are re-planned, never lost work, and the whole
    // session still replays bit-identically across thread counts.
    chaos::ChaosScriptConfig config;
    config.seed = 19;
    config.steps = 400;
    config.prefix = true;
    config.chunk_tokens = 32;
    const std::vector<chaos::ChaosStep> script =
        chaos::generateChaosScript(config);
    chaos::ChaosFaultConfig faults;
    faults.seed = 19;
    faults.chunk_every = 3;
    faults.graft_every = 11;

    ThreadPool::setGlobalThreads(1);
    const chaos::ChaosRunResult serial =
        chaos::runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(4);
    const chaos::ChaosRunResult pooled =
        chaos::runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(0);

    EXPECT_TRUE(serial.ok) << serial.failure;
    EXPECT_TRUE(pooled.ok) << pooled.failure;
    EXPECT_FALSE(serial.event_log.empty());
    EXPECT_EQ(serial.event_log, pooled.event_log);
    EXPECT_EQ(serial.stats.streamed_tokens,
              pooled.stats.streamed_tokens);
    EXPECT_EQ(serial.stats.completed, pooled.stats.completed);
    EXPECT_EQ(serial.stats.cancelled, pooled.stats.cancelled);
    // The failpoint genuinely fired (both runs accumulate into the
    // same registry counter).
    EXPECT_GT(obs::MetricsRegistry::global().counterValue(
                  "chaos.failpoint.sched.chunk"),
              0);
}

} // namespace
} // namespace comet
