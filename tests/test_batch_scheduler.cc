/**
 * @file
 * Unit tests for the continuous-batching scheduler.
 */
#include <gtest/gtest.h>

#include "comet/serve/batch_scheduler.h"

namespace comet {
namespace {

PagedKvCache
makeCache(double budget_gb)
{
    KvCacheConfig config;
    config.bits_per_value = 16.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = budget_gb * 1e9;
    return PagedKvCache(LlmConfig::llama3_8b(), config);
}

Request
makeRequest(int64_t id, int64_t prompt, int64_t output)
{
    Request request;
    request.id = id;
    request.prompt_tokens = prompt;
    request.max_output_tokens = output;
    return request;
}

TEST(RequestState, Names)
{
    EXPECT_STREQ(requestStateName(RequestState::kQueued), "queued");
    EXPECT_STREQ(requestStateName(RequestState::kRunning), "running");
    EXPECT_STREQ(requestStateName(RequestState::kFinished),
                 "finished");
}

TEST(Request, ContextAndDone)
{
    Request request = makeRequest(1, 100, 10);
    EXPECT_EQ(request.contextTokens(), 100);
    EXPECT_FALSE(request.done());
    request.generated_tokens = 10;
    EXPECT_TRUE(request.done());
    EXPECT_EQ(request.contextTokens(), 110);
}

TEST(BatchScheduler, AdmitsUpToMaxBatch)
{
    PagedKvCache cache = makeCache(10.0);
    BatchSchedulerConfig config;
    config.max_batch = 3;
    BatchScheduler scheduler(&cache, config);
    for (int64_t i = 0; i < 5; ++i)
        scheduler.submit(makeRequest(i, 32, 8));
    EXPECT_EQ(scheduler.admit(), 3);
    EXPECT_EQ(scheduler.runningCount(), 3);
    EXPECT_EQ(scheduler.queuedCount(), 2);
}

TEST(BatchScheduler, StepGeneratesAndRetires)
{
    PagedKvCache cache = makeCache(10.0);
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, 16, 2));
    scheduler.submit(makeRequest(2, 16, 3));
    scheduler.admit();
    EXPECT_EQ(scheduler.step(), 2);
    EXPECT_EQ(scheduler.finishedCount(), 0);
    EXPECT_EQ(scheduler.step(), 2); // request 1 finishes here
    EXPECT_EQ(scheduler.finishedCount(), 1);
    EXPECT_EQ(scheduler.runningCount(), 1);
    EXPECT_EQ(scheduler.step(), 1);
    EXPECT_TRUE(scheduler.idle());
    EXPECT_EQ(scheduler.finishedCount(), 2);
}

TEST(BatchScheduler, FinishedRequestsFreeKvBlocks)
{
    PagedKvCache cache = makeCache(10.0);
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, 64, 1));
    scheduler.admit();
    EXPECT_LT(cache.freeBlocks(), cache.totalBlocks());
    scheduler.step();
    EXPECT_EQ(cache.freeBlocks(), cache.totalBlocks());
}

/** Pool of exactly @p blocks blocks for the given model. */
PagedKvCache
makeExactCache(const LlmConfig &model, int64_t blocks)
{
    KvCacheConfig config;
    config.bits_per_value = 16.0;
    config.block_tokens = 16;
    config.memory_budget_bytes = 1e9;
    const PagedKvCache probe(model, config);
    config.memory_budget_bytes = probe.blockBytes() *
                                 static_cast<double>(blocks);
    return PagedKvCache(model, config);
}

TEST(BatchScheduler, ReserveFullAdmissionReservesDecodeHeadroom)
{
    // Under full reservation, a pool that can hold the prompts of
    // two sequences but not their full generations must only admit
    // one — and decode then never exhausts the pool.
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 10);
    ASSERT_EQ(cache.totalBlocks(), 10);

    BatchSchedulerConfig config;
    config.admission = AdmissionPolicy::kReserveFullOutput;
    BatchScheduler scheduler(&cache, config);
    // Each request needs 2 prompt blocks + 4 more while decoding.
    scheduler.submit(makeRequest(1, 32, 64));
    scheduler.submit(makeRequest(2, 32, 64));
    EXPECT_EQ(scheduler.admit(), 1);

    // Decode to completion never exhausts the pool.
    while (!scheduler.idle()) {
        scheduler.admit();
        if (scheduler.runningCount() == 0)
            break;
        scheduler.step();
    }
    EXPECT_EQ(scheduler.finishedCount(), 2);
    EXPECT_EQ(scheduler.counters().preemptions, 0);
}

TEST(BatchScheduler, OptimisticAdmissionRecoversByPreemption)
{
    // The same 10-block pool: optimistic admission takes both
    // requests on their prompt footprint, exhausts the pool
    // mid-decode, preempts the later request, and still completes
    // everything — the recoverable path that used to abort.
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 10);
    ASSERT_EQ(cache.totalBlocks(), 10);

    BatchScheduler scheduler(&cache); // optimistic by default
    scheduler.submit(makeRequest(1, 32, 64));
    scheduler.submit(makeRequest(2, 32, 64));
    EXPECT_EQ(scheduler.admit(), 2); // prompt-only footprint fits

    int64_t steps = 0;
    while (!scheduler.idle() && steps < 10000) {
        scheduler.admit();
        if (scheduler.runningCount() == 0)
            break;
        scheduler.step();
        ++steps;
    }
    EXPECT_EQ(scheduler.finishedCount(), 2);
    EXPECT_GT(scheduler.counters().preemptions, 0);
    EXPECT_GT(scheduler.counters().reprefill_tokens, 0);
    EXPECT_EQ(cache.freeBlocks(), cache.totalBlocks());
}

TEST(BatchScheduler, PreemptsLatestArrivedFirst)
{
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 9);
    BatchScheduler scheduler(&cache);
    // Three requests, 2 prompt blocks each (6 of 9 blocks); each
    // wants to grow by 2 more blocks.
    scheduler.submit(makeRequest(1, 32, 32));
    scheduler.submit(makeRequest(2, 32, 32));
    scheduler.submit(makeRequest(3, 32, 32));
    ASSERT_EQ(scheduler.admit(), 3);

    // Decode until the first preemption happens.
    while (scheduler.counters().preemptions == 0 &&
           scheduler.runningCount() > 0) {
        scheduler.step();
    }
    ASSERT_GT(scheduler.counters().preemptions, 0);
    // The latest-arrived request (3) is the victim, back at the
    // queue head in kPreempted state; earlier requests keep running.
    ASSERT_GE(scheduler.queuedCount(), 1);
    for (const Request &request : scheduler.running())
        EXPECT_LT(request.id, 3);
}

TEST(BatchScheduler, PreemptedRequestsReadmitFcfsAheadOfNewcomers)
{
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 9);
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, 32, 32));
    scheduler.submit(makeRequest(2, 32, 32));
    scheduler.submit(makeRequest(3, 32, 32));
    ASSERT_EQ(scheduler.admit(), 3);
    while (scheduler.counters().preemptions == 0 &&
           scheduler.runningCount() > 0) {
        scheduler.step();
    }
    ASSERT_GT(scheduler.counters().preemptions, 0);

    // A newcomer arrives while request 3 waits preempted: FCFS means
    // 4 must never be running while 3 is still waiting in the queue.
    scheduler.submit(makeRequest(4, 32, 32));
    int64_t steps = 0;
    bool three_readmitted = false;
    bool four_jumped_the_queue = false;
    while (!scheduler.idle() && steps < 10000) {
        scheduler.admit();
        bool has3 = false, has4 = false;
        for (const Request &request : scheduler.running()) {
            has3 |= request.id == 3;
            has4 |= request.id == 4;
        }
        three_readmitted |= has3;
        if (has4 && !three_readmitted)
            four_jumped_the_queue = true;
        if (scheduler.runningCount() == 0)
            break;
        scheduler.step();
        ++steps;
    }
    EXPECT_TRUE(three_readmitted);
    EXPECT_FALSE(four_jumped_the_queue);
    EXPECT_EQ(scheduler.finishedCount(), 4);
}

TEST(BatchScheduler, RejectsRequestsThatCanNeverFit)
{
    // Graceful degradation: an unservable request is dropped with a
    // counter instead of blocking the FCFS head forever.
    PagedKvCache cache = makeCache(10.0);
    const int64_t huge_tokens = cache.totalBlocks() * 16 * 2;
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, huge_tokens, 1)); // never fits
    scheduler.submit(makeRequest(2, 16, 1));          // fits fine
    EXPECT_EQ(scheduler.admit(), 1);
    EXPECT_EQ(scheduler.counters().rejected, 1);
    EXPECT_EQ(scheduler.queuedCount(), 0);
    EXPECT_EQ(scheduler.running().front().id, 2);
}

TEST(BatchScheduler, FcfsDoesNotSkipATemporarilyBlockedHead)
{
    // A head that fits the pool in principle but not right now still
    // blocks later arrivals (no skipping ahead).
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 6);
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, 64, 16)); // 4 prompt blocks
    ASSERT_EQ(scheduler.admit(), 1);
    scheduler.submit(makeRequest(2, 64, 16)); // needs 4, only 2 free
    scheduler.submit(makeRequest(3, 16, 16)); // 1 block would fit
    EXPECT_EQ(scheduler.admit(), 0);
    EXPECT_EQ(scheduler.queuedCount(), 2);
}

TEST(BatchScheduler, WatermarkMakesAdmissionMoreConservative)
{
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 10);
    BatchSchedulerConfig config;
    config.watermark_blocks = 7;
    BatchScheduler scheduler(&cache, config);
    scheduler.submit(makeRequest(1, 32, 64));
    scheduler.submit(makeRequest(2, 32, 64));
    // The first admission sees an empty system (no watermark); the
    // second would need 2 + 7 of the 8 remaining blocks, so it waits.
    EXPECT_EQ(scheduler.admit(), 1);
    EXPECT_EQ(scheduler.queuedCount(), 1);
    // The watermark never starves an empty system: once request 1
    // finishes, request 2 is admitted even with the watermark.
    while (scheduler.runningCount() > 0)
        scheduler.step();
    EXPECT_EQ(scheduler.admit(), 1);
}

TEST(BatchScheduler, CancelRemovesQueuedAndRunningRequests)
{
    PagedKvCache cache = makeCache(10.0);
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, 32, 8));
    scheduler.submit(makeRequest(2, 32, 8));
    scheduler.admit();
    scheduler.submit(makeRequest(3, 32, 8)); // still queued
    const int64_t used_before =
        cache.totalBlocks() - cache.freeBlocks();
    ASSERT_GT(used_before, 0);

    // Cancel a running request: its blocks come back immediately.
    EXPECT_TRUE(scheduler.cancel(1).isOk());
    EXPECT_EQ(scheduler.runningCount(), 1);
    EXPECT_LT(cache.totalBlocks() - cache.freeBlocks(), used_before);

    // Cancel a queued request: it never runs.
    EXPECT_TRUE(scheduler.cancel(3).isOk());
    EXPECT_EQ(scheduler.queuedCount(), 0);
    EXPECT_EQ(scheduler.counters().cancelled, 2);

    // Unknown (or already cancelled) ids fail cleanly.
    EXPECT_EQ(scheduler.cancel(1).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(scheduler.cancel(99).code(),
              StatusCode::kInvalidArgument);

    // The survivor runs to completion.
    while (!scheduler.idle()) {
        scheduler.admit();
        if (scheduler.runningCount() == 0)
            break;
        scheduler.step();
    }
    EXPECT_EQ(scheduler.finishedCount(), 1);
    EXPECT_EQ(cache.freeBlocks(), cache.totalBlocks());
}

TEST(BatchScheduler, CountersTrackPeaks)
{
    PagedKvCache cache = makeCache(10.0);
    BatchScheduler scheduler(&cache);
    for (int64_t i = 0; i < 4; ++i)
        scheduler.submit(makeRequest(i, 32, 4));
    scheduler.admit();
    EXPECT_EQ(scheduler.counters().peak_running, 4);
    EXPECT_EQ(scheduler.counters().peak_queue_depth, 4);
    EXPECT_GT(scheduler.counters().peak_used_blocks, 0);
    EXPECT_GT(scheduler.kvUtilization(), 0.0);
    EXPECT_EQ(scheduler.counters().admitted, 4);
}

TEST(AdmissionPolicy, Names)
{
    EXPECT_STREQ(
        admissionPolicyName(AdmissionPolicy::kReserveFullOutput),
        "reserve-full");
    EXPECT_STREQ(
        admissionPolicyName(AdmissionPolicy::kOptimisticPreempt),
        "optimistic-preempt");
}

TEST(BatchScheduler, ContinuousAdmissionAfterRetirement)
{
    PagedKvCache cache = makeCache(10.0);
    BatchSchedulerConfig config;
    config.max_batch = 1;
    BatchScheduler scheduler(&cache, config);
    scheduler.submit(makeRequest(1, 16, 1));
    scheduler.submit(makeRequest(2, 16, 1));
    EXPECT_EQ(scheduler.admit(), 1);
    scheduler.step(); // request 1 finishes
    EXPECT_EQ(scheduler.admit(), 1);
    scheduler.step();
    EXPECT_TRUE(scheduler.idle());
    EXPECT_EQ(scheduler.finishedCount(), 2);
}

TEST(BatchScheduler, ResetCountersZeroesEverything)
{
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 9);
    BatchScheduler scheduler(&cache);
    scheduler.submit(makeRequest(1, 32, 32));
    scheduler.submit(makeRequest(2, 32, 32));
    scheduler.submit(makeRequest(3, 32, 32));
    scheduler.admit();
    while (scheduler.counters().preemptions == 0 &&
           scheduler.runningCount() > 0)
        scheduler.step();
    EXPECT_TRUE(scheduler.cancel(3).isOk());
    const SchedulerCounters &counters = scheduler.counters();
    ASSERT_GT(counters.admitted, 0);
    ASSERT_GT(counters.preemptions, 0);
    ASSERT_GT(counters.cancelled, 0);

    scheduler.resetCounters();
    EXPECT_EQ(counters.admitted, 0);
    EXPECT_EQ(counters.preemptions, 0);
    EXPECT_EQ(counters.reprefill_tokens, 0);
    EXPECT_EQ(counters.cancelled, 0);
    EXPECT_EQ(counters.rejected, 0);
    EXPECT_EQ(counters.peak_running, 0);
    EXPECT_EQ(counters.peak_queue_depth, 0);
    EXPECT_EQ(counters.peak_used_blocks, 0);
}

TEST(BatchScheduler, PrefillEmitsTokenCreditsAdmission)
{
    PagedKvCache cache = makeCache(10.0);
    BatchSchedulerConfig config;
    config.prefill_emits_token = true;
    BatchScheduler scheduler(&cache, config);
    scheduler.submit(makeRequest(1, 32, 4));
    EXPECT_EQ(scheduler.admit(), 1);
    // The prefill forward pass produced the first output token.
    ASSERT_EQ(scheduler.runningCount(), 1);
    EXPECT_EQ(scheduler.running().front().generated_tokens, 1);
    // Only 3 decode steps remain for a 4-token generation.
    scheduler.step();
    scheduler.step();
    EXPECT_EQ(scheduler.finishedCount(), 0);
    scheduler.step();
    EXPECT_EQ(scheduler.finishedCount(), 1);
    EXPECT_TRUE(scheduler.idle());
}

TEST(BatchScheduler, OneTokenRequestRetiresAtAdmission)
{
    PagedKvCache cache = makeCache(10.0);
    BatchSchedulerConfig config;
    config.prefill_emits_token = true;
    BatchScheduler scheduler(&cache, config);
    scheduler.submit(makeRequest(1, 32, 1));
    EXPECT_EQ(scheduler.admit(), 1);
    // The crediting completed the request: it never enters the
    // decode batch and its KV is already released.
    EXPECT_EQ(scheduler.runningCount(), 0);
    EXPECT_EQ(scheduler.finishedCount(), 1);
    EXPECT_EQ(cache.freeBlocks(), cache.totalBlocks());
    const std::vector<Request> retired = scheduler.drainRetired();
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(retired[0].state, RequestState::kFinished);
    EXPECT_EQ(retired[0].generated_tokens, 1);
}

TEST(BatchScheduler, AdmissionRetireReturnsItsFullOutputReservation)
{
    // Under full reservation, a request that finishes at admission
    // (EOS on the prefill token) must also give back the decode
    // headroom it reserved, so the rest of the same admit() round is
    // not gated by a claim nothing holds anymore.
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 8);
    ASSERT_EQ(cache.totalBlocks(), 8);

    BatchSchedulerConfig config;
    config.admission = AdmissionPolicy::kReserveFullOutput;
    config.prefill_emits_token = true;
    BatchScheduler scheduler(&cache, config);

    // Both requests reserve 6 blocks (2 prompt + 4 decode); the first
    // stops at its prefill token and frees everything immediately.
    Request one_token = makeRequest(1, 32, 64);
    one_token.eos_output_tokens = 1;
    scheduler.submit(one_token);
    scheduler.submit(makeRequest(2, 32, 64));

    // A stale reservation would leave 6 + 4 > 8 and block the second
    // request for this round even though the pool is empty again.
    EXPECT_EQ(scheduler.admit(), 2);
    EXPECT_EQ(scheduler.finishedCount(), 1);
    EXPECT_EQ(scheduler.runningCount(), 1);
    EXPECT_EQ(scheduler.queuedCount(), 0);
}

TEST(BatchScheduler, ReserveFullClaimCountsCachedTokensUnderPrefillCredit)
{
    // With prefill_emits_token the credited first token has no KV
    // yet. A request whose cache sits exactly on a block boundary
    // still needs a fresh block for that token, so the decode
    // headroom reserved for it must be measured from the cache, not
    // from contextTokens().
    PagedKvCache cache = makeExactCache(LlmConfig::llama3_8b(), 5);
    ASSERT_EQ(cache.totalBlocks(), 5);

    BatchSchedulerConfig config;
    config.admission = AdmissionPolicy::kReserveFullOutput;
    config.prefill_emits_token = true;
    BatchScheduler scheduler(&cache, config);
    // Each request caches its 16-token prompt (one block) and ends
    // with 16 + 18 - 1 = 33 cached tokens (three blocks).
    scheduler.submit(makeRequest(1, 16, 18));
    EXPECT_EQ(scheduler.admit(), 1);
    scheduler.submit(makeRequest(2, 16, 18));
    // Request 1 still claims two blocks, so request 2's three do not
    // fit beside it in the four free blocks.
    EXPECT_EQ(scheduler.admit(), 0);
    while (!scheduler.idle()) {
        scheduler.admit();
        scheduler.step();
    }
    EXPECT_EQ(scheduler.counters().preemptions, 0);
    EXPECT_EQ(scheduler.finishedCount(), 2);
}

TEST(BatchScheduler, DrainRetiredCollectsTerminalTransitions)
{
    PagedKvCache cache = makeCache(10.0);
    BatchScheduler scheduler(&cache);
    const int64_t huge_tokens = cache.totalBlocks() * 16 * 2;
    scheduler.submit(makeRequest(1, 16, 1));
    scheduler.submit(makeRequest(2, huge_tokens, 1)); // never fits
    scheduler.submit(makeRequest(3, 16, 8));
    scheduler.admit();
    EXPECT_TRUE(scheduler.cancel(3).isOk());
    scheduler.step(); // request 1 finishes
    const std::vector<Request> retired = scheduler.drainRetired();
    ASSERT_EQ(retired.size(), 3u);
    EXPECT_EQ(retired[0].id, 2);
    EXPECT_EQ(retired[0].state, RequestState::kRejected);
    EXPECT_EQ(retired[1].id, 3);
    EXPECT_EQ(retired[1].state, RequestState::kCancelled);
    EXPECT_EQ(retired[2].id, 1);
    EXPECT_EQ(retired[2].state, RequestState::kFinished);
    // drainRetired clears: a second call returns nothing.
    EXPECT_TRUE(scheduler.drainRetired().empty());
}

TEST(BatchSchedulerDeathTest, InvalidSubmissions)
{
    PagedKvCache cache = makeCache(1.0);
    BatchScheduler scheduler(&cache);
    Request bad = makeRequest(1, 0, 4);
    EXPECT_DEATH(scheduler.submit(bad), "CHECK failed");
    Request running = makeRequest(2, 4, 4);
    running.state = RequestState::kRunning;
    EXPECT_DEATH(scheduler.submit(running), "CHECK failed");
}

} // namespace
} // namespace comet
