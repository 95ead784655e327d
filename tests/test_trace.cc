/**
 * @file
 * Unit tests for trace generation and trace-driven serving replay
 * (TTFT/TPOT metrics).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "comet/serve/trace.h"
#include "comet/server/loadgen.h"

namespace comet {
namespace {

using server::replayTrace;

ServingEngine
makeEngine(ServingMode mode)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = mode;
    config.input_tokens = 256;
    config.output_tokens = 64;
    return ServingEngine(config);
}

TEST(TraceGen, ArrivalsSortedAndRateRoughlyRespected)
{
    TraceConfig config;
    config.request_rate_per_s = 10.0;
    config.num_requests = 200;
    const auto trace = generateTrace(config);
    ASSERT_EQ(trace.size(), 200u);
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrival_us, trace[i - 1].arrival_us);
    // 200 requests at 10/s should span ~20s.
    EXPECT_NEAR(trace.back().arrival_us, 20e6, 8e6);
}

TEST(TraceGen, LengthsClampedToConfiguredRange)
{
    TraceConfig config;
    config.num_requests = 300;
    config.mean_prompt_tokens = 100;
    config.mean_output_tokens = 50;
    for (const TracedRequest &request : generateTrace(config)) {
        EXPECT_GE(request.prompt_tokens, 16);
        EXPECT_LE(request.prompt_tokens, 400);
        EXPECT_GE(request.output_tokens, 16);
        EXPECT_LE(request.output_tokens, 200);
    }
}

TEST(TraceGen, Deterministic)
{
    TraceConfig config;
    config.seed = 77;
    const auto a = generateTrace(config);
    const auto b = generateTrace(config);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_us, b[i].arrival_us);
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    }
}

TEST(TraceReplay, AllRequestsComplete)
{
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TraceConfig config;
    config.num_requests = 24;
    config.request_rate_per_s = 50.0;
    config.mean_prompt_tokens = 128;
    config.mean_output_tokens = 32;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(config));
    EXPECT_EQ(metrics.per_request.size(), 24u);
    EXPECT_GT(metrics.throughput_tokens_per_s, 0.0);
    EXPECT_GT(metrics.makespan_us, 0.0);
    for (const RequestLatency &latency : metrics.per_request) {
        EXPECT_GT(latency.ttft_us, 0.0);
        EXPECT_GE(latency.total_us, latency.ttft_us);
        EXPECT_GE(latency.tpot_us, 0.0);
    }
}

TEST(TraceReplay, PercentilesAreOrdered)
{
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TraceConfig config;
    config.num_requests = 24;
    config.request_rate_per_s = 20.0;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(config));
    EXPECT_LE(metrics.ttftPercentileUs(50),
              metrics.ttftPercentileUs(95) + 1e-9);
    EXPECT_LE(metrics.tpotPercentileUs(50),
              metrics.tpotPercentileUs(95) + 1e-9);
}

TEST(TraceReplay, HigherLoadRaisesTtft)
{
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TraceConfig light;
    light.num_requests = 20;
    light.request_rate_per_s = 0.5; // one at a time
    TraceConfig heavy = light;
    heavy.request_rate_per_s = 500.0; // burst
    const TraceMetrics light_metrics =
        replayTrace(engine, generateTrace(light));
    const TraceMetrics heavy_metrics =
        replayTrace(engine, generateTrace(heavy));
    EXPECT_GT(heavy_metrics.ttftPercentileUs(95),
              light_metrics.ttftPercentileUs(95));
}

TEST(TraceReplay, CometBeatsFp16OnTheSameTrace)
{
    TraceConfig config;
    config.num_requests = 16;
    config.request_rate_per_s = 100.0;
    config.mean_prompt_tokens = 256;
    config.mean_output_tokens = 32;
    const auto trace = generateTrace(config);
    const TraceMetrics comet = replayTrace(
        makeEngine(ServingMode::kCometW4AxKv4), trace);
    const TraceMetrics fp16 =
        replayTrace(makeEngine(ServingMode::kTrtFp16), trace);
    EXPECT_GT(comet.throughput_tokens_per_s,
              fp16.throughput_tokens_per_s);
    EXPECT_LT(comet.tpotPercentileUs(50),
              fp16.tpotPercentileUs(50));
}

TEST(ChunkedPrefill, AllRequestsStillComplete)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 64;
    config.chunked_prefill_tokens = 128;
    const ServingEngine engine(config);

    TraceConfig trace_config;
    trace_config.num_requests = 20;
    trace_config.request_rate_per_s = 100.0;
    trace_config.mean_prompt_tokens = 256;
    trace_config.mean_output_tokens = 24;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(metrics.per_request.size(), 20u);
    for (const RequestLatency &latency : metrics.per_request)
        EXPECT_GT(latency.ttft_us, 0.0);
}

TEST(ChunkedPrefill, ImprovesTpotTailUnderBurstyLoad)
{
    // The Sarathi-Serve effect: bounding how much prefill work rides
    // on each iteration keeps running requests' inter-token latency
    // from spiking when long prompts arrive.
    TraceConfig trace_config;
    trace_config.num_requests = 24;
    trace_config.request_rate_per_s = 40.0;
    trace_config.mean_prompt_tokens = 768;
    trace_config.mean_output_tokens = 48;
    const auto trace = generateTrace(trace_config);

    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 768;
    config.output_tokens = 48;
    const ServingEngine whole(config);
    config.chunked_prefill_tokens = 256;
    const ServingEngine chunked(config);

    const TraceMetrics whole_metrics = replayTrace(whole, trace);
    const TraceMetrics chunked_metrics =
        replayTrace(chunked, trace);
    EXPECT_LT(chunked_metrics.tpotPercentileUs(95),
              whole_metrics.tpotPercentileUs(95));
    // Throughput stays within a reasonable band of the stall-free
    // schedule.
    EXPECT_GT(chunked_metrics.throughput_tokens_per_s,
              whole_metrics.throughput_tokens_per_s * 0.6);
}

TEST(TraceReplay, TtftIsThePrefillItself)
{
    // The prefill's forward pass produces the first output token:
    // an unloaded single request's TTFT equals its prefill latency,
    // with no spurious extra decode iteration.
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TracedRequest request;
    request.id = 0;
    request.arrival_us = 0.0;
    request.prompt_tokens = 256;
    request.output_tokens = 16;
    const TraceMetrics metrics = replayTrace(engine, {request});
    ASSERT_EQ(metrics.per_request.size(), 1u);
    const double prefill_us =
        engine.prefillLatencyUs(std::vector<int64_t>{256});
    EXPECT_NEAR(metrics.per_request[0].ttft_us, prefill_us,
                prefill_us * 1e-9);
}

TEST(TraceReplay, PrefillChargedAtActualPromptLength)
{
    // The engine is configured for 2048-token prompts, but the trace
    // carries a short one: TTFT must reflect the 64 real tokens, not
    // the configured workload shape.
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 2048;
    config.output_tokens = 64;
    const ServingEngine engine(config);

    TracedRequest request;
    request.id = 0;
    request.arrival_us = 0.0;
    request.prompt_tokens = 64;
    request.output_tokens = 16;
    const TraceMetrics metrics = replayTrace(engine, {request});
    ASSERT_EQ(metrics.per_request.size(), 1u);
    const double configured_prefill_us = engine.prefillLatencyUs(1);
    EXPECT_LT(metrics.per_request[0].ttft_us,
              configured_prefill_us / 4.0);
}

TEST(TraceMetrics, PercentilesOfZeroCompletionsAreNan)
{
    const TraceMetrics empty;
    EXPECT_TRUE(std::isnan(empty.ttftPercentileUs(50)));
    EXPECT_TRUE(std::isnan(empty.tpotPercentileUs(95)));
}

TEST(TraceReplay, CancelledRequestsAreDroppedAndCounted)
{
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TraceConfig config;
    config.num_requests = 12;
    config.request_rate_per_s = 50.0;
    config.mean_prompt_tokens = 128;
    config.mean_output_tokens = 32;
    auto trace = generateTrace(config);
    // The last arrival is abandoned before it can ever be admitted.
    trace.back().cancel_us = trace.back().arrival_us;
    const TraceMetrics metrics = replayTrace(engine, trace);
    EXPECT_EQ(metrics.cancelled, 1);
    EXPECT_EQ(metrics.per_request.size(), 11u);
    for (const RequestLatency &latency : metrics.per_request)
        EXPECT_NE(latency.id, trace.back().id);
}

TEST(TraceReplay, UnservableRequestsAreRejectedNotStuck)
{
    // A request larger than the whole KV pool must not wedge the
    // replay; it is dropped and counted, and everyone else finishes.
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 64;
    config.usable_memory_fraction = 0.25; // shrink the pool
    const ServingEngine engine(config);

    TraceConfig trace_config;
    trace_config.num_requests = 8;
    trace_config.request_rate_per_s = 50.0;
    trace_config.mean_prompt_tokens = 128;
    trace_config.mean_output_tokens = 16;
    auto trace = generateTrace(trace_config);
    const KvCacheConfig cache_config{
        .bits_per_value = 4.0,
        .block_tokens = 16,
        .memory_budget_bytes = engine.kvBudgetBytes()};
    const PagedKvCache probe(config.model, cache_config);
    trace[3].prompt_tokens = probe.totalBlocks() * 16 * 2;
    const TraceMetrics metrics = replayTrace(engine, trace);
    EXPECT_EQ(metrics.rejected, 1);
    EXPECT_EQ(metrics.per_request.size(), 7u);
}

TEST(TraceReplay, KvPoolAggregatesTheTpGroup)
{
    // Each GPU of the TP group holds 1/tp of every block, so the replay
    // pool is the per-GPU budget times tp — the same aggregate Server
    // and measureThroughput size their caches with.
    EngineConfig config;
    config.model = LlmConfig::llama2_70b();
    config.mode = ServingMode::kCometW4AxKv4;
    TraceConfig trace_config;
    trace_config.num_requests = 2;
    const auto trace = generateTrace(trace_config);
    for (const auto &[tp, blocks] :
         {std::pair{2, 72805}, std::pair{4, 170461}}) {
        config.tensor_parallel = tp;
        const ServingEngine engine(config);
        EXPECT_EQ(replayTrace(engine, trace).total_kv_blocks, blocks)
            << "tp " << tp;
    }
}

/** Engine whose KV budget is exactly @p blocks KV4 blocks. */
ServingEngine
makeTinyKvEngine(EngineConfig config, int64_t blocks)
{
    const KvCacheConfig probe_config{.bits_per_value = 4.0,
                                     .block_tokens = 16,
                                     .memory_budget_bytes = 1e9};
    const PagedKvCache probe(config.model, probe_config);
    const double weights = ServingEngine(config).weightBytes();
    config.usable_memory_fraction =
        (weights +
         probe.blockBytes() * static_cast<double>(blocks)) /
        config.gpu.hbm_capacity_bytes;
    return ServingEngine(config);
}

TEST(TraceReplay, KvExhaustionPreemptsAndStillCompletesEverything)
{
    // Shrink the KV budget until the burst cannot fit outright: the
    // optimistic scheduler must preempt (never abort) and every
    // request must still complete.
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 256;
    // 300 blocks hold every prompt of the burst but not the grown
    // contexts (16 requests x ~32 blocks full footprint).
    const ServingEngine engine = makeTinyKvEngine(config, 300);
    ASSERT_GT(engine.kvBudgetBytes(), 0.0);

    TraceConfig trace_config;
    trace_config.num_requests = 16;
    trace_config.request_rate_per_s = 1000.0; // all at once
    trace_config.mean_prompt_tokens = 256;
    trace_config.mean_output_tokens = 256;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(metrics.per_request.size(), 16u);
    EXPECT_GT(metrics.preemptions, 0);
    EXPECT_GT(metrics.reprefill_tokens, 0);
    EXPECT_GT(metrics.peak_kv_utilization, 0.5);
    EXPECT_LE(metrics.peak_kv_utilization, 1.0);
}

// Pinned golden values (monolithic prefill): any change to the serving
// loop or the step cost that moves a replayed request shows up here
// bit for bit.
TEST(TraceReplay, PreemptingReplayMatchesPinnedGolden)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 256;
    const ServingEngine engine = makeTinyKvEngine(config, 300);

    TraceConfig trace_config;
    trace_config.num_requests = 16;
    trace_config.request_rate_per_s = 1000.0;
    trace_config.mean_prompt_tokens = 256;
    trace_config.mean_output_tokens = 256;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(metrics.makespan_us, 5501373.6552527389);
    EXPECT_EQ(metrics.ttftPercentileUs(99), 164198.04679312633);
    EXPECT_EQ(metrics.tpotPercentileUs(50), 5669.4576493077657);
    EXPECT_EQ(metrics.preemptions, 2);
    EXPECT_EQ(metrics.reprefill_tokens, 569);
}

TEST(TraceReplay, TensorParallelReplayMatchesPinnedGolden)
{
    EngineConfig config;
    config.model = LlmConfig::llama2_70b();
    config.tensor_parallel = 2;
    const ServingEngine engine(config);

    TraceConfig trace_config;
    trace_config.num_requests = 48;
    trace_config.request_rate_per_s = 8.0;
    trace_config.seed = 9;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(metrics.makespan_us, 15058286.610239971);
    EXPECT_EQ(metrics.ttftPercentileUs(99), 597168.22060781415);
    EXPECT_EQ(metrics.tpotPercentileUs(50), 36380.252627417693);
}

TEST(TraceReplay, ReserveFullPolicyNeverPreempts)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 256;
    config.admission = AdmissionPolicy::kReserveFullOutput;
    const ServingEngine engine = makeTinyKvEngine(config, 300);

    TraceConfig trace_config;
    trace_config.num_requests = 16;
    trace_config.request_rate_per_s = 1000.0;
    trace_config.mean_prompt_tokens = 256;
    trace_config.mean_output_tokens = 256;
    const TraceMetrics metrics =
        replayTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(metrics.per_request.size(), 16u);
    EXPECT_EQ(metrics.preemptions, 0);
    EXPECT_EQ(metrics.reprefill_tokens, 0);
}

} // namespace
} // namespace comet

