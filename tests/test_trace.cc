/**
 * @file
 * Unit tests for trace generation, trace runs on the Server through
 * the load generator (TTFT/TPOT from the loadgen report) and the
 * report's empty-set convention.
 */
#include <gtest/gtest.h>

#include <vector>

#include "comet/common/stats.h"
#include "comet/server/loadgen.h"
#include "trace_run.h"

namespace comet {
namespace {

using server::generateTrace;
using server::LoadgenRequest;
using server::RequestOutcome;
using server::StreamEventKind;
using server::TraceConfig;

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
    for (const LoadgenRequest &request : generateTrace(config)) {
        EXPECT_EQ(request.tenant, 0);
        EXPECT_GE(request.prompt_tokens, 16);
        EXPECT_LE(request.prompt_tokens, 400);
        EXPECT_GE(request.eos_output_tokens, 16);
        EXPECT_LE(request.eos_output_tokens, 200);
        EXPECT_EQ(request.declared_output_tokens,
                  request.eos_output_tokens);
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
    const TraceRun run = runTrace(engine, generateTrace(config));
    EXPECT_EQ(run.report.completed, 24);
    EXPECT_GT(run.throughputTokensPerS(), 0.0);
    EXPECT_GT(run.report.makespan_us, 0.0);
    for (const RequestOutcome &outcome : run.report.outcomes) {
        ASSERT_EQ(outcome.terminal, StreamEventKind::kFinished);
        EXPECT_GT(outcome.ttftUs(), 0.0);
        EXPECT_GE(outcome.last_token_us - outcome.arrival_us,
                  outcome.ttftUs());
        EXPECT_GE(outcome.tpotUs(), 0.0);
    }
}

TEST(TraceReplay, PercentilesAreOrdered)
{
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TraceConfig config;
    config.num_requests = 24;
    config.request_rate_per_s = 20.0;
    const TraceRun run = runTrace(engine, generateTrace(config));
    const std::vector<double> ttft =
        exactPercentiles(run.ttftsUs(), {50, 95});
    const std::vector<double> tpot =
        exactPercentiles(run.tpotsUs(), {50, 95});
    EXPECT_LE(ttft[0], ttft[1] + 1e-9);
    EXPECT_LE(tpot[0], tpot[1] + 1e-9);
}

TEST(TraceReplay, HigherLoadRaisesTtft)
{
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    TraceConfig light;
    light.num_requests = 20;
    light.request_rate_per_s = 0.5; // one at a time
    TraceConfig heavy = light;
    heavy.request_rate_per_s = 500.0; // burst
    const TraceRun light_run = runTrace(engine, generateTrace(light));
    const TraceRun heavy_run = runTrace(engine, generateTrace(heavy));
    EXPECT_GT(exactPercentile(heavy_run.ttftsUs(), 95),
              exactPercentile(light_run.ttftsUs(), 95));
}

TEST(TraceReplay, CometBeatsFp16OnTheSameTrace)
{
    TraceConfig config;
    config.num_requests = 16;
    config.request_rate_per_s = 100.0;
    config.mean_prompt_tokens = 256;
    config.mean_output_tokens = 32;
    const auto trace = generateTrace(config);
    const TraceRun comet =
        runTrace(makeEngine(ServingMode::kCometW4AxKv4), trace);
    const TraceRun fp16 =
        runTrace(makeEngine(ServingMode::kTrtFp16), trace);
    EXPECT_GT(comet.throughputTokensPerS(),
              fp16.throughputTokensPerS());
    EXPECT_LT(comet.row().tpot_p50_us, fp16.row().tpot_p50_us);
}

TEST(ChunkedPrefill, AllRequestsStillComplete)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 64;
    const ServingEngine engine(config);

    TraceConfig trace_config;
    trace_config.num_requests = 20;
    trace_config.request_rate_per_s = 100.0;
    trace_config.mean_prompt_tokens = 256;
    trace_config.mean_output_tokens = 24;
    const TraceRun run =
        runTrace(engine, generateTrace(trace_config), 128);
    EXPECT_EQ(run.report.completed, 20);
    EXPECT_GT(run.counters.prefill_chunks, 0);
    for (const double ttft : run.ttftsUs())
        EXPECT_GT(ttft, 0.0);
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
    const ServingEngine engine(config);

    const TraceRun whole = runTrace(engine, trace);
    const TraceRun chunked = runTrace(engine, trace, 256);
    EXPECT_LT(exactPercentile(chunked.tpotsUs(), 95),
              exactPercentile(whole.tpotsUs(), 95));
    // Throughput stays within a reasonable band of the stall-free
    // schedule.
    EXPECT_GT(chunked.throughputTokensPerS(),
              whole.throughputTokensPerS() * 0.6);
}

TEST(TraceReplay, TtftIsThePrefillItself)
{
    // The prefill's forward pass produces the first output token:
    // an unloaded single request's TTFT equals its prefill latency,
    // with no spurious extra decode iteration.
    const ServingEngine engine = makeEngine(ServingMode::kCometW4AxKv4);
    LoadgenRequest request;
    request.arrival_us = 0.0;
    request.prompt_tokens = 256;
    request.declared_output_tokens = 16;
    request.eos_output_tokens = 16;
    const TraceRun run = runTrace(engine, {request});
    ASSERT_EQ(run.report.completed, 1);
    const double prefill_us =
        engine.prefillLatencyUs(std::vector<int64_t>{256});
    EXPECT_NEAR(run.report.outcomes[0].ttftUs(), prefill_us,
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

    LoadgenRequest request;
    request.arrival_us = 0.0;
    request.prompt_tokens = 64;
    request.declared_output_tokens = 16;
    request.eos_output_tokens = 16;
    const TraceRun run = runTrace(engine, {request});
    ASSERT_EQ(run.report.completed, 1);
    const double configured_prefill_us = engine.prefillLatencyUs(1);
    EXPECT_LT(run.report.outcomes[0].ttftUs(),
              configured_prefill_us / 4.0);
}

TEST(FinalizeReport, ZeroCompletionsGiveZeroPercentiles)
{
    // The one empty-set convention: a tenant with no completion (no
    // outcomes at all, or only rejected and cancelled ones) reports
    // zero percentiles, goodput and SLO counts, never NaN.
    const server::LoadgenConfig config = server::traceLoadgenConfig();
    for (const std::vector<RequestOutcome> &outcomes :
         {std::vector<RequestOutcome>{},
          std::vector<RequestOutcome>(2)}) {
        const server::LoadgenReport report =
            server::finalizeLoadgenReport(config, outcomes, 1e6);
        ASSERT_EQ(report.tenants.size(), 1u);
        const server::LoadgenTenantReport &row = report.tenants[0];
        EXPECT_EQ(row.completed, 0);
        EXPECT_EQ(row.cancelled,
                  static_cast<int64_t>(outcomes.size()));
        EXPECT_EQ(row.ttft_p50_us, 0.0);
        EXPECT_EQ(row.ttft_p99_us, 0.0);
        EXPECT_EQ(row.tpot_p50_us, 0.0);
        EXPECT_EQ(row.tpot_p99_us, 0.0);
        EXPECT_EQ(row.goodput_tokens_per_s, 0.0);
        EXPECT_EQ(row.slo_met, 0);
        EXPECT_EQ(row.tpot_measured, 0);
    }
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
    trace.back().cancel_at_us = trace.back().arrival_us;
    const TraceRun run = runTrace(engine, trace);
    EXPECT_EQ(run.stats.cancelled, 1);
    EXPECT_EQ(run.report.cancelled, 1);
    EXPECT_EQ(run.report.completed, 11);
    EXPECT_EQ(run.report.outcomes.back().terminal,
              StreamEventKind::kCancelled);
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
    const TraceRun run = runTrace(engine, trace);
    EXPECT_EQ(run.stats.rejected, 1);
    EXPECT_EQ(run.report.completed, 7);
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
        EXPECT_EQ(runTrace(engine, trace).kv_total_blocks, blocks)
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
    const ServingEngine unsized(config);
    config.usable_memory_fraction =
        (unsized.weightBytes() +
         probe.blockBytes() * static_cast<double>(blocks)) /
        unsized.gpu().hbm_capacity_bytes;
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
    const TraceRun run = runTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(run.report.completed, 16);
    EXPECT_GT(run.counters.preemptions, 0);
    EXPECT_GT(run.counters.reprefill_tokens, 0);
    const double peak_kv_utilization =
        run.counters.peakKvUtilization(run.kv_total_blocks);
    EXPECT_GT(peak_kv_utilization, 0.5);
    EXPECT_LE(peak_kv_utilization, 1.0);
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
    const TraceRun run = runTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(run.report.makespan_us, 5501373.6552527389);
    EXPECT_EQ(run.row().ttft_p99_us, 164198.04679312633);
    EXPECT_EQ(run.row().tpot_p50_us, 5669.4576493077657);
    EXPECT_EQ(run.counters.preemptions, 2);
    EXPECT_EQ(run.counters.reprefill_tokens, 569);
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
    const TraceRun run = runTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(run.report.makespan_us, 15058286.610239971);
    EXPECT_EQ(run.row().ttft_p99_us, 597168.22060781415);
    EXPECT_EQ(run.row().tpot_p50_us, 36380.252627417693);
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
    const TraceRun run = runTrace(engine, generateTrace(trace_config));
    EXPECT_EQ(run.report.completed, 16);
    EXPECT_EQ(run.counters.preemptions, 0);
    EXPECT_EQ(run.counters.reprefill_tokens, 0);
}

} // namespace
} // namespace comet

