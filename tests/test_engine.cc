/**
 * @file
 * Unit and integration tests for the serving engine — memory-driven
 * batch sizing and the end-to-end throughput ordering of Figures
 * 10-12 and 15.
 */
#include <gtest/gtest.h>

#include "comet/kvcache/kv_cache.h"
#include "comet/model/layer_shapes.h"
#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"

namespace comet {
namespace {

EngineConfig
makeConfig(const LlmConfig &model, ServingMode mode,
           int64_t input = 1024, int64_t output = 512)
{
    EngineConfig config;
    config.model = model;
    config.mode = mode;
    config.input_tokens = input;
    config.output_tokens = output;
    return config;
}

/** One decode-only step of @p batch sequences at @p context tokens
 * each, costed by the engine's one step-cost function. */
double
decodeStepUs(const ServingEngine &engine, int64_t batch, int64_t context)
{
    StepPlan plan;
    plan.decode_batch = batch;
    plan.decode_context_sum = batch * context;
    StepGemmMemo gemm_memo;
    return engine.stepLatencyUs(plan, gemm_memo);
}

TEST(ServingMode, NamesMatchPaperLegends)
{
    EXPECT_STREQ(servingModeName(ServingMode::kTrtFp16),
                 "TRT-LLM-FP16");
    EXPECT_STREQ(servingModeName(ServingMode::kQserveW4A8Kv4),
                 "QServe");
    EXPECT_STREQ(servingModeName(ServingMode::kCometW4AxKv4),
                 "COMET");
}

TEST(ServingPrecision, ModeMapping)
{
    EXPECT_DOUBLE_EQ(servingPrecision(ServingMode::kTrtFp16).kv_bits,
                     16.0);
    EXPECT_DOUBLE_EQ(
        servingPrecision(ServingMode::kCometW4AxKv4).kv_bits, 4.0);
    EXPECT_EQ(servingPrecision(ServingMode::kCometW4AxKv4).gemm_kind,
              GemmKernelKind::kCometW4Ax);
    EXPECT_LT(servingPrecision(ServingMode::kTrtW4A16).weight_bits,
              5.0);
}

TEST(ServingEngine, WeightBytesFollowPrecision)
{
    const ServingEngine fp16(
        makeConfig(LlmConfig::llama3_8b(), ServingMode::kTrtFp16));
    const ServingEngine comet(makeConfig(LlmConfig::llama3_8b(),
                                         ServingMode::kCometW4AxKv4));
    EXPECT_NEAR(fp16.weightBytes() / comet.weightBytes(),
                16.0 / 4.25, 0.01);
}

TEST(ServingEngine, CometFitsLargerBatches)
{
    // The KV4 cache plus INT4 weights admit far larger batches —
    // the enabler of the Figure 10 gains.
    const ServingEngine fp16(
        makeConfig(LlmConfig::llama3_70b(), ServingMode::kTrtFp16));
    const ServingEngine comet(makeConfig(LlmConfig::llama3_70b(),
                                         ServingMode::kCometW4AxKv4));
    // FP16 LLaMA-3-70B (~141 GB) does not even fit on one A100-80G.
    EXPECT_EQ(fp16.maxBatchSize(), 0);
    EXPECT_GT(comet.maxBatchSize(), 8);
}

TEST(ServingEngine, Kv4AdmitsMoreThanKv16AtSameWeights)
{
    // Use the 70B model so neither configuration saturates the
    // engine's 256-sequence cap.
    const ServingEngine kv16(makeConfig(LlmConfig::llama3_70b(),
                                        ServingMode::kCometW4AxOnly));
    const ServingEngine kv4(makeConfig(LlmConfig::llama3_70b(),
                                       ServingMode::kCometW4AxKv4));
    EXPECT_GT(kv16.maxBatchSize(), 0);
    EXPECT_GT(kv4.maxBatchSize(), 2 * kv16.maxBatchSize());
}

TEST(ServingEngine, DecodeLatencyGrowsWithBatchAndContext)
{
    const ServingEngine engine(makeConfig(
        LlmConfig::llama3_8b(), ServingMode::kCometW4AxKv4));
    EXPECT_LT(decodeStepUs(engine, 4, 512),
              decodeStepUs(engine, 64, 512));
    EXPECT_LT(decodeStepUs(engine, 16, 256),
              decodeStepUs(engine, 16, 4096));
}

TEST(ServingEngine, ThroughputImprovesWithBatch)
{
    const ServingEngine engine(makeConfig(
        LlmConfig::llama3_8b(), ServingMode::kTrtFp16));
    const double t4 =
        engine.measureThroughputAtBatch(4).tokens_per_second;
    const double t64 =
        engine.measureThroughputAtBatch(64).tokens_per_second;
    // Paper Figure 11: batch 64 is ~7.5x batch 4 for TRT-FP16.
    EXPECT_GT(t64, 4.0 * t4);
}

TEST(ServingEngine, CometBeatsBaselinesEndToEnd)
{
    // The Figure 10 ordering on LLaMA-3-8B at 1024/512.
    const auto throughput = [&](ServingMode mode) {
        const ServingEngine engine(
            makeConfig(LlmConfig::llama3_8b(), mode));
        return engine.measureThroughput().tokens_per_second;
    };
    const double fp16 = throughput(ServingMode::kTrtFp16);
    const double w4a16 = throughput(ServingMode::kTrtW4A16);
    const double qserve = throughput(ServingMode::kQserveW4A8Kv4);
    const double comet = throughput(ServingMode::kCometW4AxKv4);
    EXPECT_GT(comet, qserve);
    EXPECT_GT(comet, w4a16);
    EXPECT_GT(comet, fp16);
    EXPECT_GT(qserve, fp16);
}

TEST(ServingEngine, AblationModesLandBetween)
{
    // Figure 15: W4Ax-only and KV4-only each beat the W4A16 baseline
    // but trail the combined system.
    const auto throughput = [&](ServingMode mode) {
        const ServingEngine engine(
            makeConfig(LlmConfig::llama2_13b(), mode));
        return engine.measureThroughput().tokens_per_second;
    };
    const double baseline = throughput(ServingMode::kTrtW4A16);
    const double w4ax_only = throughput(ServingMode::kCometW4AxOnly);
    const double kv4_only = throughput(ServingMode::kCometKv4Only);
    const double full = throughput(ServingMode::kCometW4AxKv4);
    EXPECT_GT(w4ax_only, baseline);
    EXPECT_GT(kv4_only, baseline);
    EXPECT_GT(full, w4ax_only);
    EXPECT_GT(full, kv4_only);
}

TEST(ServingEngine, ThroughputResultFieldsPopulated)
{
    const ServingEngine engine(makeConfig(
        LlmConfig::mistral_7b(), ServingMode::kCometW4AxKv4, 128,
        128));
    const ThroughputResult result = engine.measureThroughput();
    EXPECT_GT(result.tokens_per_second, 0.0);
    EXPECT_GT(result.batch, 0);
    EXPECT_GT(result.decode_step_us, 0.0);
    EXPECT_GT(result.prefill_us, 0.0);
    EXPECT_GT(result.kv_bytes_per_seq, 0.0);
}

TEST(ServingEngine, ZeroBatchYieldsZeroThroughput)
{
    const ServingEngine engine(makeConfig(
        LlmConfig::llama3_70b(), ServingMode::kTrtFp16));
    const ThroughputResult result = engine.measureThroughput();
    EXPECT_DOUBLE_EQ(result.tokens_per_second, 0.0);
}

TEST(ServingEngine, PrefillCostingSchedulesTilesWithoutBuildingThem)
{
    // The cost model schedules each COMET GEMM's tile grid in closed
    // form: the logical tile count is accounted, no tile is built.
    const ServingEngine engine(makeConfig(LlmConfig::llama3_8b(),
                                          ServingMode::kCometW4AxKv4));
    const int64_t batch = engine.maxBatchSize();
    ASSERT_GT(batch, 0);
    int64_t expected = 0;
    for (const LayerGemm &gemm : decoderLayerGemms(
             engine.config().model,
             batch * engine.config().input_tokens)) {
        const GemmShape &shape = gemm.shape;
        expected += ((shape.m + kTileM - 1) / kTileM) *
                    ((shape.n + kTileN - 1) / kTileN) *
                    ((shape.k + kTileK - 1) / kTileK);
    }

    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    obs::Counter &scheduled = registry.counter("gpusim.tiles_scheduled");
    obs::Counter &materialized =
        registry.counter("gpusim.tiles_materialized");
    const int64_t scheduled_before = scheduled.value();
    const int64_t materialized_before = materialized.value();
    engine.prefillLatencyUs(batch);
    EXPECT_EQ(scheduled.value() - scheduled_before, expected);
    EXPECT_EQ(materialized.value(), materialized_before);
}

TEST(TensorParallel, DegreeOneIsTheBaseline)
{
    EngineConfig config =
        makeConfig(LlmConfig::llama3_8b(), ServingMode::kCometW4AxKv4);
    const ServingEngine single(config);
    config.tensor_parallel = 1;
    const ServingEngine explicit_one(config);
    EXPECT_DOUBLE_EQ(single.weightBytes(), explicit_one.weightBytes());
    EXPECT_DOUBLE_EQ(decodeStepUs(single, 16, 512),
                     decodeStepUs(explicit_one, 16, 512));
    EXPECT_DOUBLE_EQ(single.allReduceLatencyUs(16), 0.0);
}

TEST(TensorParallel, ShardsWeightsAndEnablesBigModels)
{
    // FP16 LLaMA-3-70B does not fit one A100 but fits four.
    EngineConfig config =
        makeConfig(LlmConfig::llama3_70b(), ServingMode::kTrtFp16);
    const ServingEngine one(config);
    EXPECT_EQ(one.maxBatchSize(), 0);
    config.tensor_parallel = 4;
    const ServingEngine four(config);
    EXPECT_NEAR(four.weightBytes(), one.weightBytes() / 4.0, 1.0);
    EXPECT_GT(four.maxBatchSize(), 0);
}

TEST(TensorParallel, AllReduceCostGrowsWithDegreeAndTokens)
{
    EngineConfig config =
        makeConfig(LlmConfig::llama3_8b(), ServingMode::kCometW4AxKv4);
    config.tensor_parallel = 2;
    const ServingEngine two(config);
    config.tensor_parallel = 4;
    const ServingEngine four(config);
    EXPECT_GT(two.allReduceLatencyUs(64), 0.0);
    EXPECT_GT(four.allReduceLatencyUs(64),
              two.allReduceLatencyUs(64));
    EXPECT_GT(two.allReduceLatencyUs(256),
              two.allReduceLatencyUs(64));
}

TEST(TensorParallel, SpeedupIsSubLinear)
{
    // Sharding the GEMMs helps, but all-reduces and fixed overheads
    // keep the per-step speedup below the degree.
    EngineConfig config =
        makeConfig(LlmConfig::llama3_70b(), ServingMode::kCometW4AxKv4);
    const ServingEngine one(config);
    config.tensor_parallel = 4;
    const ServingEngine four(config);
    const double t1 = decodeStepUs(one, 64, 1024);
    const double t4 = decodeStepUs(four, 64, 1024);
    EXPECT_LT(t4, t1);
    EXPECT_GT(t4, t1 / 4.0);
}

TEST(TensorParallel, CometOnOneGpuRivalsFp16OnFour)
{
    // The serving-cost argument the paper opens with: quantization
    // buys what extra GPUs would otherwise buy.
    EngineConfig config =
        makeConfig(LlmConfig::llama3_70b(), ServingMode::kCometW4AxKv4);
    const double comet_single =
        ServingEngine(config).measureThroughput().tokens_per_second;
    config.mode = ServingMode::kTrtFp16;
    config.tensor_parallel = 4;
    const double fp16_quad =
        ServingEngine(config).measureThroughput().tokens_per_second;
    ASSERT_GT(fp16_quad, 0.0);
    EXPECT_GT(comet_single, 0.5 * fp16_quad);
}

TEST(TensorParallelDeathTest, MustDivideKvHeads)
{
    EngineConfig config =
        makeConfig(LlmConfig::llama3_8b(), ServingMode::kCometW4AxKv4);
    config.tensor_parallel = 3; // 8 kv heads % 3 != 0
    EXPECT_DEATH(ServingEngine{config}, "divide the KV head count");
}

TEST(EngineConfig, KvBlocksHelperRoundTripsExactly)
{
    // The helper encodes a block count as a memory fraction that is
    // later inverted (fraction * hbm - weights, floored into whole
    // blocks); the round-trip must yield exactly the requested pool,
    // not N-1 through floating-point truncation.
    for (int64_t blocks : {7, 64, 255, 1024, 4096}) {
        const EngineConfig config = engineConfigWithKvBlocks(
            makeConfig(LlmConfig::llama3_8b(),
                       ServingMode::kCometW4AxKv4),
            blocks);
        KvCacheConfig cache_config;
        cache_config.bits_per_value =
            servingPrecision(config.mode).kv_bits;
        cache_config.block_tokens = kKvBlockTokens;
        cache_config.memory_budget_bytes =
            ServingEngine(config).kvBudgetBytes();
        const PagedKvCache cache(config.model, cache_config);
        EXPECT_EQ(cache.totalBlocks(), blocks);
    }
}

TEST(EngineAdmission, OptimisticOversubscriptionRecoversAndWins)
{
    // Pin the batch to twice the KV-limited maximum. Full reservation
    // caps the concurrent batch at maxBatchSize(); optimistic
    // admission overshoots on prompt-only footprints, recovers from
    // exhaustion via preemption, and still completes everything —
    // sustaining a strictly larger steady-state batch.
    EngineConfig config = engineConfigWithKvBlocks(
        makeConfig(LlmConfig::llama3_8b(), ServingMode::kCometW4AxKv4,
                   /*input=*/256, /*output=*/256),
        /*blocks=*/256);
    const ServingEngine optimistic(config);
    const int64_t kv_limited = optimistic.maxBatchSize();
    ASSERT_GT(kv_limited, 0);
    ASSERT_LT(kv_limited, config.max_batch); // KV is the binding limit

    const ThroughputResult opt =
        optimistic.measureThroughputAtBatch(2 * kv_limited);
    config.admission = AdmissionPolicy::kReserveFullOutput;
    const ThroughputResult full =
        ServingEngine(config).measureThroughputAtBatch(2 * kv_limited);

    EXPECT_GT(opt.tokens_per_second, 0.0);
    EXPECT_GT(full.tokens_per_second, 0.0);
    EXPECT_GT(opt.preemptions, 0);
    EXPECT_GT(opt.reprefill_tokens, 0);
    EXPECT_EQ(full.preemptions, 0);
    EXPECT_GT(opt.peak_batch, kv_limited);
    EXPECT_LE(full.peak_batch, kv_limited);
    EXPECT_GT(opt.mean_batch, full.mean_batch);
    EXPECT_GT(opt.mean_kv_utilization, full.mean_kv_utilization);
    EXPECT_LE(opt.peak_kv_utilization, 1.0);
}

TEST(EngineAdmission, BackToBackRunsReportIdenticalCounters)
{
    // Scheduler counters are re-zeroed at the start of every run, so
    // a second measurement on the same engine — including one with
    // heavy preemption traffic — reports the same numbers as the
    // first instead of accumulating across runs.
    const EngineConfig config = engineConfigWithKvBlocks(
        makeConfig(LlmConfig::llama3_8b(), ServingMode::kCometW4AxKv4,
                   /*input=*/256, /*output=*/256),
        /*blocks=*/256);
    const ServingEngine engine(config);
    const int64_t batch = 2 * engine.maxBatchSize();
    ASSERT_GT(batch, 0);

    const ThroughputResult first =
        engine.measureThroughputAtBatch(batch);
    const ThroughputResult second =
        engine.measureThroughputAtBatch(batch);
    ASSERT_GT(first.preemptions, 0); // the regression would double it
    EXPECT_EQ(first.preemptions, second.preemptions);
    EXPECT_EQ(first.reprefill_tokens, second.reprefill_tokens);
    EXPECT_EQ(first.peak_batch, second.peak_batch);
    EXPECT_DOUBLE_EQ(first.mean_batch, second.mean_batch);
    EXPECT_DOUBLE_EQ(first.peak_kv_utilization,
                     second.peak_kv_utilization);
    EXPECT_DOUBLE_EQ(first.mean_kv_utilization,
                     second.mean_kv_utilization);
    EXPECT_DOUBLE_EQ(first.tokens_per_second,
                     second.tokens_per_second);
}

} // namespace
} // namespace comet

