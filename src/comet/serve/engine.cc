#include "comet/serve/engine.h"

#include <algorithm>
#include <cmath>

#include "comet/chaos/failpoint.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/model/layer_shapes.h"
#include "comet/obs/metrics.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/tp/interconnect.h"

namespace comet {

namespace {

/** Effective stored bits per INT4 weight including group scales
 * (FP16 scale per 128-value group). */
constexpr double kInt4WeightBits = 4.25;

/** Per-layer attention kernel launch overhead, microseconds. */
constexpr double kAttnLaunchUs = 4.0;

/** Fraction of FP16 peak reachable by the (FlashAttention-style)
 * prefill attention kernels. */
constexpr double kPrefillAttnEfficiency = 0.5;

} // namespace

const char *
servingModeName(ServingMode mode)
{
    switch (mode) {
      case ServingMode::kTrtFp16: return "TRT-LLM-FP16";
      case ServingMode::kTrtW4A16: return "TRT-LLM-W4A16";
      case ServingMode::kTrtW8A8: return "TRT-LLM-W8A8";
      case ServingMode::kQserveW4A8Kv4: return "QServe";
      case ServingMode::kCometW4AxKv4: return "COMET";
      case ServingMode::kCometW4AxOnly: return "COMET-W4Ax";
      case ServingMode::kCometKv4Only: return "COMET-KV4";
    }
    return "?";
}

ServingPrecision
servingPrecision(ServingMode mode)
{
    switch (mode) {
      case ServingMode::kTrtFp16:
        return {16.0, 16.0, GemmKernelKind::kCublasW16A16};
      case ServingMode::kTrtW4A16:
        return {kInt4WeightBits, 16.0, GemmKernelKind::kTrtLlmW4A16};
      case ServingMode::kTrtW8A8:
        return {8.0, 8.0, GemmKernelKind::kTrtLlmW8A8};
      case ServingMode::kQserveW4A8Kv4:
        return {kInt4WeightBits, 4.0, GemmKernelKind::kQserveW4A8};
      case ServingMode::kCometW4AxKv4:
        return {kInt4WeightBits, 4.0, GemmKernelKind::kCometW4Ax};
      case ServingMode::kCometW4AxOnly:
        return {kInt4WeightBits, 16.0, GemmKernelKind::kCometW4Ax};
      case ServingMode::kCometKv4Only:
        // "KV quantization only within the COMET system": weights stay
        // INT4 (no activation quantization, so GEMMs run the W4A16
        // path) and only the cache drops to 4 bits.
        return {kInt4WeightBits, 4.0, GemmKernelKind::kTrtLlmW4A16};
    }
    return {};
}

EngineConfig
engineConfigWithKvBlocks(EngineConfig config, int64_t blocks)
{
    COMET_CHECK(blocks > 0);
    KvCacheConfig probe_config;
    probe_config.bits_per_value =
        servingPrecision(config.mode).kv_bits;
    probe_config.block_tokens = config.kv_block_tokens;
    probe_config.memory_budget_bytes = 1e9;
    const PagedKvCache probe(config.model, probe_config);
    const double weights = ServingEngine(config).weightBytes();
    // Half a block of headroom: the fraction is later inverted as
    // fraction * hbm - weights and floored into whole blocks, and a
    // bare N blocks can round-trip to N-1 through that arithmetic.
    // Each GPU stores 1/tp of every block (head sharding), so only
    // blocks/tp full-model bytes must fit beside this GPU's weight
    // shard — sizing against the whole pool would hand a TP=N engine
    // N times the requested capacity and silently fork its admission
    // stream from the TP=1 run.
    const auto tp = static_cast<double>(config.tensor_parallel);
    config.usable_memory_fraction =
        (weights + probe.blockBytes() *
                       (static_cast<double>(blocks) + 0.5) / tp) /
        config.gpu.hbm_capacity_bytes;
    probe_config.memory_budget_bytes =
        std::max(ServingEngine(config).kvPoolBytes(), 1.0);
    const PagedKvCache check(config.model, probe_config);
    COMET_CHECK_MSG(check.totalBlocks() == blocks,
                    "KV fraction did not round-trip to the "
                    "requested block count");
    return config;
}

ServingEngine::ServingEngine(EngineConfig config)
    : config_(std::move(config)),
      precision_(servingPrecision(config_.mode)),
      cost_model_(config_.gpu, config_.calibration)
{
    COMET_CHECK(config_.input_tokens > 0 && config_.output_tokens > 0);
    COMET_CHECK(config_.max_batch > 0);
    COMET_CHECK_MSG(config_.tensor_parallel >= 1,
                    "tensor_parallel must be positive");
    COMET_CHECK_MSG(config_.model.num_kv_heads %
                            config_.tensor_parallel ==
                        0,
                    "tensor_parallel must divide the KV head count");
    // In deployment FMPQ pushes more than 84% of GEMM compute into
    // W4A4 (Section 6.2); the kernel benches use 0.75 as the stated
    // lower bound, the end-to-end engine uses the deployed figure.
    comet_features_.w4a4_fraction = 0.84;
}

double
ServingEngine::weightBytes() const
{
    return config_.model.weightBytes(precision_.weight_bits) /
           static_cast<double>(config_.tensor_parallel);
}

double
ServingEngine::allReduceLatencyUs(int64_t m_tokens) const
{
    const int tp = config_.tensor_parallel;
    if (tp == 1)
        return 0.0;
    // Two all-reduces per decoder layer (after the attention output
    // and MLP down projections), each costed by the interconnect
    // model at the cheaper of its ring/direct algorithms for the
    // step's FP16 activation tensor.
    const tp::InterconnectModel link(config_.gpu);
    const double tensor_bytes =
        static_cast<double>(m_tokens) *
        static_cast<double>(config_.model.hidden_size) * 2.0;
    double total = 2.0 * link.allReduceUs(tensor_bytes, tp) *
                   static_cast<double>(config_.model.num_layers);
    // A fired tp.allreduce failpoint in the cost path models a
    // degraded link: the step's collectives run at half bandwidth.
    if (COMET_FAILPOINT("tp.allreduce")) {
        static obs::Counter &degraded =
            obs::MetricsRegistry::global().counter(
                "tp.allreduce.degraded");
        degraded.add(1);
        total *= 2.0;
    }
    return total;
}

double
ServingEngine::kvBudgetBytes() const
{
    const double usable = config_.gpu.hbm_capacity_bytes *
                          config_.usable_memory_fraction;
    return std::max(0.0, usable - weightBytes());
}

double
ServingEngine::kvPoolBytes() const
{
    // Each GPU stores 1/tp of every sequence's KV (head sharding), so
    // the per-GPU budget admits tp times as many full-model blocks.
    return kvBudgetBytes() *
           static_cast<double>(config_.tensor_parallel);
}

int64_t
ServingEngine::maxBatchSize() const
{
    const double budget = kvBudgetBytes();
    if (budget <= 0.0)
        return 0;
    KvCacheConfig cache_config;
    cache_config.bits_per_value = precision_.kv_bits;
    cache_config.block_tokens = config_.kv_block_tokens;
    cache_config.memory_budget_bytes = kvPoolBytes();
    const PagedKvCache cache(config_.model, cache_config);
    const int64_t blocks_per_seq = cache.blocksForTokens(
        config_.input_tokens + config_.output_tokens);
    if (blocks_per_seq == 0)
        return config_.max_batch;
    return std::min(config_.max_batch,
                    cache.totalBlocks() / blocks_per_seq);
}

double
ServingEngine::stepGemmLatencyUs(int64_t m_tokens) const
{
    const auto tp = static_cast<int64_t>(config_.tensor_parallel);
    double per_layer = 0.0;
    for (const LayerGemm &gemm :
         decoderLayerGemms(config_.model, m_tokens)) {
        // Megatron sharding: the first projection of each block is
        // column-parallel (N / tp), the second row-parallel (K / tp).
        GemmShape shape = gemm.shape;
        if (gemm.name == "qkv_proj" || gemm.name == "gate_up_proj" ||
            gemm.name == "up_proj") {
            shape.n = std::max<int64_t>(shape.n / tp, 1);
        } else {
            shape.k = std::max<int64_t>(shape.k / tp, 1);
        }
        per_layer += cost_model_
                         .estimate(shape, precision_.gemm_kind,
                                   comet_features_)
                         .total_us;
    }
    double total =
        per_layer * static_cast<double>(config_.model.num_layers);
    // LM head runs in FP16 in every configuration (column-parallel
    // under TP).
    total += cost_model_
                 .estimate({m_tokens,
                            std::max<int64_t>(
                                config_.model.vocab_size / tp, 1),
                            config_.model.hidden_size},
                           GemmKernelKind::kCublasW16A16)
                 .total_us;
    total += allReduceLatencyUs(m_tokens);
    return total;
}

double
ServingEngine::attentionLatencyUs(int64_t batch,
                                  int64_t context_tokens) const
{
    // Memory-bound act-act operator (Figure 2): the decode step
    // streams this GPU's shard of every running sequence's KV cache
    // (heads split across the TP group).
    const double kv_bytes =
        config_.model.kvBytesPerSequence(context_tokens,
                                         precision_.kv_bits) *
        static_cast<double>(batch) /
        static_cast<double>(config_.tensor_parallel);
    const double bandwidth = config_.gpu.hbm_bandwidth *
                             config_.calibration.memory_efficiency;
    return kv_bytes / bandwidth * 1e6 +
           static_cast<double>(config_.model.num_layers) *
               kAttnLaunchUs;
}

double
ServingEngine::stepLatencyUs(const StepPlan &plan,
                             StepGemmMemo &gemm_memo) const
{
    const int64_t gemm_tokens = plan.gemmTokens();
    COMET_CHECK(gemm_tokens > 0);
    auto gemm = gemm_memo.find(gemm_tokens);
    if (gemm == gemm_memo.end()) {
        gemm = gemm_memo
                   .emplace(gemm_tokens, stepGemmLatencyUs(gemm_tokens))
                   .first;
    }
    double total = gemm->second;
    if (plan.decode_batch > 0) {
        total += attentionLatencyUs(
            plan.decode_batch,
            plan.decode_context_sum / plan.decode_batch);
    }
    // Each chunk attends over its request's growing KV prefix (a
    // memory-bound read of the partial cache).
    for (const PlannedChunk &chunk : plan.chunks) {
        total += attentionLatencyUs(
            1, std::max<int64_t>(chunk.context_after, 1));
    }
    return total;
}

double
ServingEngine::prefillLatencyUs(int64_t batch) const
{
    return prefillLatencyUs(std::vector<int64_t>(
        static_cast<size_t>(batch), config_.input_tokens));
}

double
ServingEngine::prefillLatencyUs(
    const std::vector<int64_t> &prompt_tokens) const
{
    if (prompt_tokens.empty())
        return 0.0;
    // Per-request prefill accounting fans out across the runtime
    // pool; partials fold in ascending chunk order (and are exact
    // integer-valued doubles), so the totals match the sequential
    // sweep bit-for-bit for any pool size.
    struct PrefillSums {
        int64_t m = 0;
        double sq_sum = 0.0;
    };
    const PrefillSums sums = parallelReduceOrdered(
        0, static_cast<int64_t>(prompt_tokens.size()), 32,
        PrefillSums{},
        [&](int64_t begin, int64_t end) {
            PrefillSums partial;
            for (int64_t i = begin; i < end; ++i) {
                const int64_t tokens =
                    prompt_tokens[static_cast<size_t>(i)];
                partial.m += tokens;
                partial.sq_sum += static_cast<double>(tokens) *
                                  static_cast<double>(tokens);
            }
            return partial;
        },
        [](PrefillSums acc, const PrefillSums &partial) {
            acc.m += partial.m;
            acc.sq_sum += partial.sq_sum;
            return acc;
        });
    const int64_t m = sums.m;
    const double sq_sum = sums.sq_sum;
    double total = stepGemmLatencyUs(m);
    // Causal prefill attention: ~L_i^2 * d MACs per layer per head
    // group for each sequence, compute-bound at these lengths.
    const double attn_ops =
        static_cast<double>(config_.model.num_layers) * 2.0 *
        sq_sum / 2.0 *
        static_cast<double>(config_.model.hidden_size) * 2.0;
    total += attn_ops /
             (config_.gpu.fp16_tensor_ops * kPrefillAttnEfficiency) *
             1e6;
    return total;
}

ThroughputResult
ServingEngine::measureThroughput() const
{
    return measureThroughputAtBatch(maxBatchSize());
}

ThroughputResult
ServingEngine::measureThroughputAtBatch(int64_t batch) const
{
    obs::configureFromEnv();
    COMET_SPAN("engine/measure");
    ThroughputResult result;
    if (batch <= 0)
        return result;

    KvCacheConfig cache_config;
    cache_config.bits_per_value = precision_.kv_bits;
    cache_config.block_tokens = config_.kv_block_tokens;
    cache_config.memory_budget_bytes =
        std::max(kvPoolBytes(),
                 1.0); // pinned-batch runs may exceed the auto budget
    PagedKvCache cache(config_.model, cache_config);

    BatchSchedulerConfig sched_config;
    sched_config.max_batch = batch;
    sched_config.admission = config_.admission;
    sched_config.watermark_blocks = config_.kv_watermark_blocks;
    BatchScheduler scheduler(&cache, sched_config);
    // Every run starts its counters from zero — the published
    // per-run numbers must be identical for identical back-to-back
    // runs, never an accumulation across them.
    scheduler.resetCounters();
    for (int64_t i = 0; i < batch; ++i) {
        Request request;
        request.id = i;
        request.prompt_tokens = config_.input_tokens;
        request.max_output_tokens =
            std::max(config_.output_tokens,
                     config_.declared_output_tokens);
        request.eos_output_tokens = config_.output_tokens;
        scheduler.submit(request);
    }

    StepGemmMemo gemm_memo;
    double total_us = 0.0;
    int64_t generated = 0;
    double decode_us_sum = 0.0;
    int64_t decode_steps = 0;
    double batch_sum = 0.0;
    double util_sum = 0.0;
    while (!scheduler.idle()) {
        COMET_SPAN("engine/step");
        int64_t admitted = 0;
        {
            COMET_SPAN("engine/admit");
            admitted = scheduler.admit();
        }
        if (admitted > 0) {
            COMET_SPAN("engine/prefill");
            // Charge the admitted wave's real (re)prefill footprint:
            // preempted requests recompute prompt + generated.
            std::vector<int64_t> prefill_tokens;
            prefill_tokens.reserve(static_cast<size_t>(admitted));
            const auto &running_now = scheduler.running();
            for (size_t i = running_now.size() -
                            static_cast<size_t>(admitted);
                 i < running_now.size(); ++i) {
                prefill_tokens.push_back(
                    running_now[i].contextTokens());
            }
            result.prefill_us = prefillLatencyUs(prefill_tokens);
            total_us += result.prefill_us;
        }
        if (scheduler.runningCount() == 0) {
            // Nothing fits — the workload cannot be served.
            break;
        }
        COMET_SPAN("engine/decode_step");
        const int64_t running = scheduler.runningCount();
        const double step_us =
            stepLatencyUs(scheduler.planStep(), gemm_memo);
        total_us += step_us;
        decode_us_sum += step_us;
        ++decode_steps;
        batch_sum += static_cast<double>(running);
        util_sum += scheduler.kvUtilization();
        generated += scheduler.step();
        // Only the counters matter here; terminal requests are not
        // kept.
        scheduler.drainRetired();
    }

    result.batch = batch;
    const SchedulerCounters &counters = scheduler.counters();
    result.peak_batch = counters.peak_running;
    result.preemptions = counters.preemptions;
    result.reprefill_tokens = counters.reprefill_tokens;
    if (decode_steps > 0) {
        result.mean_batch =
            batch_sum / static_cast<double>(decode_steps);
        result.mean_kv_utilization =
            util_sum / static_cast<double>(decode_steps);
    }
    result.peak_kv_utilization =
        counters.peakKvUtilization(cache.totalBlocks());
    counters.publishTo(obs::MetricsRegistry::global());
    result.kv_bytes_per_seq = config_.model.kvBytesPerSequence(
        config_.input_tokens + config_.output_tokens,
        precision_.kv_bits);
    if (total_us > 0.0 && generated > 0) {
        result.tokens_per_second =
            static_cast<double>(generated) / (total_us * 1e-6);
        result.decode_step_us =
            decode_steps > 0 ? decode_us_sum /
                                   static_cast<double>(decode_steps)
                             : 0.0;
    }
    return result;
}

} // namespace comet
