/**
 * @file
 * The COMET serving engine and its baseline configurations
 * (paper Section 5 / Figures 10-12, 15).
 *
 * The engine combines the pieces: model geometry (GEMM shapes and
 * weight bytes), the paged KV cache (which sets the achievable batch
 * under the 80 GB budget), the continuous-batching scheduler, and the
 * GEMM cost model (per-step latency). Throughput is measured by
 * simulating full prefill+decode generations, step by step, through
 * the real scheduler — exactly the quantity the paper's end-to-end
 * evaluation reports.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comet/gpusim/cost_model.h"
#include "comet/gpusim/gpu_spec.h"
#include "comet/model/llm_config.h"
#include "comet/serve/batch_scheduler.h"

namespace comet {

/** The serving configurations compared in Figures 10-12 and 15. */
enum class ServingMode {
    kTrtFp16 = 0,      ///< TRT-LLM FP16 (W16A16, FP16 KV)
    kTrtW4A16,         ///< TRT-LLM weight-only INT4 (FP16 KV)
    kTrtW8A8,          ///< TRT-LLM SmoothQuant (INT8 KV)
    kQserveW4A8Kv4,    ///< QServe (W4A8, INT4 KV)
    kCometW4AxKv4,     ///< COMET, full configuration
    kCometW4AxOnly,    ///< ablation: W4Ax GEMMs, FP16 KV (Figure 15)
    kCometKv4Only,     ///< ablation: FP16 GEMMs, INT4 KV (Figure 15)
};

/** Display name matching the paper's legends. */
const char *servingModeName(ServingMode mode);

/** Precision profile a serving mode implies. */
struct ServingPrecision {
    double weight_bits = 16.0; ///< stored bits per weight element
    double kv_bits = 16.0;     ///< stored bits per KV cache element
    /** Kernel the cost model charges for the linear layers. */
    GemmKernelKind gemm_kind = GemmKernelKind::kCublasW16A16;
};

/** Resolves the precision profile of a mode. */
ServingPrecision servingPrecision(ServingMode mode);

/** Engine construction parameters. */
struct EngineConfig {
    LlmConfig model; ///< model geometry being served
    ServingMode mode = ServingMode::kCometW4AxKv4; ///< system config
    GpuSpec gpu = GpuSpec::a100Sxm480G(); ///< device being modeled
    CostModelCalibration calibration{};   ///< kernel cost calibration
    int64_t input_tokens = 1024; ///< prompt tokens per request
    int64_t output_tokens = 512; ///< generated tokens per request
    /** Generation bound the requests *declare* to admission. Real
     * clients ask for a generous max_tokens and usually hit EOS much
     * earlier; when this exceeds output_tokens, requests still stop
     * at output_tokens but full-output reservation must budget for
     * the declared bound — the gap that makes pessimistic admission
     * waste KV capacity. 0 (default) declares exactly
     * output_tokens. */
    int64_t declared_output_tokens = 0;
    /** Hard batch cap (the paper's systems cap at 256). */
    int64_t max_batch = 256;
    /** Fraction of HBM usable for weights + KV (the rest holds
     * activations, workspace and runtime). */
    double usable_memory_fraction = 0.90;
    /** KV page size in tokens. */
    int64_t kv_block_tokens = 16;
    /** When > 0, trace replay processes prompts in chunks of this
     * many tokens, interleaved with decode iterations of the running
     * batch (Sarathi-Serve-style chunked prefill; the scheduling
     * integration the paper's Section 7 points at). Replay runs as a
     * Server session, and this value becomes both its
     * ServerConfig::chunked_prefill_tokens and its
     * ServerConfig::step_token_budget: at most this many tokens
     * (decode plus prefill chunks) per fused step. 0 = stall-free
     * whole-prompt prefill. The measureThroughput* runs ignore it. */
    int64_t chunked_prefill_tokens = 0;
    /** Tensor-parallel degree (Megatron-style sharding): weights, KV
     * heads and GEMM extents split across this many identical GPUs;
     * two ring all-reduces per decoder layer join the partial sums.
     * The paper serves on a single GPU (degree 1, the default); the
     * extension quantifies COMET's one-GPU-vs-many-GPU value. */
    int tensor_parallel = 1;
    /** KV admission policy of the scheduler (and trace replay):
     * optimistic admission with preemption-based recovery by
     * default, or pessimistic full-output reservation. */
    AdmissionPolicy admission = AdmissionPolicy::kOptimisticPreempt;
    /** Free-block watermark optimistic admission keeps as decode
     * headroom (see BatchSchedulerConfig::watermark_blocks). */
    int64_t kv_watermark_blocks = 0;
};

/**
 * Returns @p config with usable_memory_fraction shrunk so the KV pool
 * holds exactly @p blocks pages — making the cache, not the batch
 * cap, the limiting resource. An 80 GB A100 fits the full 256-request
 * cap at KV4, so admission-policy and overload behaviour only appear
 * once memory binds; the admission bench and the online-server load
 * generator both construct that regime through this helper.
 */
EngineConfig engineConfigWithKvBlocks(EngineConfig config,
                                      int64_t blocks);

/** Step GEMM latency by token count (see
 * ServingEngine::stepLatencyUs). */
using StepGemmMemo = std::map<int64_t, double>;

/** Outcome of a throughput measurement. */
struct ThroughputResult {
    double tokens_per_second = 0.0;  ///< generated tokens / wall time
    int64_t batch = 0;               ///< requested batch size
    double decode_step_us = 0.0;     ///< mean decode iteration latency
    double prefill_us = 0.0;         ///< per-sequence prefill latency
    double kv_bytes_per_seq = 0.0;   ///< full KV footprint, one seq
    /** Mean running batch over decode steps — the steady-state batch
     * the admission policy actually sustains. */
    double mean_batch = 0.0;
    int64_t peak_batch = 0;          ///< max concurrent batch observed
    int64_t preemptions = 0;         ///< KV-exhaustion evictions
    int64_t reprefill_tokens = 0;    ///< recompute cost of preemption
    double mean_kv_utilization = 0.0; ///< mean used/total KV blocks
    double peak_kv_utilization = 0.0; ///< peak used/total KV blocks
};

/**
 * The serving engine / performance simulator.
 */
class ServingEngine
{
  public:
    /** Builds an engine for @p config (resolves the precision
     * profile and cost model once). */
    explicit ServingEngine(EngineConfig config);

    /** The construction parameters. */
    const EngineConfig &config() const { return config_; }

    /** Bytes of weight storage at this mode's precision, per GPU
     * (total divided by the tensor-parallel degree). */
    double weightBytes() const;

    /** Per-decode-step all-reduce time across the TP group,
     * microseconds (0 at degree 1). */
    double allReduceLatencyUs(int64_t m_tokens) const;

    /** Bytes of KV budget left after weights. Fails (returns 0) when
     * the weights alone exceed usable memory. */
    double kvBudgetBytes() const;

    /** Full-model bytes the sharded KV pool holds: the per-GPU budget
     * times the TP degree (each GPU stores 1/tp of every block, so
     * the group jointly caches tp times the per-GPU budget). The
     * scheduler's paged cache — and any component sizing one, like
     * the server's streaming cache — must use this aggregate, not the
     * per-GPU kvBudgetBytes(). */
    double kvPoolBytes() const;

    /** Largest batch the KV budget admits for the configured
     * input+output length (capped at max_batch); 0 when the model
     * does not fit at all. */
    int64_t maxBatchSize() const;

    /** Latency of one sequence's prefill at the given batch,
     * microseconds (per-iteration, the batch prefills together; every
     * sequence at the configured input_tokens). */
    double prefillLatencyUs(int64_t batch) const;

    /** Prefill latency of a batch with per-sequence prompt lengths —
     * the honest charge for heterogeneous admission waves and for
     * preempted requests re-prefilling their grown context. */
    double prefillLatencyUs(
        const std::vector<int64_t> &prompt_tokens) const;

    /**
     * Latency of one fused serving step, microseconds: the GEMM over
     * plan.gemmTokens() (decode tokens plus prefill chunk tokens in
     * one launch), the decode batch's attention read at its mean
     * context, and each prefill chunk's attention over its request's
     * KV prefix. Every loop that simulates traffic costs its steps
     * here. The GEMM term depends only on the token count and is
     * memoized in @p gemm_memo, which the caller scopes to one
     * session or run (the GEMM cost evaluates the `tp.allreduce`
     * failpoint, so the memo decides when that fault can fire).
     */
    double stepLatencyUs(const StepPlan &plan,
                         StepGemmMemo &gemm_memo) const;

    /**
     * Simulates serving `batches * batch` requests of the configured
     * shape through the continuous-batching scheduler and returns the
     * steady-state throughput at the engine's maximum batch size.
     */
    ThroughputResult measureThroughput() const;

    /** Throughput when the batch is pinned to @p batch (Figure 11). */
    ThroughputResult measureThroughputAtBatch(int64_t batch) const;

  private:
    /** GEMM-only latency of processing @p m_tokens tokens through one
     * step's linear layers: every decoder-layer GEMM, the FP16 LM head
     * and the TP all-reduce. */
    double stepGemmLatencyUs(int64_t m_tokens) const;

    /** Memory-bound attention (act-act) time for @p batch sequences
     * with mean context @p context_tokens. */
    double attentionLatencyUs(int64_t batch,
                              int64_t context_tokens) const;

    EngineConfig config_;
    ServingPrecision precision_;
    GemmCostModel cost_model_;
    CometKernelFeatures comet_features_;
};

} // namespace comet
