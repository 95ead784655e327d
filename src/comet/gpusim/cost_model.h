/**
 * @file
 * Analytic GEMM kernel cost model for the A100-class GPU simulator.
 *
 * Every kernel-level and end-to-end performance figure in the paper is
 * regenerated through this model. It combines:
 *
 *  - a roofline-style memory/compute bound per GEMM,
 *  - per-kernel CUDA-core side work (dequantization for W4A16, INT4->8
 *    conversion for W4A8/W4Ax, channel permutation for FMPQ),
 *  - shared-memory fragment traffic (doubled when weight interleaving
 *    is disabled, reproducing the Figure 6 bank conflicts),
 *  - the software-pipeline composition from kernel/pipeline.h (stages
 *    overlap when the pipeline is on, serialize when off), and
 *  - for mixed-precision kernels, the closed-form SM scheduler from
 *    sm_scheduler.h (scheduleTileGrid), which turns the per-tile
 *    duration mix into a makespan under the chosen scheduling strategy
 *    from tile counts, without materializing the tiles.
 *
 * Calibration constants (efficiencies, launch overhead) are fitted so
 * the *relative* kernel ordering and speedup magnitudes track the
 * paper's measurements; they are collected in CostModelCalibration and
 * documented in EXPERIMENTS.md.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comet/gpusim/gpu_spec.h"
#include "comet/gpusim/sm_scheduler.h"
#include "comet/kernel/pipeline.h"
#include "comet/quant/fmpq.h"

namespace comet {

/** Logical GEMM problem: O[M,N] = X[M,K] * W[N,K]^T. */
struct GemmShape {
    int64_t m = 0;
    int64_t n = 0;
    int64_t k = 0;

    double
    ops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
               static_cast<double>(k);
    }
};

/** The GEMM kernels compared in the paper's evaluation. */
enum class GemmKernelKind {
    kCublasW16A16 = 0, ///< FP16 cuBLAS baseline
    kTrtLlmW4A16,      ///< TensorRT-LLM weight-only INT4
    kTrtLlmW8A8,       ///< TensorRT-LLM SmoothQuant-style INT8
    kQserveW4A8,       ///< QServe W4A8 (per-channel INT8 activations)
    kCometW4Ax,        ///< this paper's mixed W4A4/W4A8 kernel
    kOracleW4A4,       ///< CUTLASS best-case pure W4A4 (upper bound)
};

/** Returns a short display name, e.g. "cuBLAS-W16A16". */
const char *gemmKernelKindName(GemmKernelKind kind);

/** Feature switches of the COMET-W4Ax kernel (ablations of Figures 13
 * and 14). Ignored for the other kernel kinds. */
struct CometKernelFeatures {
    bool software_pipeline = true;
    bool weight_interleaving = true;
    bool fast_conversion = true;
    SchedulingStrategy scheduling = SchedulingStrategy::kTaskStealing;
    /** Fraction of k-blocks quantized W4A4 (paper evaluates 0.75 as the
     * conservative lower bound). */
    double w4a4_fraction = 0.75;
};

/** Fitted constants of the cost model. */
struct CostModelCalibration {
    /** Achievable fraction of peak HBM bandwidth. */
    double memory_efficiency = 0.85;
    /** SMs needed to saturate HBM; below this, bandwidth scales down. */
    int bandwidth_saturation_sms = 32;
    /** Achievable fraction of tensor-core peak per kernel family.
     * cuBLAS's generic tiles trail TRT-LLM's tuned LLM kernels. @{ */
    double efficiency_cublas = 0.55;
    double efficiency_trtllm = 0.62;
    double efficiency_qserve = 0.62;
    double efficiency_comet = 0.60;
    double efficiency_oracle = 0.62;
    /** @} */
    /** Fixed per-kernel launch + framework overhead, microseconds. */
    double launch_overhead_us = 18.0;
    /** CUDA-core ops per dequantized W4A16 weight value. */
    double dequant_ops_per_value = 6.0;
    /** CUDA-core ops per value for QServe's INT4->INT8 weight path. */
    double qserve_conv_ops_per_value = 2.0;
    /** CUDA-core ops per value, COMET fast conversion (3 instructions
     * per 8 values, measured from the bit-exact emulation). */
    double fast_conv_ops_per_value = 0.375;
    /** CUDA-core ops per value, naive conversion (the ~10 arithmetic
     * instructions of Figure 7(a) plus the sub-word insertion SASS the
     * compiler emits around them). */
    double naive_conv_ops_per_value = 28.0;
    /** Fraction of the mma duration's CUDA-core issue slots the
     * pipeline can dedicate to conversion before it spills onto the
     * critical path. */
    double conv_hide_budget = 0.3;
    /** Cost of one inter-SM synchronization barrier, microseconds. */
    double barrier_us = 0.05;
    /** CUDA-core ops per activation value for channel permutation
     * (paper reports permutation at ~0.7% of runtime). */
    double permute_ops_per_value = 1.0;
    /** Tile extents used by COMET (fixed at 128^3 in the paper). @{ */
    int64_t tile_m = 128;
    int64_t tile_n = 128;
    int64_t tile_k = 128;
    /** @} */
    /** Scheduler knobs for the task-stealing policy. */
    int steal_split = 4;
    double steal_overhead = 0.03;
};

/** Stage-level timing result for one kernel invocation. */
struct KernelCost {
    double total_us = 0.0;
    double memory_us = 0.0;   ///< HBM traffic time
    double compute_us = 0.0;  ///< tensor-core time (after scheduling)
    double convert_us = 0.0;  ///< CUDA-core side work
    double smem_us = 0.0;     ///< shared-memory fragment traffic
    double launch_us = 0.0;
    double sm_utilization = 1.0; ///< from the scheduler, COMET only
};

/**
 * The GEMM cost model bound to one GPU spec.
 */
class GemmCostModel
{
  public:
    explicit GemmCostModel(GpuSpec spec,
                           CostModelCalibration calibration = {});

    const GpuSpec &spec() const { return spec_; }
    const CostModelCalibration &calibration() const
    {
        return calibration_;
    }

    /**
     * Estimates one kernel invocation.
     *
     * @param shape    GEMM extents
     * @param kind     which kernel
     * @param features COMET feature switches (kCometW4Ax only)
     */
    KernelCost estimate(const GemmShape &shape, GemmKernelKind kind,
                        const CometKernelFeatures &features = {}) const;

  private:
    /** Tensor-core time of a uniform-precision GEMM at the given peak
     * efficiency, accounting for tile-level parallelism limits. */
    double computeTime(const GemmShape &shape, int precision_bits,
                       double efficiency, double parallel_fraction) const;

    /** Effective HBM bandwidth at the given SM occupancy. */
    double effectiveBandwidth(int active_sms) const;

    /** Mixed-precision tensor-core time via the SM scheduler. */
    double scheduledComputeTime(const GemmShape &shape,
                                const CometKernelFeatures &features,
                                double efficiency,
                                double *utilization) const;

    GpuSpec spec_;
    CostModelCalibration calibration_;
};

} // namespace comet
