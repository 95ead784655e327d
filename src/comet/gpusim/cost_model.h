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
 * Its constants (efficiencies, launch overhead, CUDA-core op counts)
 * are fitted so the *relative* kernel ordering and speedup magnitudes
 * track the paper's measurements. They are compile-time constants,
 * one table at the top of cost_model.cc, each with its provenance;
 * only the tile extents, which the compile planner also needs, live
 * here.
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

/** Tile extents of the COMET kernel (fixed at 128^3 in the paper).
 * @{ */
constexpr int64_t kTileM = 128;
constexpr int64_t kTileN = 128;
constexpr int64_t kTileK = 128;
/** @} */

/** Per-dimension tile counts of a GEMM at the kTile* extents. */
struct TileCounts {
    int64_t m = 0;
    int64_t n = 0;
    int64_t k = 0;

    /** Independent (m, n, k) tiles of the whole GEMM. */
    int64_t total() const { return m * n * k; }
};

/** Ceil-div tile counts of @p shape at the kTile* extents. */
constexpr TileCounts
tileCounts(const GemmShape &shape)
{
    return {(shape.m + kTileM - 1) / kTileM,
            (shape.n + kTileN - 1) / kTileN,
            (shape.k + kTileK - 1) / kTileK};
}

/** Fraction of GEMM k-blocks FMPQ runs W4A4 in deployment: the paper
 * measures more than 84% (Section 6.2). The kernel benches use 0.75,
 * the paper's stated lower bound; the serving engine and the compile
 * planner use this figure. */
constexpr double kDeployedW4A4Fraction = 0.84;

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

/** A named W4Ax kernel variant used by the ablation studies. */
struct W4AxVariant {
    std::string name;
    CometKernelFeatures features;
};

/** The Figure 13 ablation set: full kernel plus one feature removed at
 * a time. */
std::vector<W4AxVariant> figure13Variants();

/** The Figure 14 progression: naive mapping, +remapping, +tile
 * decomposition (the full kernel). */
std::vector<W4AxVariant> figure14Variants();

/** CUDA-core ops the COMET kernel spends per INT4 weight value it
 * widens to INT8: the fast (Figure 7(b)) or the naive (Figure 7(a))
 * conversion. */
double conversionOpsPerValue(bool fast_conversion);

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
    explicit GemmCostModel(GpuSpec spec);

    const GpuSpec &spec() const { return spec_; }

    /**
     * Estimates one kernel invocation.
     *
     * @param shape    GEMM extents
     * @param kind     which kernel
     * @param features COMET feature switches (kCometW4Ax only)
     */
    KernelCost estimate(const GemmShape &shape, GemmKernelKind kind,
                        const CometKernelFeatures &features = {}) const;

    /** Effective HBM bandwidth at @p active_sms occupied SMs, bytes/s
     * (spec().num_sms gives the full-occupancy figure every
     * memory-bound operator reads at). */
    double effectiveBandwidth(int active_sms) const;

  private:
    /** Tensor-core time of a uniform-precision GEMM at the given peak
     * efficiency, accounting for tile-level parallelism limits. */
    double computeTime(const GemmShape &shape, int precision_bits,
                       double efficiency, double parallel_fraction) const;

    /** Mixed-precision tensor-core time via the SM scheduler. */
    double scheduledComputeTime(const GemmShape &shape,
                                const CometKernelFeatures &features,
                                double efficiency,
                                double *utilization) const;

    GpuSpec spec_;
};

} // namespace comet
