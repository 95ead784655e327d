/**
 * @file
 * The COMET-W4Ax mixed-precision GEMM (paper Section 4), emulated
 * bit-exactly.
 *
 * The kernel multiplies FMPQ-quantized activations (a mix of INT4 and
 * INT8 channel blocks) against block-wise INT4 weights:
 *
 *  - INT4 activation blocks run the W4A4 path (INT4 mma directly);
 *  - INT8 activation blocks run the W4A8 path: their weights are
 *    widened on the fly with the fast conversion (shl + and, and; see
 *    convert.h), whose x16 factor is folded into the block scale.
 *
 * The GPU kernel computes in (tile_m x tile_n x tile_k) tiles (128^3
 * in the paper), each tile's precision decided by the activation block
 * covering its k-range, and widens each packed weight tile once in
 * registers for a whole m-tile. Its weights are reordered offline
 * (interleaving, then the location switch) so the in-register
 * conversion lands values directly in the mma operand layout. Here
 * the tile is the unit of accounting and of epilogue order, not of
 * execution; run() is column-blocked instead:
 *
 *  - construction packs the weights once into the *kernel layout*
 *    (simd::widenKernelBlock), the operator's one resident INT4 copy:
 *    per block of simd::kColumnBlock (8) output columns and 8-value
 *    step, 32 bytes whose low nibbles widen to the step's pair rows 0-1
 *    and high nibbles to pair rows 2-3 — the four int16 registers
 *    simd::dotColumnBlockRows reads for the step;
 *  - every activation row is widened once per run into an int16
 *    operand row (INT4 blocks sign-extended, INT8 blocks copied);
 *  - every column block is widened once per run in one dispatched
 *    simd::widenKernelBlock pass (INT4 k-tiles sign-extended, INT8
 *    k-tiles fast-converted with their x16, or sign-extended to true
 *    values under the naive-conversion ablation); each worker holds one
 *    widened block at a time, in scratch reused between runs;
 *  - per column block and group of R = simd::kColumnBlockRows (4)
 *    activation rows, one simd::dotColumnBlockRows pass yields each
 *    row's eight per-k-tile INT32 dots: every pair row of the widened
 *    block is loaded once for the R rows, the register-level reuse the
 *    GPU kernel gets from widening a weight tile once per m-tile (the
 *    last group of a run may hold fewer rows);
 *  - per group, one simd::scaleColumnBlockRows call adds, per row and
 *    column,
 *
 *        float(dot_t) * (a_scale * fixup_t) * w_scale_t
 *
 *    in ascending k-tile order — exactly the sum a tile-by-tile walk
 *    forms, so the output is bit-identical to it for any tile shape,
 *    thread count and precision map (the dots are exact integers,
 *    whatever rows share their pass).
 *
 * Per-run statistics (tile precision mix, multiply-accumulates,
 * conversion instructions) are derived from the tile grid and report
 * what the tiled kernel executes (the conversions: per m-tile, each
 * column's INT8 k-tiles a register word at a time, at the configured
 * conversion's per-word count); tests and the ablation benches
 * consume them.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/quant/fmpq.h"
#include "comet/tensor/tensor.h"

namespace comet {

/** Tile configuration of the W4Ax kernel. */
struct W4AxGemmConfig {
    int64_t tile_m = 128;
    int64_t tile_n = 128;
    int64_t tile_k = 128;
    /** When false the W4A8 path widens weights with the naive
     * conversion (numerically identical; only the instruction count
     * changes). Exists for the Figure 13 ablation. */
    bool use_fast_conversion = true;
    /** Host parallelism of the emulation (the GPU analogy: thread
     * blocks run concurrently). Whole n-tiles of output columns are
     * partitioned across the comet::runtime pool, so results and
     * statistics are bit-identical for any value. 1 = sequential on
     * the caller; 0 = use every pool slot (COMET_THREADS), except
     * that a GEMM too small to repay the dispatch runs on the caller;
     * k > 1 = cap the run at k executor slots. */
    int threads = 1;
};

/** Observed execution statistics of one W4Ax GEMM run. */
struct W4AxGemmStats {
    int64_t int4_tiles = 0;  ///< tiles executed on the W4A4 path
    int64_t int8_tiles = 0;  ///< tiles executed on the W4A8 path
    int64_t conversion_instructions = 0;
    int64_t int4_mac_ops = 0; ///< multiply-accumulates, W4A4 path
    int64_t int8_mac_ops = 0; ///< multiply-accumulates, W4A8 path

    double
    w4a4TileFraction() const
    {
        const int64_t total = int4_tiles + int8_tiles;
        return total == 0 ? 1.0
                          : static_cast<double>(int4_tiles) /
                                static_cast<double>(total);
    }
};

/**
 * A W4Ax GEMM operator bound to one quantized weight matrix.
 *
 * Construction performs the offline layout work (packing the weights
 * into the kernel layout); run() executes the kernel against runtime
 * activations.
 */
class W4AxGemm
{
  public:
    /**
     * Binds the operator to a quantized weight and the activation
     * block-precision map it will be used with. The operator keeps its
     * own kernel-layout copy of the weight values and scales, not
     * @p weight.
     *
     * @pre weight block size matches the precision map
     *      (weight.in_channels / weight.block_size precisions).
     */
    W4AxGemm(const BlockQuantizedWeight &weight,
             std::vector<BlockPrecision> precisions,
             W4AxGemmConfig config = {});

    const W4AxGemmConfig &config() const { return config_; }

    /** Resident bytes of the weight operand: the packed INT4 values
     * (one copy, in the kernel layout) plus the per-k-tile scales. */
    int64_t weightBytes() const;

    /**
     * Executes the mixed-precision GEMM and returns the dequantized
     * float output [tokens, out_features]. Each call adds one to the
     * `kernel.w4ax.runs` counter, its tile grid's W4A4 and W4A8
     * tiles to `kernel.w4ax.int4_tiles` / `int8_tiles`, and its
     * column-block dot passes (column blocks x row groups of
     * simd::kColumnBlockRows) to `kernel.w4ax.dot_passes`.
     *
     * @pre activation block structure (size, count, precisions) matches
     *      the one this operator was built for.
     */
    Tensor run(const MixedQuantizedActivation &activation,
               W4AxGemmStats *stats = nullptr) const;

  private:
    int64_t out_features_ = 0;
    int64_t in_channels_ = 0;
    int64_t block_size_ = 0;
    std::vector<BlockPrecision> precisions_;
    W4AxGemmConfig config_;
    /** The weights in the kernel layout (simd::widenKernelBlock):
     * column block b (columns [8b, 8b + 8), those past out_features
     * zero) takes block_bytes_ bytes from b * block_bytes_. */
    std::vector<uint8_t> packed_;
    int64_t block_bytes_ = 0;
    /** Per k-tile: 1 when the tile runs the W4A8 path. */
    std::vector<uint8_t> int8_tiles_;
    /** Per k-tile: 1 when the tile widens with the fast conversion. */
    std::vector<uint8_t> x16_tiles_;
    int64_t int8_k_tiles_ = 0; ///< k-tiles on the W4A8 path
    /** Emulated instructions of the configured W4A8 conversion per
     * register word. */
    int64_t conversions_per_word_ = 0;
    /** Weight scale per (k-tile, column), column-contiguous: tile t's
     * row starts at t * scale_stride_, padded with zeros to whole
     * column blocks. */
    std::vector<float> tile_scales_;
    int64_t scale_stride_ = 0;
};

/**
 * Golden model for W4AxGemm::run — dequantizes both operands to float
 * and multiplies. Bit-level kernels are verified against this.
 */
Tensor gemmW4AxReference(const MixedQuantizedActivation &activation,
                         const BlockQuantizedWeight &weight);

} // namespace comet
