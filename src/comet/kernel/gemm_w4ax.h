/**
 * @file
 * The COMET-W4Ax mixed-precision GEMM (paper Section 4), emulated
 * bit-exactly.
 *
 * The kernel multiplies FMPQ-quantized activations (a mix of INT4 and
 * INT8 channel blocks) against block-wise INT4 weights:
 *
 *  - INT4 activation blocks run the W4A4 path (INT4 mma directly);
 *  - INT8 activation blocks run the W4A8 path: the weights of those
 *    blocks are stored in the prepared (interleaved + location-switched)
 *    layout and widened on the fly with the 2-instruction fast
 *    conversion, whose x16 factor is folded into the block scale.
 *
 * The GPU kernel computes in (tile_m x tile_n x tile_k) tiles (128^3
 * in the paper), each tile's precision decided by the activation block
 * covering its k-range, and widens each packed weight tile once in
 * registers for a whole m-tile. Here the tile is the unit of
 * accounting and of epilogue order, not of execution; run() is
 * column-blocked instead:
 *
 *  - every activation row is widened once per run into an int16
 *    operand row (INT4 blocks sign-extended, INT8 blocks copied);
 *  - every block of simd::kColumnBlock (8) output columns is widened
 *    once per run from the packed bytes (INT4 k-tiles sign-extended,
 *    INT8 k-tiles through the configured conversion, the fast one
 *    keeping its x16), and no widened copy outlives the run;
 *  - per column block and group of R = simd::kColumnBlockRows (4)
 *    activation rows, one simd::dotColumnBlockRows pass yields each
 *    row's eight per-k-tile INT32 dots: every pair row of the widened
 *    block is loaded once for the R rows, the register-level reuse the
 *    GPU kernel gets from widening a weight tile once per m-tile (the
 *    last group of a run may hold fewer rows);
 *  - per row, in row order, one simd::scaleColumnBlock call adds
 *
 *        float(dot_t) * (a_scale * fixup_t) * w_scale_t
 *
 *    per column in ascending k-tile order — exactly the sum a
 *    tile-by-tile walk forms, so the output is bit-identical to it for
 *    any tile shape, thread count and precision map (the dots are
 *    exact integers, whatever rows share their pass).
 *
 * Per-run statistics (tile precision mix, multiply-accumulates,
 * conversion instructions) are derived from the tile grid and report
 * what the tiled kernel executes; tests and the ablation benches
 * consume them.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/kernel/convert.h"
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
 * Construction performs the offline layout work (packing the W4A8
 * blocks into the prepared layout); run() executes the kernel against
 * runtime activations.
 */
class W4AxGemm
{
  public:
    /**
     * Binds the operator to a quantized weight and the activation
     * block-precision map it will be used with.
     *
     * @pre weight block size matches the precision map
     *      (weight.in_channels / weight.block_size precisions).
     */
    W4AxGemm(BlockQuantizedWeight weight,
             std::vector<BlockPrecision> precisions,
             W4AxGemmConfig config = {});

    const W4AxGemmConfig &config() const { return config_; }

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
    /** Widens output columns [@p column, @p column + @p width)
     * (width <= simd::kColumnBlock) into @p block in the column-block
     * layout, the block's unused columns zero, counting the
     * conversion's emulated instructions. @p plain and @p converted
     * are scratch of kColumnBlock * in_channels values each. */
    void widenBlock(int64_t column, int64_t width, int8_t *plain,
                    int8_t *converted, int16_t *block,
                    InstructionCounter *counter) const;

    BlockQuantizedWeight weight_;
    std::vector<BlockPrecision> precisions_;
    W4AxGemmConfig config_;
    /** Weights in prepared layout, used by INT8 blocks. */
    Int4Tensor prepared_;
    /** Per k-tile: 1 when the tile runs the W4A8 path. */
    std::vector<uint8_t> int8_tiles_;
    int64_t int8_k_tiles_ = 0; ///< k-tiles on the W4A8 path
    /** Weight scale per (k-tile, column), column-contiguous: tile t's
     * row starts at t * scale_stride_, padded with zeros so a column
     * block starting at any column reads kColumnBlock scales. */
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
