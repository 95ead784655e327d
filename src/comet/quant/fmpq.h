/**
 * @file
 * FMPQ: Fine-grained Mixed-Precision Quantization (paper Section 3).
 *
 * FMPQ quantizes LLM activations block-wise along the channel dimension:
 * the channel axis is split into blocks of k channels (k = 128 by
 * default, matching the GPU's computation granularity), each block gets
 * its own per-token symmetric quantizer, and a block is assigned INT8
 * precision only when it contains outlier channels — every other block
 * is INT4. A channel permutation (shared with the weight matrix to keep
 * the GEMM result unchanged) first clusters the outlier channels into as
 * few blocks as possible so that, in practice, fewer than 20% of blocks
 * need INT8 and more than 84% of GEMM compute runs as W4A4.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/quant/outlier.h"
#include "comet/quant/permutation.h"
#include "comet/quant/quantizer.h"
#include "comet/tensor/packed.h"
#include "comet/tensor/tensor.h"

namespace comet {

/** Precision assigned to one activation block. */
enum class BlockPrecision : uint8_t {
    kInt4 = 0,
    kInt8 = 1,
};

/** Returns "INT4" / "INT8". */
const char *blockPrecisionName(BlockPrecision precision);

/** Configuration of the FMPQ activation quantizer. */
struct FmpqConfig {
    /** Channel block size k; must divide the channel count. The paper
     * uses 128 to match tensor-core tiling. */
    int64_t block_size = 128;

    /** Outlier detector settings. */
    OutlierConfig outlier;

    /** When false, channels keep their original order (Figure 4(c));
     * when true, outlier channels are clustered first (Figure 4(d)). */
    bool enable_permutation = true;

    /** Bit widths for normal and outlier blocks. */
    int low_bits = 4;
    int high_bits = 8;
};

/**
 * Real (packed) mixed-precision quantization of an activation matrix.
 *
 * Data is stored in *permuted* channel order — the order the kernel
 * consumes. Blocks flagged kInt4 are valid in int4_data; kInt8 blocks in
 * int8_data. Scales are per (token, block).
 */
struct MixedQuantizedActivation {
    int64_t tokens = 0;
    int64_t channels = 0;
    int64_t block_size = 0;
    std::vector<BlockPrecision> precisions; ///< one per channel block
    Int4Tensor int4_data;                   ///< [tokens, channels]
    Int8Tensor int8_data;                   ///< [tokens, channels]
    Tensor scales;                          ///< [tokens, num_blocks]

    int64_t
    numBlocks() const
    {
        return static_cast<int64_t>(precisions.size());
    }
};

/**
 * Real (packed) block-wise INT4 quantization of a weight matrix
 * [out_features, in_channels], stored in permuted channel order with one
 * scale per (out_feature, block).
 */
struct BlockQuantizedWeight {
    int64_t out_features = 0;
    int64_t in_channels = 0;
    int64_t block_size = 0;
    Int4Tensor data;   ///< [out_features, in_channels]
    Tensor scales;     ///< [out_features, num_blocks]
};

/**
 * The FMPQ activation quantizer for one linear layer.
 *
 * Calibrated once from sampled activations, then applied to any number
 * of runtime activation matrices. Calibration fixes the channel
 * permutation and the per-block precision; runtime scales are computed
 * per token (dynamic quantization), as the paper's kernel does.
 */
class FmpqActivationQuantizer
{
  public:
    /**
     * Calibrates the quantizer from a calibration activation matrix
     * [tokens, channels].
     *
     * @pre channels % config.block_size == 0.
     */
    static FmpqActivationQuantizer calibrate(const Tensor &calibration,
                                             const FmpqConfig &config = {});

    /**
     * Reassembles a quantizer from previously calibrated state (the
     * serialization path). Validates that the permutation and
     * precision map are structurally consistent with the config.
     */
    static FmpqActivationQuantizer fromParts(
        const FmpqConfig &config, ChannelPermutation permutation,
        std::vector<BlockPrecision> precisions);

    const FmpqConfig &config() const { return config_; }
    const ChannelPermutation &permutation() const { return permutation_; }
    const std::vector<BlockPrecision> &
    blockPrecisions() const
    {
        return precisions_;
    }

    int64_t channels() const { return permutation_.channels(); }
    int64_t
    numBlocks() const
    {
        return static_cast<int64_t>(precisions_.size());
    }

    /** Fraction of blocks quantized to INT4. */
    double int4BlockFraction() const;

    /** Fraction of GEMM multiply-accumulates that execute as W4A4 —
     * equal to the INT4 block fraction because every (M, N) tile over an
     * INT4 channel block is W4A4. */
    double w4a4ComputeFraction() const { return int4BlockFraction(); }

    /**
     * Fake-quantizes runtime activations [tokens, channels] (original
     * channel order in, original channel order out). Used by the
     * accuracy experiments.
     */
    Tensor fakeQuantize(const Tensor &x) const;

    /**
     * Quantizes runtime activations to packed mixed-precision form in
     * permuted channel order, for the bit-exact kernel path. Each
     * token's row is gathered into permuted order once; every block
     * takes its absmax scale, and each run of same-precision blocks
     * quantizes through simd::quantizeAffine, the INT4 ones packed by
     * simd::packInt4 — byte-identical to the element-wise
     * QuantParams::quantize-and-clamp loop kept as the test oracle.
     * Rows fan out across the pool only when tokens x channels reaches
     * kMinPoolMacs. Each call adds one to the
     * `quant.act_quantize_calls` counter.
     */
    MixedQuantizedActivation quantize(const Tensor &x) const;

    /**
     * Quantizes a weight matrix [out_features, in_channels] to packed
     * block-wise INT4, applying this quantizer's channel permutation so
     * the GEMM remains computationally equivalent.
     */
    BlockQuantizedWeight quantizeWeight(const Tensor &w) const;

  private:
    FmpqActivationQuantizer(FmpqConfig config,
                            ChannelPermutation permutation,
                            std::vector<BlockPrecision> precisions)
        : config_(config), permutation_(std::move(permutation)),
          precisions_(std::move(precisions))
    {
    }

    FmpqConfig config_;
    ChannelPermutation permutation_;
    std::vector<BlockPrecision> precisions_;
};

/**
 * Dequantizes a packed mixed-precision activation back to float in
 * *permuted* channel order (for kernel verification).
 */
Tensor dequantize(const MixedQuantizedActivation &qa);

/** Dequantizes a packed block-wise weight back to float (permuted
 * order). */
Tensor dequantize(const BlockQuantizedWeight &qw);

} // namespace comet
