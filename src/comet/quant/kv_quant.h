/**
 * @file
 * KV-cache quantization (paper Section 3.2, last paragraph).
 *
 * The attention (activation-activation) operator is memory-bound, so the
 * KV cache can be quantized aggressively without regard to tensor-core
 * granularity. COMET uses channel-wise *asymmetric* INT4 group
 * quantization: each channel of the K/V tensors gets its own affine
 * quantizer, re-derived per group of consecutive tokens so scales track
 * the evolving cache. RoPE and softmax regularize K's outliers and V has
 * few, which is why 4 bits suffice.
 *
 * Two forms live here:
 *  - KvCacheQuantizer quantizes a whole [tokens, channels] history in
 *    one call (one byte per value). It is the reference the serving
 *    store is tested against, and the form TP shards slice.
 *  - KvStore is the serving cache: append-only, nibble-packed at
 *    4 bits and below. Each append updates only the open (last,
 *    partial) group, and in it only the channels whose range the new
 *    row moved; closed groups are final. Its contents are
 *    bit-identical to KvCacheQuantizer::quantize of the whole history
 *    at every length. It has no float read path: attention reads the
 *    raw values and folds each group's parameters into its own sums
 *    (decode_attention.h).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/quant/quantizer.h"
#include "comet/tensor/packed.h"
#include "comet/tensor/tensor.h"

namespace comet {

/** Configuration of the KV-cache quantizer. */
struct KvQuantConfig {
    int bits = 4;             ///< precision of the stored cache
    int64_t group_size = 64;  ///< tokens per scale group
    bool asymmetric = true;   ///< affine (true) vs symmetric (false)
};

/** Whole-history quantized KV tensor, one byte per value: data plus
 * per-(group, channel) params. */
struct QuantizedKv {
    int64_t tokens = 0;
    int64_t channels = 0;
    int64_t group_size = 0;
    Int8Tensor data;          ///< values in [-8,7] for 4-bit configs
    std::vector<QuantParams> params; ///< [num_groups * channels]

    int64_t
    numGroups() const
    {
        return (tokens + group_size - 1) / group_size;
    }
};

/**
 * The whole-history KV-cache quantizer. Stateless: parameters are
 * derived from the data being quantized, so no calibration pass
 * exists.
 */
class KvCacheQuantizer
{
  public:
    explicit KvCacheQuantizer(KvQuantConfig config = {});

    const KvQuantConfig &config() const { return config_; }

    /** Fake-quantizes a [tokens, channels] K or V tensor. */
    Tensor fakeQuantize(const Tensor &kv) const;

    /** Real quantization to packed form. */
    QuantizedKv quantize(const Tensor &kv) const;

    /** Dequantizes a packed KV tensor back to float. */
    Tensor dequantize(const QuantizedKv &q) const;

  private:
    KvQuantConfig config_;
};

/**
 * Append-only quantized history of one K or V tensor.
 *
 * Values are stored two per byte (Int4Tensor's nibble order) when
 * bits <= 4 and one per byte otherwise; parameters are kept per
 * (group, channel). Only the open group's float rows are retained (at
 * most group_size of them), with its running per-channel min and max.
 * Channels are quantized independently, so each append re-derives the
 * parameters and re-quantizes the held values of only the channels
 * whose min or max the row moved, and quantizes the row itself; the
 * store always equals KvCacheQuantizer::quantize of the whole history,
 * bit for bit. No dequantized copy is kept, and none is produced:
 * readers take the raw values and the per-(group, channel) parameters.
 */
class KvStore
{
  public:
    /** @pre @p channels is even when config.bits <= 4. */
    KvStore(int64_t channels, KvQuantConfig config);

    int64_t tokens() const { return tokens_; }
    int64_t channels() const { return channels_; }
    int64_t groupSize() const { return config_.group_size; }

    /** True when values are stored two per byte. */
    bool packed() const { return config_.bits <= 4; }

    /** Appends one row of channels() floats. Adds the values it
     * (re)quantizes — the row's, plus the held values of each channel
     * whose range it moved — to the `quant.kv_values_quantized`
     * counter. */
    void append(const float *row);

    /** Bytes per token row: channels() / 2 when packed(), else
     * channels(). */
    int64_t rowBytes() const;

    /** Raw values: token t's row starts at values() + t * rowBytes().
     * Valid until the next append. */
    const uint8_t *values() const { return values_.data(); }

    /** Parameters, [groups, channels]: channel c of group g (tokens
     * [g * groupSize(), (g + 1) * groupSize())) dequantizes as
     * float(q - zeroPoints()[i]) * scales()[i], i = g * channels() + c.
     * Valid until the next append. @{ */
    const float *scales() const { return scales_.data(); }
    const int32_t *zeroPoints() const { return zero_points_.data(); }
    /** @} */

    /** The history in KvCacheQuantizer::quantize's form. */
    QuantizedKv snapshot() const;

    /** Bytes held by the quantized values and their parameters (the
     * open group's float rows are working state, not cache). */
    int64_t bytes() const;

  private:
    int64_t channels_;
    KvQuantConfig config_;
    int64_t tokens_ = 0;
    std::vector<uint8_t> values_;      ///< [tokens, rowBytes()]
    std::vector<float> scales_;        ///< [groups, channels]
    std::vector<int32_t> zero_points_; ///< [groups, channels]
    std::vector<float> open_rows_;     ///< open group, [rows, channels]
    std::vector<float> open_mins_;     ///< open group's range, [channels]
    std::vector<float> open_maxs_;     ///< open group's range, [channels]
    /** Working buffers of append(), kept between calls. */
    struct AppendBuffers {
        std::vector<int64_t> moved; ///< channels the row moved
        /** One moved channel's held values, padded to a multiple
         * of 8, with its parameters repeated per value
         * (quantizeAffine's form). @{ */
        std::vector<float> column;
        std::vector<float> scales;
        std::vector<int32_t> zero_points;
        /** @} */
        std::vector<int8_t> q; ///< quantized row or column, unpacked
    } buffers_;
};

} // namespace comet
