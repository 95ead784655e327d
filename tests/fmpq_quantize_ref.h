/**
 * @file
 * The element-wise FMPQ activation quantization, kept as the test
 * oracle of FmpqActivationQuantizer::quantize.
 *
 * Every value goes through the checked Tensor / packed-tensor
 * accessors: per (token, block), the absmax over the block's permuted
 * channels, the symmetric scale, then QuantParams::quantize and a
 * clamp to the block's range, one element at a time. quantize()
 * gathers rows and runs the SIMD span routines instead, and must equal
 * this loop byte for byte (packed INT4 data, INT8 data and scales).
 */
#pragma once

#include <algorithm>
#include <cmath>

#include "comet/quant/fmpq.h"

namespace comet {

inline MixedQuantizedActivation
fmpqQuantizeReference(const FmpqActivationQuantizer &quantizer,
                      const Tensor &x)
{
    const FmpqConfig &config = quantizer.config();
    const std::vector<BlockPrecision> &precisions =
        quantizer.blockPrecisions();
    const auto &order = quantizer.permutation().order();
    const int64_t tokens = x.rows();
    const int64_t k = config.block_size;

    MixedQuantizedActivation qa{
        tokens,
        quantizer.channels(),
        k,
        precisions,
        Int4Tensor(tokens, quantizer.channels()),
        Int8Tensor(tokens, quantizer.channels()),
        Tensor(tokens, quantizer.numBlocks()),
    };
    const QuantRange r4 = signedRange(config.low_bits);
    const QuantRange r8 = signedRange(config.high_bits);
    for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t b = 0; b < quantizer.numBlocks(); ++b) {
            const bool is_int4 =
                precisions[static_cast<size_t>(b)] == BlockPrecision::kInt4;
            const int bits = is_int4 ? config.low_bits : config.high_bits;
            float abs_max = 0.0f;
            for (int64_t i = 0; i < k; ++i) {
                const int64_t src = order[static_cast<size_t>(b * k + i)];
                abs_max = std::max(abs_max, std::fabs(x.at(t, src)));
            }
            const QuantParams params = chooseSymmetric(abs_max, bits);
            qa.scales.at(t, b) = params.scale;
            for (int64_t i = 0; i < k; ++i) {
                const int64_t dst = b * k + i;
                const int64_t src = order[static_cast<size_t>(dst)];
                const int32_t q = params.quantize(x.at(t, src));
                if (is_int4) {
                    qa.int4_data.set(t, dst,
                                     static_cast<int8_t>(
                                         std::clamp(q, r4.qmin, r4.qmax)));
                } else {
                    qa.int8_data.set(t, dst,
                                     static_cast<int8_t>(
                                         std::clamp(q, r8.qmin, r8.qmax)));
                }
            }
        }
    }
    return qa;
}

} // namespace comet
