/**
 * @file
 * The tile-walk W4Ax GEMM, kept as the test oracle of W4AxGemm::run.
 *
 * This is the kernel computed the way the GPU schedules it: every
 * (tile_m x tile_n x tile_k) tile accumulates into an INT32 AccumTile
 * through the emulated mma instructions (W4A4, fast-converted W4A8, or
 * the naive-conversion ablation), and each finished tile is folded
 * into the float output as float(acc) * (a_scale * fixup) * w_scale,
 * k-tiles in ascending order. W4AxGemm::run streams rows instead and
 * must equal this walk bit for bit, statistics included. Sequential:
 * the walk's output does not depend on the thread count.
 */
#pragma once

#include <algorithm>
#include <vector>

#include "comet/kernel/gemm_w4ax.h"
#include "comet/kernel/interleave.h"
#include "comet/kernel/mma.h"
#include "comet/simd/simd.h"

namespace comet {

inline Tensor
tileWalkW4Ax(const BlockQuantizedWeight &weight,
             const std::vector<BlockPrecision> &precisions,
             const W4AxGemmConfig &config,
             const MixedQuantizedActivation &activation,
             W4AxGemmStats *stats = nullptr)
{
    const Int4Tensor prepared = prepareWeightsForW4A8(weight.data);
    const int64_t m_dim = activation.tokens;
    const int64_t n_dim = weight.out_features;
    const int64_t k_dim = weight.in_channels;
    Tensor out(m_dim, n_dim);
    InstructionCounter counter;
    W4AxGemmStats run;
    for (int64_t m0 = 0; m0 < m_dim; m0 += config.tile_m) {
        const int64_t mm = std::min(config.tile_m, m_dim - m0);
        for (int64_t n0 = 0; n0 < n_dim; n0 += config.tile_n) {
            const int64_t nn = std::min(config.tile_n, n_dim - n0);
            for (int64_t k0 = 0; k0 < k_dim; k0 += config.tile_k) {
                const int64_t kk = std::min(config.tile_k, k_dim - k0);
                const int64_t block = k0 / weight.block_size;
                const bool is_int4 =
                    precisions[static_cast<size_t>(block)] ==
                    BlockPrecision::kInt4;

                AccumTile acc(mm, nn);
                float conv_fixup = 1.0f;
                if (is_int4) {
                    mmaInt4(acc, activation.int4_data, m0, weight.data,
                            n0, k0, kk);
                } else if (config.use_fast_conversion) {
                    mmaW4A8Prepared(acc, activation.int8_data, m0,
                                    prepared, n0, k0, kk, &counter);
                    conv_fixup =
                        1.0f / static_cast<float>(kFastConvMultiplier);
                } else {
                    Int8Tensor widened(nn, kk);
                    for (int64_t j = 0; j < nn; ++j) {
                        for (int64_t k = 0; k < kk; k += 8) {
                            const ConvertedPair pair = naiveInt4ToInt8(
                                weight.data.loadWord(n0 + j, k0 + k),
                                &counter);
                            widened.storeWord(j, k, pair.lo);
                            widened.storeWord(j, k + 4, pair.hi);
                        }
                    }
                    for (int64_t i = 0; i < mm; ++i) {
                        const int8_t *a_row =
                            activation.int8_data.rowPtr(m0 + i) + k0;
                        for (int64_t j = 0; j < nn; ++j) {
                            acc.at(i, j) = simd::dotInt8(
                                a_row, widened.rowPtr(j), kk);
                        }
                    }
                }

                (is_int4 ? run.int4_tiles : run.int8_tiles) += 1;
                (is_int4 ? run.int4_mac_ops : run.int8_mac_ops) +=
                    mm * nn * kk;
                for (int64_t i = 0; i < mm; ++i) {
                    const float a_scale =
                        activation.scales.at(m0 + i, block) * conv_fixup;
                    for (int64_t j = 0; j < nn; ++j) {
                        out.at(m0 + i, n0 + j) +=
                            static_cast<float>(acc.at(i, j)) * a_scale *
                            weight.scales.at(n0 + j, block);
                    }
                }
            }
        }
    }
    if (stats != nullptr) {
        stats->int4_tiles += run.int4_tiles;
        stats->int8_tiles += run.int8_tiles;
        stats->int4_mac_ops += run.int4_mac_ops;
        stats->int8_mac_ops += run.int8_mac_ops;
        stats->conversion_instructions += counter.count();
    }
    return out;
}

} // namespace comet
