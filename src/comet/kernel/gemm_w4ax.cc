#include "comet/kernel/gemm_w4ax.h"

#include <algorithm>

#include "comet/kernel/int4_pack.h"
#include "comet/kernel/interleave.h"
#include "comet/obs/metrics.h"
#include "comet/obs/trace_session.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"

namespace comet {

namespace {

/** Publishes one run and its tile tallies to the global registry
 * (cached references: the registration mutex is paid once per
 * process). */
void
publishRunCounters(int64_t int4_tiles, int64_t int8_tiles)
{
    static obs::Counter &runs_counter =
        obs::MetricsRegistry::global().counter("kernel.w4ax.runs");
    static obs::Counter &int4_counter =
        obs::MetricsRegistry::global().counter(
            "kernel.w4ax.int4_tiles");
    static obs::Counter &int8_counter =
        obs::MetricsRegistry::global().counter(
            "kernel.w4ax.int8_tiles");
    runs_counter.add(1);
    if (int4_tiles > 0)
        int4_counter.add(int4_tiles);
    if (int8_tiles > 0)
        int8_counter.add(int8_tiles);
}

} // namespace

W4AxGemm::W4AxGemm(BlockQuantizedWeight weight,
                   std::vector<BlockPrecision> precisions,
                   W4AxGemmConfig config)
    : weight_(std::move(weight)), precisions_(std::move(precisions)),
      config_(config), prepared_(prepareWeightsForW4A8(weight_.data))
{
    COMET_CHECK(weight_.block_size > 0);
    COMET_CHECK_MSG(weight_.in_channels % weight_.block_size == 0 &&
                        static_cast<int64_t>(precisions_.size()) ==
                            weight_.in_channels / weight_.block_size,
                    "precision map must have one entry per k block");
    COMET_CHECK(config_.tile_m > 0 && config_.tile_n > 0 &&
                config_.tile_k > 0);
    COMET_CHECK_MSG(weight_.block_size % config_.tile_k == 0,
                    "tile_k must divide the quantization block size so "
                    "every tile has a single precision");
    COMET_CHECK_MSG(config_.tile_k % kInterleaveUnit == 0,
                    "tile_k must be a multiple of the interleave unit");
    COMET_CHECK(config_.threads >= 0);
    for (int64_t k0 = 0; k0 < weight_.in_channels; k0 += config_.tile_k)
        int8_tiles_.push_back(
            precisions_[static_cast<size_t>(k0 / weight_.block_size)] ==
                    BlockPrecision::kInt8
                ? 1
                : 0);
}

void
W4AxGemm::widenColumn(int64_t column, int8_t *widened,
                      InstructionCounter *counter) const
{
    const int64_t tile_k = config_.tile_k;
    for (size_t t = 0; t < int8_tiles_.size(); ++t) {
        if (int8_tiles_[t] == 0)
            continue;
        const int64_t k0 = static_cast<int64_t>(t) * tile_k;
        if (config_.use_fast_conversion) {
            // The fast conversion costs 3 emulated instructions per
            // register word (shl+and for lo, and for hi — see
            // fastInt4ToInt8).
            simd::fastWidenW4A8(prepared_.rowPtr(column) + k0 / 2, tile_k,
                                widened + k0);
            counter->add(3 * (tile_k / 8));
            continue;
        }
        // Ablation path: the naive per-nibble conversion of the
        // plain-layout weights. True INT4 values (no x16), far
        // costlier in instructions.
        for (int64_t k = k0; k < k0 + tile_k; k += 8) {
            const ConvertedPair pair =
                naiveInt4ToInt8(weight_.data.loadWord(column, k), counter);
            for (int b = 0; b < 4; ++b) {
                widened[k + b] = static_cast<int8_t>(pair.lo >> (8 * b));
                widened[k + 4 + b] =
                    static_cast<int8_t>(pair.hi >> (8 * b));
            }
        }
    }
}

Tensor
W4AxGemm::run(const MixedQuantizedActivation &activation,
              W4AxGemmStats *stats) const
{
    COMET_CHECK(activation.channels == weight_.in_channels);
    COMET_CHECK(activation.block_size == weight_.block_size);
    COMET_CHECK_MSG(activation.precisions == precisions_,
                    "activation block precisions must match the map the "
                    "operator was built for");

    const int64_t m_dim = activation.tokens;
    const int64_t n_dim = weight_.out_features;
    const int64_t k_dim = weight_.in_channels;
    const int64_t tile_k = config_.tile_k;
    const auto k_tiles = static_cast<int64_t>(int8_tiles_.size());
    const int64_t num_blocks = k_dim / weight_.block_size;

    // Per k-tile epilogue factors: the scale block, and the fixup that
    // divides the fast conversion's x16 back out of W4A8 dots.
    const float w4a8_fixup =
        config_.use_fast_conversion
            ? 1.0f / static_cast<float>(kFastConvMultiplier)
            : 1.0f;
    std::vector<int64_t> tile_block(static_cast<size_t>(k_tiles));
    std::vector<float> tile_fixup(static_cast<size_t>(k_tiles));
    for (int64_t t = 0; t < k_tiles; ++t) {
        tile_block[static_cast<size_t>(t)] =
            t * tile_k / weight_.block_size;
        tile_fixup[static_cast<size_t>(t)] =
            int8_tiles_[static_cast<size_t>(t)] != 0 ? w4a8_fixup : 1.0f;
    }

    Tensor out(m_dim, n_dim);
    float *out_data = out.data();
    const float *a_scales = activation.scales.data();
    const float *w_scales = weight_.scales.data();

    // Streams output columns [n_begin, n_end): each weight row is
    // widened once, then every activation row takes one segmented dot
    // pass and the epilogue sums its k-tiles in ascending order.
    const auto worker = [&](int64_t n_begin, int64_t n_end,
                            InstructionCounter *counter) {
        std::vector<int8_t> widened(static_cast<size_t>(k_dim));
        std::vector<int32_t> dots(static_cast<size_t>(k_tiles));
        for (int64_t j = n_begin; j < n_end; ++j) {
            COMET_KERNEL_SPAN("w4ax/column");
            widenColumn(j, widened.data(), counter);
            const simd::MixedSpan w{weight_.data.rowPtr(j),
                                    widened.data()};
            const float *w_row_scales = w_scales + j * num_blocks;
            for (int64_t i = 0; i < m_dim; ++i) {
                const simd::MixedSpan a{activation.int4_data.rowPtr(i),
                                        activation.int8_data.rowPtr(i)};
                simd::dotSegments(a, w, int8_tiles_.data(), k_tiles,
                                  tile_k, dots.data());
                const float *a_row_scales = a_scales + i * num_blocks;
                float sum = 0.0f;
                for (int64_t t = 0; t < k_tiles; ++t) {
                    const int64_t b = tile_block[static_cast<size_t>(t)];
                    sum += static_cast<float>(
                               dots[static_cast<size_t>(t)]) *
                           (a_row_scales[b] *
                            tile_fixup[static_cast<size_t>(t)]) *
                           w_row_scales[b];
                }
                out_data[i * n_dim + j] = sum;
            }
        }
    };

    // Whole n-tiles partition across the pool: every chunk owns a
    // disjoint set of output columns, so the run is race-free and
    // bit-identical for any thread count. Below kMinPoolMacs the
    // dispatch would cost more than it saves, so auto-parallel runs
    // stay on the caller.
    const int64_t n_tiles = (n_dim + config_.tile_n - 1) / config_.tile_n;
    const bool on_caller =
        config_.threads == 1 ||
        (config_.threads == 0 && m_dim * n_dim * k_dim < kMinPoolMacs);
    std::vector<InstructionCounter> counters(
        static_cast<size_t>(on_caller ? 1 : n_tiles));
    if (on_caller) {
        worker(0, n_dim, &counters[0]);
    } else {
        ThreadPool::global().parallelForChunks(
            0, n_tiles, 1,
            [&](int64_t tile_begin, int64_t tile_end, int64_t chunk) {
                worker(std::min(tile_begin * config_.tile_n, n_dim),
                       std::min(tile_end * config_.tile_n, n_dim),
                       &counters[static_cast<size_t>(chunk)]);
            },
            config_.threads);
    }

    // Statistics of the tile grid. The tiled kernel widens a column's
    // INT8 k-tiles once per m-tile, so the conversions counted above
    // (once per column) scale by the m-tile count.
    const int64_t m_tiles = (m_dim + config_.tile_m - 1) / config_.tile_m;
    int64_t int8_k_tiles = 0;
    for (const uint8_t is_int8 : int8_tiles_)
        int8_k_tiles += is_int8;
    const int64_t int4_k_tiles = k_tiles - int8_k_tiles;
    const int64_t int4_tiles = m_tiles * n_tiles * int4_k_tiles;
    const int64_t int8_tiles = m_tiles * n_tiles * int8_k_tiles;
    publishRunCounters(int4_tiles, int8_tiles);
    if (stats != nullptr) {
        int64_t conversions = 0;
        for (const InstructionCounter &counter : counters)
            conversions += counter.count();
        // Accumulate: callers summing several gemms into one sink —
        // sharded TP runs — must not see the last gemm overwrite the
        // total.
        stats->int4_tiles += int4_tiles;
        stats->int8_tiles += int8_tiles;
        stats->int4_mac_ops += m_dim * n_dim * int4_k_tiles * tile_k;
        stats->int8_mac_ops += m_dim * n_dim * int8_k_tiles * tile_k;
        stats->conversion_instructions += m_tiles * conversions;
    }
    return out;
}

Tensor
gemmW4AxReference(const MixedQuantizedActivation &activation,
                  const BlockQuantizedWeight &weight)
{
    const Tensor a = dequantize(activation);
    const Tensor w = dequantize(weight);
    COMET_CHECK(a.cols() == w.cols());
    const int64_t m_dim = a.rows(), n_dim = w.rows(), k_dim = a.cols();
    Tensor out(m_dim, n_dim);
    // Rows of the output are independent; each chunk computes its rows
    // exactly as the sequential loop would, so the result is
    // bit-identical for any pool size.
    parallelFor(0, m_dim, 1, [&](int64_t m_begin, int64_t m_end) {
        for (int64_t m = m_begin; m < m_end; ++m) {
            for (int64_t n = 0; n < n_dim; ++n) {
                double sum = 0.0;
                for (int64_t k = 0; k < k_dim; ++k)
                    sum += static_cast<double>(a.at(m, k)) *
                           w.at(n, k);
                out.at(m, n) = static_cast<float>(sum);
            }
        }
    });
    return out;
}

} // namespace comet
