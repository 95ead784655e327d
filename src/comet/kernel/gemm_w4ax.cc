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
publishRunCounters(int64_t int4_tiles, int64_t int8_tiles,
                   int64_t dot_passes)
{
    static obs::Counter &runs_counter =
        obs::MetricsRegistry::global().counter("kernel.w4ax.runs");
    static obs::Counter &int4_counter =
        obs::MetricsRegistry::global().counter(
            "kernel.w4ax.int4_tiles");
    static obs::Counter &int8_counter =
        obs::MetricsRegistry::global().counter(
            "kernel.w4ax.int8_tiles");
    static obs::Counter &passes_counter =
        obs::MetricsRegistry::global().counter(
            "kernel.w4ax.dot_passes");
    runs_counter.add(1);
    if (int4_tiles > 0)
        int4_counter.add(int4_tiles);
    if (int8_tiles > 0)
        int8_counter.add(int8_tiles);
    if (dot_passes > 0)
        passes_counter.add(dot_passes);
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
    for (int64_t k0 = 0; k0 < weight_.in_channels; k0 += config_.tile_k) {
        int8_tiles_.push_back(
            precisions_[static_cast<size_t>(k0 / weight_.block_size)] ==
                    BlockPrecision::kInt8
                ? 1
                : 0);
        int8_k_tiles_ += int8_tiles_.back();
    }

    // The epilogue reads weight scales per k-tile, a column block's
    // eight side by side; the per-block matrix is not kept.
    const int64_t n_dim = weight_.out_features;
    scale_stride_ = n_dim + simd::kColumnBlock;
    tile_scales_.assign(int8_tiles_.size() *
                            static_cast<size_t>(scale_stride_),
                        0.0f);
    for (size_t t = 0; t < int8_tiles_.size(); ++t) {
        const int64_t block =
            static_cast<int64_t>(t) * config_.tile_k / weight_.block_size;
        for (int64_t j = 0; j < n_dim; ++j)
            tile_scales_[t * static_cast<size_t>(scale_stride_) +
                         static_cast<size_t>(j)] =
                weight_.scales.at(j, block);
    }
    weight_.scales = Tensor();
}

void
W4AxGemm::widenBlock(int64_t column, int64_t width, int8_t *plain,
                     int8_t *converted, int16_t *block,
                     InstructionCounter *counter) const
{
    const int64_t k_dim = weight_.in_channels;
    const int64_t tile_k = config_.tile_k;
    const auto k_tiles = static_cast<int64_t>(int8_tiles_.size());

    // The block's rows are contiguous in both layouts, so one span
    // call widens all of them to INT8; the columns past the last are
    // zero.
    simd::unpackInt4(weight_.data.rowPtr(column), width * k_dim, plain);
    std::fill(plain + width * k_dim, plain + simd::kColumnBlock * k_dim,
              int8_t{0});
    if (int8_k_tiles_ > 0 && config_.use_fast_conversion) {
        // The fast conversion costs 3 emulated instructions per
        // register word (shl+and for lo, and for hi — see
        // fastInt4ToInt8).
        simd::fastWidenW4A8(prepared_.rowPtr(column), width * k_dim,
                            converted);
        counter->add(width * int8_k_tiles_ * 3 * (tile_k / 8));
    } else if (int8_k_tiles_ > 0) {
        // Ablation path: the naive per-nibble conversion of the
        // plain-layout weights. True INT4 values (no x16), far
        // costlier in instructions.
        for (int64_t c = 0; c < width; ++c) {
            for (int64_t t = 0; t < k_tiles; ++t) {
                if (int8_tiles_[static_cast<size_t>(t)] == 0)
                    continue;
                for (int64_t k = t * tile_k; k < (t + 1) * tile_k; k += 8) {
                    const ConvertedPair pair = naiveInt4ToInt8(
                        weight_.data.loadWord(column + c, k), counter);
                    int8_t *dst = converted + c * k_dim + k;
                    for (int b = 0; b < 4; ++b) {
                        dst[b] = static_cast<int8_t>(pair.lo >> (8 * b));
                        dst[4 + b] = static_cast<int8_t>(pair.hi >> (8 * b));
                    }
                }
            }
        }
    }
    if (int8_k_tiles_ > 0)
        std::fill(converted + width * k_dim,
                  converted + simd::kColumnBlock * k_dim, int8_t{0});

    // Each run of k-tiles of one precision widens in one call.
    for (int64_t t0 = 0; t0 < k_tiles;) {
        const uint8_t is_int8 = int8_tiles_[static_cast<size_t>(t0)];
        int64_t t1 = t0 + 1;
        while (t1 < k_tiles && int8_tiles_[static_cast<size_t>(t1)] == is_int8)
            ++t1;
        const int64_t k0 = t0 * tile_k;
        simd::widenColumnBlock((is_int8 != 0 ? converted : plain) + k0, k_dim,
                               (t1 - t0) * tile_k,
                               block + k0 * simd::kColumnBlock);
        t0 = t1;
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

    constexpr int64_t kBlock = simd::kColumnBlock;
    const int64_t m_dim = activation.tokens;
    const int64_t n_dim = weight_.out_features;
    const int64_t k_dim = weight_.in_channels;
    const int64_t tile_k = config_.tile_k;
    const auto k_tiles = static_cast<int64_t>(int8_tiles_.size());
    const int64_t num_blocks = k_dim / weight_.block_size;

    // Every activation row widened once, and per (row, k-tile) its
    // scale times the fixup that divides the fast conversion's x16
    // back out of W4A8 dots.
    const float w4a8_fixup =
        config_.use_fast_conversion
            ? 1.0f / static_cast<float>(kFastConvMultiplier)
            : 1.0f;
    std::vector<int16_t> a_rows(static_cast<size_t>(m_dim * k_dim));
    std::vector<float> a_tile_scales(static_cast<size_t>(m_dim * k_tiles));
    {
        std::vector<int8_t> unpacked(static_cast<size_t>(k_dim));
        for (int64_t i = 0; i < m_dim; ++i) {
            simd::unpackInt4(activation.int4_data.rowPtr(i), k_dim,
                             unpacked.data());
            const int8_t *int8_row = activation.int8_data.rowPtr(i);
            const float *scales =
                activation.scales.data() + i * num_blocks;
            for (int64_t t = 0; t < k_tiles; ++t) {
                const bool is_int8 = int8_tiles_[static_cast<size_t>(t)] != 0;
                const int64_t k0 = t * tile_k;
                std::copy_n((is_int8 ? int8_row : unpacked.data()) + k0,
                            tile_k, a_rows.data() + i * k_dim + k0);
                a_tile_scales[static_cast<size_t>(i * k_tiles + t)] =
                    scales[k0 / weight_.block_size] *
                    (is_int8 ? w4a8_fixup : 1.0f);
            }
        }
    }

    Tensor out(m_dim, n_dim);
    float *out_data = out.data();

    // Streams output columns [n_begin, n_end) a column block at a
    // time: the block is widened once, then every group of
    // kColumnBlockRows activation rows takes one dotColumnBlockRows
    // pass for their per-k-tile dots, and each row one
    // scaleColumnBlock call that sums them, k-tiles in ascending
    // order.
    constexpr int64_t kRows = simd::kColumnBlockRows;
    const int64_t dots_stride = k_tiles * kBlock;
    // Per chunk of columns: the conversions its widenings count and
    // its dot passes.
    struct Tally {
        InstructionCounter conversions;
        int64_t dot_passes = 0;
    };
    const auto worker = [&](int64_t n_begin, int64_t n_end, Tally *tally) {
        std::vector<int8_t> plain(static_cast<size_t>(kBlock * k_dim));
        std::vector<int8_t> converted(plain.size());
        std::vector<int16_t> block(plain.size());
        std::vector<int32_t> dots(static_cast<size_t>(kRows * dots_stride));
        for (int64_t j0 = n_begin; j0 < n_end; j0 += kBlock) {
            COMET_KERNEL_SPAN("w4ax/column_block");
            const int64_t width = std::min(kBlock, n_end - j0);
            widenBlock(j0, width, plain.data(), converted.data(),
                       block.data(), &tally->conversions);
            for (int64_t i0 = 0; i0 < m_dim; i0 += kRows) {
                const int64_t rows = std::min(kRows, m_dim - i0);
                simd::dotColumnBlockRows(a_rows.data() + i0 * k_dim, k_dim,
                                         rows, block.data(), k_tiles,
                                         tile_k, dots.data(), dots_stride);
                ++tally->dot_passes;
                for (int64_t i = i0; i < i0 + rows; ++i) {
                    float sums[kBlock];
                    simd::scaleColumnBlock(
                        dots.data() + (i - i0) * dots_stride,
                        a_tile_scales.data() + i * k_tiles,
                        tile_scales_.data() + j0, scale_stride_, k_tiles,
                        sums);
                    std::copy_n(sums, width, out_data + i * n_dim + j0);
                }
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
    const auto chunks = static_cast<size_t>(on_caller ? 1 : n_tiles);
    std::vector<Tally> tallies(chunks);
    if (on_caller) {
        worker(0, n_dim, &tallies[0]);
    } else {
        ThreadPool::global().parallelForChunks(
            0, n_tiles, 1,
            [&](int64_t tile_begin, int64_t tile_end, int64_t chunk) {
                worker(std::min(tile_begin * config_.tile_n, n_dim),
                       std::min(tile_end * config_.tile_n, n_dim),
                       &tallies[static_cast<size_t>(chunk)]);
            },
            config_.threads);
    }

    // Statistics of the tile grid. The tiled kernel widens a column's
    // INT8 k-tiles once per m-tile, so the conversions counted above
    // (once per column) scale by the m-tile count.
    const int64_t m_tiles = (m_dim + config_.tile_m - 1) / config_.tile_m;
    const int64_t int4_k_tiles = k_tiles - int8_k_tiles_;
    const int64_t int4_tiles = m_tiles * n_tiles * int4_k_tiles;
    const int64_t int8_tiles = m_tiles * n_tiles * int8_k_tiles_;
    int64_t passes = 0;
    int64_t conversions = 0;
    for (const Tally &tally : tallies) {
        passes += tally.dot_passes;
        conversions += tally.conversions.count();
    }
    publishRunCounters(int4_tiles, int8_tiles, passes);
    if (stats != nullptr) {
        // Accumulate: callers summing several gemms into one sink —
        // sharded TP runs — must not see the last gemm overwrite the
        // total.
        stats->int4_tiles += int4_tiles;
        stats->int8_tiles += int8_tiles;
        stats->int4_mac_ops += m_dim * n_dim * int4_k_tiles * tile_k;
        stats->int8_mac_ops += m_dim * n_dim * int8_k_tiles_ * tile_k;
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
