#include "comet/kernel/gemm_w4ax.h"

#include <algorithm>

#include "comet/kernel/convert.h"
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

/** Emulated instructions the W4A8 conversion issues per packed
 * register word (8 values): the fast one's shl + and, and; the naive
 * one's per-nibble sequence. Both count the same for any word. */
int64_t
conversionsPerWord(bool fast)
{
    InstructionCounter counter;
    if (fast)
        (void)fastInt4ToInt8(0, &counter);
    else
        (void)naiveInt4ToInt8(0, &counter);
    return counter.count();
}

/** A calling thread's activation scratch, reused between runs. */
struct RowScratch {
    std::vector<int8_t> unpacked; ///< one INT4 activation row
    std::vector<int16_t> rows; ///< the run's widened rows
    std::vector<float> tile_scales; ///< per (row, k-tile) scales
};

/** A column-block worker's scratch, reused between runs. */
struct BlockScratch {
    std::vector<int16_t> block; ///< one widened column block
    std::vector<int32_t> dots; ///< one row group's dots
};

/** Grows @p v to at least @p n elements; never shrinks, so a small
 * run after a large one touches no memory. */
template <typename T>
T *
grown(std::vector<T> &v, int64_t n)
{
    if (static_cast<int64_t>(v.size()) < n)
        v.resize(static_cast<size_t>(n));
    return v.data();
}

} // namespace

W4AxGemm::W4AxGemm(const BlockQuantizedWeight &weight,
                   std::vector<BlockPrecision> precisions,
                   W4AxGemmConfig config)
    : out_features_(weight.out_features), in_channels_(weight.in_channels),
      block_size_(weight.block_size), precisions_(std::move(precisions)),
      config_(config)
{
    COMET_CHECK(block_size_ > 0);
    COMET_CHECK_MSG(in_channels_ % block_size_ == 0 &&
                        static_cast<int64_t>(precisions_.size()) ==
                            in_channels_ / block_size_,
                    "precision map must have one entry per k block");
    COMET_CHECK(config_.tile_m > 0 && config_.tile_n > 0 &&
                config_.tile_k > 0);
    COMET_CHECK_MSG(block_size_ % config_.tile_k == 0,
                    "tile_k must divide the quantization block size so "
                    "every tile has a single precision");
    COMET_CHECK_MSG(config_.tile_k % kInterleaveUnit == 0,
                    "tile_k must be a multiple of the interleave unit");
    COMET_CHECK(config_.threads >= 0);
    for (int64_t k0 = 0; k0 < in_channels_; k0 += config_.tile_k) {
        const bool is_int8 =
            precisions_[static_cast<size_t>(k0 / block_size_)] ==
            BlockPrecision::kInt8;
        int8_tiles_.push_back(is_int8 ? 1 : 0);
        x16_tiles_.push_back(is_int8 && config_.use_fast_conversion ? 1 : 0);
        int8_k_tiles_ += int8_tiles_.back();
    }
    conversions_per_word_ = conversionsPerWord(config_.use_fast_conversion);

    // The kernel layout (simd::widenKernelBlock): element e of a widened
    // column block is nibble (e / 32) % 2 of the block's byte
    // (e / 64) * 32 + e % 32. Columns past the last stay zero.
    constexpr int64_t kBlock = simd::kColumnBlock;
    constexpr int64_t kStep = simd::kKernelStepBytes;
    const int64_t n_dim = out_features_;
    const int64_t k_dim = in_channels_;
    const int64_t n_blocks = (n_dim + kBlock - 1) / kBlock;
    block_bytes_ = k_dim / 8 * kStep;
    packed_.assign(static_cast<size_t>(n_blocks * block_bytes_), 0);
    std::vector<int8_t> values(static_cast<size_t>(k_dim));
    for (int64_t j = 0; j < n_dim; ++j) {
        simd::unpackInt4(weight.data.rowPtr(j), k_dim, values.data());
        uint8_t *block = packed_.data() + (j / kBlock) * block_bytes_;
        for (int64_t v = 0; v < k_dim; ++v) {
            const int64_t e = ((v / 2) * kBlock + j % kBlock) * 2 + v % 2;
            block[e / (2 * kStep) * kStep + e % kStep] |=
                static_cast<uint8_t>((values[static_cast<size_t>(v)] & 0x0f)
                                     << (e / kStep % 2 * 4));
        }
    }

    // The epilogue reads weight scales per k-tile, a column block's
    // eight side by side; the per-block matrix is not kept.
    scale_stride_ = n_blocks * kBlock;
    tile_scales_.assign(int8_tiles_.size() *
                            static_cast<size_t>(scale_stride_),
                        0.0f);
    for (size_t t = 0; t < int8_tiles_.size(); ++t) {
        const int64_t block =
            static_cast<int64_t>(t) * config_.tile_k / block_size_;
        for (int64_t j = 0; j < n_dim; ++j)
            tile_scales_[t * static_cast<size_t>(scale_stride_) +
                         static_cast<size_t>(j)] = weight.scales.at(j, block);
    }
}

int64_t
W4AxGemm::weightBytes() const
{
    return static_cast<int64_t>(packed_.size() +
                                tile_scales_.size() * sizeof(float));
}

Tensor
W4AxGemm::run(const MixedQuantizedActivation &activation,
              W4AxGemmStats *stats) const
{
    COMET_CHECK(activation.channels == in_channels_);
    COMET_CHECK(activation.block_size == block_size_);
    COMET_CHECK_MSG(activation.precisions == precisions_,
                    "activation block precisions must match the map the "
                    "operator was built for");

    constexpr int64_t kBlock = simd::kColumnBlock;
    constexpr int64_t kRows = simd::kColumnBlockRows;
    const int64_t m_dim = activation.tokens;
    const int64_t n_dim = out_features_;
    const int64_t k_dim = in_channels_;
    const int64_t tile_k = config_.tile_k;
    const auto k_tiles = static_cast<int64_t>(int8_tiles_.size());
    const int64_t num_blocks = k_dim / block_size_;

    // Every activation row widened once, and per (row, k-tile) its
    // scale times the fixup that divides the fast conversion's x16
    // back out of W4A8 dots. The caller's scratch; the pool workers
    // below reach it through these pointers.
    thread_local RowScratch row_scratch;
    int8_t *const unpacked = grown(row_scratch.unpacked, k_dim);
    int16_t *const a_rows = grown(row_scratch.rows, m_dim * k_dim);
    float *const a_tile_scales =
        grown(row_scratch.tile_scales, m_dim * k_tiles);
    const float w4a8_fixup =
        config_.use_fast_conversion
            ? 1.0f / static_cast<float>(kFastConvMultiplier)
            : 1.0f;
    for (int64_t i = 0; i < m_dim; ++i) {
        simd::unpackInt4(activation.int4_data.rowPtr(i), k_dim, unpacked);
        const int8_t *int8_row = activation.int8_data.rowPtr(i);
        const float *scales = activation.scales.data() + i * num_blocks;
        for (int64_t t = 0; t < k_tiles; ++t) {
            const bool is_int8 = int8_tiles_[static_cast<size_t>(t)] != 0;
            const int64_t k0 = t * tile_k;
            std::copy_n((is_int8 ? int8_row : unpacked) + k0, tile_k,
                        a_rows + i * k_dim + k0);
            a_tile_scales[i * k_tiles + t] =
                scales[k0 / block_size_] * (is_int8 ? w4a8_fixup : 1.0f);
        }
    }

    Tensor out(m_dim, n_dim);
    float *out_data = out.data();

    // Streams the column blocks holding output columns
    // [n_begin, n_end): each block is widened once, then every group
    // of kColumnBlockRows activation rows takes one dotColumnBlockRows
    // pass for their per-k-tile dots and one scaleColumnBlockRows call
    // that sums them, k-tiles in ascending order. A chunk that starts
    // or ends inside a block (n-tiles narrower than a block) computes
    // the whole block and stores its own columns. Returns the dot
    // passes.
    const int64_t dots_stride = k_tiles * kBlock;
    const auto worker = [&](int64_t n_begin, int64_t n_end) {
        // The running thread's scratch: one widened block and one row
        // group's dots.
        thread_local BlockScratch scratch;
        int16_t *const block = grown(scratch.block, kBlock * k_dim);
        int32_t *const dots = grown(scratch.dots, kRows * dots_stride);
        int64_t passes = 0;
        for (int64_t j0 = n_begin / kBlock * kBlock; j0 < n_end;
             j0 += kBlock) {
            COMET_KERNEL_SPAN("w4ax/column_block");
            const int64_t lo = std::max(j0, n_begin) - j0;
            const int64_t hi = std::min(j0 + kBlock, n_end) - j0;
            simd::widenKernelBlock(packed_.data() +
                                       j0 / kBlock * block_bytes_,
                                   x16_tiles_.data(), k_tiles, tile_k, block);
            for (int64_t i0 = 0; i0 < m_dim; i0 += kRows) {
                const int64_t rows = std::min(kRows, m_dim - i0);
                simd::dotColumnBlockRows(a_rows + i0 * k_dim, k_dim, rows,
                                         block, k_tiles, tile_k, dots,
                                         dots_stride);
                ++passes;
                float sums[kRows * kBlock];
                simd::scaleColumnBlockRows(
                    dots, dots_stride, a_tile_scales + i0 * k_tiles, k_tiles,
                    rows, tile_scales_.data() + j0, scale_stride_, k_tiles,
                    sums, kBlock);
                for (int64_t r = 0; r < rows; ++r)
                    std::copy(sums + r * kBlock + lo, sums + r * kBlock + hi,
                              out_data + (i0 + r) * n_dim + j0 + lo);
            }
        }
        return passes;
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
    int64_t passes = 0;
    if (on_caller) {
        passes = worker(0, n_dim);
    } else {
        std::vector<int64_t> chunk_passes(static_cast<size_t>(n_tiles));
        ThreadPool::global().parallelForChunks(
            0, n_tiles, 1,
            [&](int64_t tile_begin, int64_t tile_end, int64_t chunk) {
                chunk_passes[static_cast<size_t>(chunk)] =
                    worker(std::min(tile_begin * config_.tile_n, n_dim),
                           std::min(tile_end * config_.tile_n, n_dim));
            },
            config_.threads);
        for (const int64_t chunk : chunk_passes)
            passes += chunk;
    }

    // Statistics of the tile grid. The tiled kernel converts each
    // column's INT8 k-tiles once per m-tile, a register word (8
    // values) at a time.
    const int64_t m_tiles = (m_dim + config_.tile_m - 1) / config_.tile_m;
    const int64_t int4_k_tiles = k_tiles - int8_k_tiles_;
    const int64_t int4_tiles = m_tiles * n_tiles * int4_k_tiles;
    const int64_t int8_tiles = m_tiles * n_tiles * int8_k_tiles_;
    publishRunCounters(int4_tiles, int8_tiles, passes);
    if (stats != nullptr) {
        // Accumulate: callers summing several gemms into one sink —
        // sharded TP runs — must not see the last gemm overwrite the
        // total.
        stats->int4_tiles += int4_tiles;
        stats->int8_tiles += int8_tiles;
        stats->int4_mac_ops += m_dim * n_dim * int4_k_tiles * tile_k;
        stats->int8_mac_ops += m_dim * n_dim * int8_k_tiles_ * tile_k;
        stats->conversion_instructions += m_tiles * n_dim * int8_k_tiles_ *
                                          (tile_k / 8) *
                                          conversions_per_word_;
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
