#include "comet/quant/fmpq.h"

#include <algorithm>
#include <cmath>

#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"

namespace comet {

const char *
blockPrecisionName(BlockPrecision precision)
{
    return precision == BlockPrecision::kInt4 ? "INT4" : "INT8";
}

FmpqActivationQuantizer
FmpqActivationQuantizer::calibrate(const Tensor &calibration,
                                   const FmpqConfig &config)
{
    COMET_CHECK(calibration.shape().rank() == 2);
    const int64_t channels = calibration.cols();
    COMET_CHECK_MSG(config.block_size > 0 &&
                        channels % config.block_size == 0,
                    "block size must divide the channel count");
    COMET_CHECK(config.low_bits >= 2 &&
                config.high_bits > config.low_bits);

    const ChannelStats stats = computeChannelStats(calibration);
    const OutlierReport report = detectOutliers(stats, config.outlier);

    ChannelPermutation permutation =
        config.enable_permutation
            ? buildOutlierClusteringPermutation(stats, report)
            : ChannelPermutation::identity(channels);

    const int64_t num_blocks = channels / config.block_size;
    std::vector<BlockPrecision> precisions(
        static_cast<size_t>(num_blocks), BlockPrecision::kInt4);
    for (int64_t b = 0; b < num_blocks; ++b) {
        for (int64_t i = 0; i < config.block_size; ++i) {
            const int64_t src = permutation.order()[static_cast<size_t>(
                b * config.block_size + i)];
            if (report.is_outlier[static_cast<size_t>(src)]) {
                precisions[static_cast<size_t>(b)] = BlockPrecision::kInt8;
                break;
            }
        }
    }
    return FmpqActivationQuantizer(config, std::move(permutation),
                                   std::move(precisions));
}

FmpqActivationQuantizer
FmpqActivationQuantizer::fromParts(
    const FmpqConfig &config, ChannelPermutation permutation,
    std::vector<BlockPrecision> precisions)
{
    COMET_CHECK(config.block_size > 0);
    COMET_CHECK_MSG(permutation.channels() % config.block_size == 0,
                    "block size must divide the channel count");
    COMET_CHECK_MSG(static_cast<int64_t>(precisions.size()) ==
                        permutation.channels() / config.block_size,
                    "precision map must have one entry per block");
    COMET_CHECK(config.low_bits >= 2 &&
                config.high_bits > config.low_bits);
    return FmpqActivationQuantizer(config, std::move(permutation),
                                   std::move(precisions));
}

double
FmpqActivationQuantizer::int4BlockFraction() const
{
    if (precisions_.empty())
        return 1.0;
    int64_t int4 = 0;
    for (BlockPrecision p : precisions_) {
        if (p == BlockPrecision::kInt4)
            ++int4;
    }
    return static_cast<double>(int4) /
           static_cast<double>(precisions_.size());
}

Tensor
FmpqActivationQuantizer::fakeQuantize(const Tensor &x) const
{
    COMET_CHECK(x.shape().rank() == 2);
    COMET_CHECK(x.cols() == channels());
    const int64_t tokens = x.rows();
    const int64_t k = config_.block_size;
    Tensor out(tokens, x.cols());
    const auto &order = permutation_.order();

    // Token rows are independent (per-token dynamic quantization);
    // chunk bodies run the sequential per-row loop unchanged, so the
    // result is bit-identical for any pool size.
    parallelFor(0, tokens, 1, [&](int64_t t_begin, int64_t t_end) {
    for (int64_t t = t_begin; t < t_end; ++t) {
        for (int64_t b = 0; b < numBlocks(); ++b) {
            const int bits = precisions_[static_cast<size_t>(b)] ==
                                     BlockPrecision::kInt4
                                 ? config_.low_bits
                                 : config_.high_bits;
            float abs_max = 0.0f;
            for (int64_t i = 0; i < k; ++i) {
                const int64_t src =
                    order[static_cast<size_t>(b * k + i)];
                abs_max = std::max(abs_max, std::fabs(x.at(t, src)));
            }
            const QuantParams params = chooseSymmetric(abs_max, bits);
            for (int64_t i = 0; i < k; ++i) {
                const int64_t src =
                    order[static_cast<size_t>(b * k + i)];
                out.at(t, src) = fakeQuantValue(x.at(t, src), params,
                                                bits);
            }
        }
    }
    });
    return out;
}

MixedQuantizedActivation
FmpqActivationQuantizer::quantize(const Tensor &x) const
{
    COMET_CHECK(x.shape().rank() == 2);
    COMET_CHECK(x.cols() == channels());
    static obs::Counter &calls = obs::MetricsRegistry::global().counter(
        "quant.act_quantize_calls");
    calls.add(1);
    const int64_t tokens = x.rows();
    const int64_t n_channels = channels();
    const int64_t k = config_.block_size;
    const int64_t num_blocks = numBlocks();
    const auto &order = permutation_.order();

    MixedQuantizedActivation qa{
        tokens,
        n_channels,
        k,
        precisions_,
        Int4Tensor(tokens, n_channels),
        Int8Tensor(tokens, n_channels),
        Tensor(tokens, num_blocks),
    };

    const QuantRange r4 = signedRange(config_.low_bits);
    const QuantRange r8 = signedRange(config_.high_bits);

    // Rows [t_begin, t_end): each token's row is gathered into
    // permuted order once, every block's absmax gives its scale, and
    // each run of same-precision blocks quantizes in one
    // simd::quantizeAffine call (bit-identical to QuantParams::quantize
    // plus the clamp). INT4 blocks land in a row-wide staging span that
    // one simd::packInt4 call packs; its INT8 blocks stay 0, as do the
    // INT4 blocks of an int8_data row.
    const auto quantizeRows = [&](int64_t t_begin, int64_t t_end) {
        std::vector<float> gathered(static_cast<size_t>(n_channels));
        std::vector<float> channel_scales(gathered.size());
        std::vector<int8_t> int4_row(gathered.size(), 0);
        const std::vector<int32_t> zero_points(gathered.size(), 0);
        for (int64_t t = t_begin; t < t_end; ++t) {
            const float *row = x.data() + t * n_channels;
            for (int64_t i = 0; i < n_channels; ++i)
                gathered[static_cast<size_t>(i)] =
                    row[order[static_cast<size_t>(i)]];
            float *scales = qa.scales.data() + t * num_blocks;
            for (int64_t b = 0; b < num_blocks; ++b) {
                const auto begin = gathered.begin() + b * k;
                float abs_max = 0.0f;
                for (auto it = begin; it != begin + k; ++it)
                    abs_max = std::max(abs_max, std::fabs(*it));
                scales[b] = chooseSymmetric(
                                abs_max, precisions_[static_cast<size_t>(b)] ==
                                                 BlockPrecision::kInt4
                                             ? config_.low_bits
                                             : config_.high_bits)
                                .scale;
                std::fill_n(channel_scales.begin() + b * k, k, scales[b]);
            }
            int8_t *int8_row = qa.int8_data.rowPtr(t);
            for (int64_t b0 = 0; b0 < num_blocks;) {
                const BlockPrecision precision =
                    precisions_[static_cast<size_t>(b0)];
                int64_t b1 = b0 + 1;
                while (b1 < num_blocks &&
                       precisions_[static_cast<size_t>(b1)] == precision)
                    ++b1;
                const bool is_int4 = precision == BlockPrecision::kInt4;
                const QuantRange &range = is_int4 ? r4 : r8;
                simd::quantizeAffine(
                    gathered.data() + b0 * k, channel_scales.data() + b0 * k,
                    zero_points.data(), (b1 - b0) * k, range.qmin, range.qmax,
                    (is_int4 ? int4_row.data() : int8_row) + b0 * k);
                b0 = b1;
            }
            simd::packInt4(int4_row.data(), n_channels,
                           qa.int4_data.rowPtr(t));
        }
    };

    // Rows of every output tensor are disjoint (packed INT4 rows are
    // whole bytes), so any split is bit-identical; below kMinPoolMacs
    // values the pool dispatch would cost more than it saves.
    if (tokens * n_channels < kMinPoolMacs)
        quantizeRows(0, tokens);
    else
        parallelFor(0, tokens, 1, quantizeRows);
    return qa;
}

BlockQuantizedWeight
FmpqActivationQuantizer::quantizeWeight(const Tensor &w) const
{
    COMET_CHECK(w.shape().rank() == 2);
    COMET_CHECK_MSG(w.cols() == channels(),
                    "weight in_channels must match activation channels");
    const int64_t out_features = w.rows();
    const int64_t k = config_.block_size;
    const auto &order = permutation_.order();
    const QuantRange r4 = signedRange(4);

    BlockQuantizedWeight qw{
        out_features,
        channels(),
        k,
        Int4Tensor(out_features, channels()),
        Tensor(out_features, numBlocks()),
    };

    // The offline calibration sweep: out_features rows quantize
    // independently, so the sweep fans out across the pool with
    // bit-identical results for any pool size.
    parallelFor(0, out_features, 1, [&](int64_t n_begin,
                                        int64_t n_end) {
    for (int64_t n = n_begin; n < n_end; ++n) {
        for (int64_t b = 0; b < numBlocks(); ++b) {
            float abs_max = 0.0f;
            for (int64_t i = 0; i < k; ++i) {
                const int64_t src =
                    order[static_cast<size_t>(b * k + i)];
                abs_max = std::max(abs_max, std::fabs(w.at(n, src)));
            }
            const QuantParams params = chooseSymmetric(abs_max, 4);
            qw.scales.at(n, b) = params.scale;
            for (int64_t i = 0; i < k; ++i) {
                const int64_t dst = b * k + i;
                const int64_t src =
                    order[static_cast<size_t>(dst)];
                const int32_t q = params.quantize(w.at(n, src));
                qw.data.set(n, dst,
                            static_cast<int8_t>(
                                std::clamp(q, r4.qmin, r4.qmax)));
            }
        }
    }
    });
    return qw;
}

Tensor
dequantize(const MixedQuantizedActivation &qa)
{
    Tensor out(qa.tokens, qa.channels);
    for (int64_t t = 0; t < qa.tokens; ++t) {
        for (int64_t b = 0; b < qa.numBlocks(); ++b) {
            const float scale = qa.scales.at(t, b);
            const bool is_int4 =
                qa.precisions[static_cast<size_t>(b)] ==
                BlockPrecision::kInt4;
            for (int64_t i = 0; i < qa.block_size; ++i) {
                const int64_t c = b * qa.block_size + i;
                const int8_t q = is_int4 ? qa.int4_data.get(t, c)
                                         : qa.int8_data.get(t, c);
                out.at(t, c) = static_cast<float>(q) * scale;
            }
        }
    }
    return out;
}

Tensor
dequantize(const BlockQuantizedWeight &qw)
{
    Tensor out(qw.out_features, qw.in_channels);
    const int64_t num_blocks = qw.in_channels / qw.block_size;
    for (int64_t n = 0; n < qw.out_features; ++n) {
        for (int64_t b = 0; b < num_blocks; ++b) {
            const float scale = qw.scales.at(n, b);
            for (int64_t i = 0; i < qw.block_size; ++i) {
                const int64_t c = b * qw.block_size + i;
                out.at(n, c) =
                    static_cast<float>(qw.data.get(n, c)) * scale;
            }
        }
    }
    return out;
}

} // namespace comet
