#include "comet/quant/kv_quant.h"

#include <algorithm>
#include <cmath>

#include "comet/obs/metrics.h"
#include "comet/simd/simd.h"

namespace comet {

KvCacheQuantizer::KvCacheQuantizer(KvQuantConfig config) : config_(config)
{
    COMET_CHECK(config_.bits >= 2 && config_.bits <= 8);
    COMET_CHECK(config_.group_size > 0);
}

namespace {

/** KV values (re)quantized by KvStore appends, process-wide: the
 * appended row, plus the held values of every channel whose range it
 * moved. */
obs::Counter &
valuesQuantizedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter("quant.kv_values_quantized");
    return counter;
}

/** The quantizer of a channel whose group spans [min_val, max_val]. */
QuantParams
channelParams(float min_val, float max_val, const KvQuantConfig &config)
{
    if (config.asymmetric)
        return chooseAsymmetric(min_val, max_val, config.bits);
    return chooseSymmetric(std::max(std::fabs(min_val), std::fabs(max_val)),
                           config.bits);
}

/**
 * Per-channel quantizer state for one token group, in
 * structure-of-arrays form so the span routines can consume it.
 * Channel-wise parameter *choice* stays scalar (it is O(channels) per
 * group); the O(group_size * channels) range scan and value transforms
 * go through comet::simd.
 */
struct GroupParams {
    std::vector<float> mins, maxs, scales;
    std::vector<int32_t> zero_points;

    explicit GroupParams(int64_t channels)
        : mins(static_cast<size_t>(channels)),
          maxs(static_cast<size_t>(channels)),
          scales(static_cast<size_t>(channels)),
          zero_points(static_cast<size_t>(channels))
    {
    }

    /** Scans @p n_rows rows of @p channels floats at @p rows and
     * derives each channel's quantizer, exactly as the per-channel
     * spanParams loop did. */
    void
    derive(const float *rows, int64_t n_rows, int64_t channels,
           const KvQuantConfig &config)
    {
        std::copy(rows, rows + channels, mins.begin());
        std::copy(rows, rows + channels, maxs.begin());
        for (int64_t t = 1; t < n_rows; ++t) {
            simd::minMaxUpdate(rows + t * channels, channels,
                               mins.data(), maxs.data());
        }
        for (size_t c = 0; c < static_cast<size_t>(channels); ++c) {
            const QuantParams params =
                channelParams(mins[c], maxs[c], config);
            scales[c] = params.scale;
            zero_points[c] = params.zero_point;
        }
    }

    QuantParams
    at(int64_t c) const
    {
        return QuantParams{scales[static_cast<size_t>(c)],
                           zero_points[static_cast<size_t>(c)]};
    }
};

} // namespace

Tensor
KvCacheQuantizer::fakeQuantize(const Tensor &kv) const
{
    COMET_CHECK(kv.shape().rank() == 2);
    const int64_t tokens = kv.rows(), channels = kv.cols();
    const QuantRange range = signedRange(config_.bits);
    Tensor out(tokens, channels);
    GroupParams group(channels);
    std::vector<int8_t> qrow(static_cast<size_t>(channels));
    for (int64_t t0 = 0; t0 < tokens; t0 += config_.group_size) {
        const int64_t t1 = std::min(t0 + config_.group_size, tokens);
        group.derive(kv.data() + t0 * channels, t1 - t0, channels,
                     config_);
        // fakeQuantValue is quantize -> clamp -> dequantize; the fused
        // span pair performs exactly those operations per element.
        for (int64_t t = t0; t < t1; ++t) {
            simd::quantizeAffine(kv.data() + t * channels,
                                 group.scales.data(),
                                 group.zero_points.data(), channels,
                                 range.qmin, range.qmax, qrow.data());
            simd::dequantAffine(qrow.data(), group.scales.data(),
                                group.zero_points.data(), channels,
                                out.data() + t * channels);
        }
    }
    return out;
}

QuantizedKv
KvCacheQuantizer::quantize(const Tensor &kv) const
{
    COMET_CHECK(kv.shape().rank() == 2);
    const int64_t tokens = kv.rows(), channels = kv.cols();
    const int64_t num_groups =
        (tokens + config_.group_size - 1) / config_.group_size;
    QuantizedKv q{tokens, channels, config_.group_size,
                  Int8Tensor(tokens, channels),
                  std::vector<QuantParams>(
                      static_cast<size_t>(num_groups * channels))};
    const QuantRange range = signedRange(config_.bits);
    GroupParams group(channels);
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t t0 = g * config_.group_size;
        const int64_t t1 = std::min(t0 + config_.group_size, tokens);
        group.derive(kv.data() + t0 * channels, t1 - t0, channels,
                     config_);
        for (int64_t c = 0; c < channels; ++c)
            q.params[static_cast<size_t>(g * channels + c)] =
                group.at(c);
        for (int64_t t = t0; t < t1; ++t) {
            simd::quantizeAffine(kv.data() + t * channels,
                                 group.scales.data(),
                                 group.zero_points.data(), channels,
                                 range.qmin, range.qmax, q.data.rowPtr(t));
        }
    }
    return q;
}

Tensor
KvCacheQuantizer::dequantize(const QuantizedKv &q) const
{
    Tensor out(q.tokens, q.channels);
    // The params array is laid out [group][channel], so each group's
    // scales/zero-points are already contiguous SoA spans... except
    // QuantParams is an AoS struct; unzip one group at a time and
    // reuse it for every token row in the group.
    std::vector<float> scales(static_cast<size_t>(q.channels));
    std::vector<int32_t> zero_points(static_cast<size_t>(q.channels));
    for (int64_t g = 0; g < q.numGroups(); ++g) {
        for (int64_t c = 0; c < q.channels; ++c) {
            const QuantParams &params =
                q.params[static_cast<size_t>(g * q.channels + c)];
            scales[static_cast<size_t>(c)] = params.scale;
            zero_points[static_cast<size_t>(c)] = params.zero_point;
        }
        const int64_t t0 = g * q.group_size;
        const int64_t t1 = std::min(t0 + q.group_size, q.tokens);
        for (int64_t t = t0; t < t1; ++t) {
            simd::dequantAffine(q.data.rowPtr(t), scales.data(),
                                zero_points.data(), q.channels,
                                out.data() + t * q.channels);
        }
    }
    return out;
}

KvStore::KvStore(int64_t channels, KvQuantConfig config)
    : channels_(channels), config_(config)
{
    COMET_CHECK(config_.bits >= 2 && config_.bits <= 8);
    COMET_CHECK(config_.group_size > 0);
    COMET_CHECK(channels_ > 0);
    COMET_CHECK(!packed() || channels_ % 2 == 0);
}

int64_t
KvStore::rowBytes() const
{
    return packed() ? channels_ / 2 : channels_;
}

void
KvStore::append(const float *row)
{
    const auto ch = static_cast<size_t>(channels_);
    const bool opens = tokens_ % config_.group_size == 0;
    if (opens) {
        // The previous group is closed: its values and parameters are
        // final, and a new group opens with this row.
        open_rows_.clear();
        scales_.resize(scales_.size() + ch);
        zero_points_.resize(zero_points_.size() + ch);
        open_mins_.assign(row, row + channels_);
        open_maxs_.assign(row, row + channels_);
    }
    open_rows_.insert(open_rows_.end(), row, row + channels_);
    ++tokens_;
    values_.resize(static_cast<size_t>(tokens_ * rowBytes()));
    const int64_t open = static_cast<int64_t>(open_rows_.size()) /
                         channels_;
    const int64_t t0 = tokens_ - open;
    float *scales = scales_.data() + (scales_.size() - ch);
    int32_t *zero_points = zero_points_.data() + (zero_points_.size() - ch);

    // The running range takes the row by the same minMaxUpdate step
    // KvCacheQuantizer::quantize's scan runs, so it equals that scan's
    // range over the open group. That step replaces a bound exactly
    // when x < min or x > max, and then with a different value; every
    // other channel keeps its range, its parameters and its held
    // values.
    AppendBuffers &buf = buffers_;
    const auto derive = [&](int64_t c) {
        const auto ci = static_cast<size_t>(c);
        const QuantParams params =
            channelParams(open_mins_[ci], open_maxs_[ci], config_);
        scales[c] = params.scale;
        zero_points[c] = params.zero_point;
    };
    buf.moved.clear();
    if (opens) {
        for (int64_t c = 0; c < channels_; ++c)
            derive(c);
    } else {
        for (int64_t c = 0; c < channels_; ++c) {
            const auto ci = static_cast<size_t>(c);
            if (row[c] < open_mins_[ci] || row[c] > open_maxs_[ci])
                buf.moved.push_back(c);
        }
        simd::minMaxUpdate(row, channels_, open_mins_.data(),
                           open_maxs_.data());
        for (const int64_t c : buf.moved)
            derive(c);
    }

    // The new row, whole, then each moved channel's held values down
    // its column, through the same simd::quantizeAffine as the row.
    const QuantRange range = signedRange(config_.bits);
    // Columns are padded to whole blocks of 8 (zeros under scale 1), so
    // the SIMD quantizer needs no scalar tail; the padding is dropped.
    const int64_t held = open - 1;
    const auto held_size = static_cast<size_t>(held);
    const size_t padded = (held_size + 7) / 8 * 8;
    buf.q.resize(std::max(ch, padded));
    uint8_t *dst = values_.data() + (tokens_ - 1) * rowBytes();
    int8_t *q = packed() ? buf.q.data() : reinterpret_cast<int8_t *>(dst);
    simd::quantizeAffine(row, scales, zero_points, channels_, range.qmin,
                         range.qmax, q);
    if (packed())
        simd::packInt4(q, channels_, dst);
    buf.column.assign(padded, 0.0f);
    buf.scales.assign(padded, 1.0f);
    buf.zero_points.assign(padded, 0);
    for (const int64_t c : buf.moved) {
        for (size_t r = 0; r < held_size; ++r)
            buf.column[r] = open_rows_[r * ch + static_cast<size_t>(c)];
        std::fill_n(buf.scales.begin(), held_size, scales[c]);
        std::fill_n(buf.zero_points.begin(), held_size, zero_points[c]);
        simd::quantizeAffine(buf.column.data(), buf.scales.data(),
                             buf.zero_points.data(),
                             static_cast<int64_t>(padded), range.qmin,
                             range.qmax, buf.q.data());
        for (int64_t r = 0; r < held; ++r) {
            uint8_t *row_dst = values_.data() + (t0 + r) * rowBytes();
            const auto value =
                static_cast<uint8_t>(buf.q[static_cast<size_t>(r)]);
            if (!packed())
                row_dst[c] = value;
            else if (c % 2 == 0)
                row_dst[c / 2] = static_cast<uint8_t>(
                    (row_dst[c / 2] & 0xf0) | (value & 0x0f));
            else
                row_dst[c / 2] = static_cast<uint8_t>(
                    (row_dst[c / 2] & 0x0f) | (value << 4));
        }
    }
    valuesQuantizedCounter().add(
        channels_ + static_cast<int64_t>(buf.moved.size()) * held);
}

QuantizedKv
KvStore::snapshot() const
{
    const int64_t groups =
        static_cast<int64_t>(scales_.size()) / channels_;
    QuantizedKv q{tokens_, channels_, config_.group_size,
                  Int8Tensor(tokens_, channels_),
                  std::vector<QuantParams>(static_cast<size_t>(
                      groups * channels_))};
    for (size_t i = 0; i < q.params.size(); ++i)
        q.params[i] = QuantParams{scales_[i], zero_points_[i]};
    for (int64_t t = 0; t < tokens_; ++t) {
        const uint8_t *src = values_.data() + t * rowBytes();
        if (packed()) {
            simd::unpackInt4(src, channels_, q.data.rowPtr(t));
        } else {
            std::copy(src, src + channels_,
                      reinterpret_cast<uint8_t *>(q.data.rowPtr(t)));
        }
    }
    return q;
}

int64_t
KvStore::bytes() const
{
    return static_cast<int64_t>(
        values_.size() + scales_.size() * sizeof(float) +
        zero_points_.size() * sizeof(int32_t));
}

} // namespace comet
