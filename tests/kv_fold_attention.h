/**
 * @file
 * A scalar model of the fused store attention, kept as the test oracle
 * of decodeAttentionQuantized(config, q, KvStore, KvStore).
 *
 * It restates the store path's order of float operations
 * (decode_attention.h) element by element, reading a store's snapshot
 * (one byte per value) instead of its packed rows: the eight-lane dot
 * with its fixed reduction tree, the eight-lane score max, the
 * row-ordered value accumulation and the once-per-group fold of scales
 * and zero points. The store path must equal it bit for bit under every
 * SIMD backend and pool size. Exponentials come from simd::expF32,
 * whose backends are pinned to each other by the SIMD equivalence
 * suite.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "comet/attention/decode_attention.h"
#include "comet/simd/simd.h"

namespace comet {

namespace kv_fold {

/** The fixed-order dot (simd.h): lane i % 8, then the fixed tree. */
template <typename Value>
inline float
laneDot(const float *x, int64_t n, Value value)
{
    float lanes[8] = {};
    for (int64_t i = 0; i < n; ++i)
        lanes[i % 8] += x[i] * value(i);
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/** max over x[0, n): x[t] into lane t % 8, then lanes 0..7 in order. */
inline float
laneMax(const std::vector<float> &x)
{
    std::vector<float> lanes(8, std::numeric_limits<float>::lowest());
    for (size_t t = 0; t < x.size(); ++t)
        lanes[t % 8] = std::max(lanes[t % 8], x[t]);
    float m = lanes[0];
    for (size_t j = 1; j < 8; ++j)
        m = std::max(m, lanes[j]);
    return m;
}

} // namespace kv_fold

/** The store path's result, computed from the stores' snapshots. */
inline std::vector<float>
foldAttentionModel(const AttentionConfig &config, const std::vector<float> &q,
                   const QuantizedKv &k, const QuantizedKv &v)
{
    const int64_t hd = config.head_dim;
    const int64_t heads = config.num_heads / config.num_kv_heads;
    const int64_t tokens = k.tokens;
    const int64_t group_size = k.group_size;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<float> out(static_cast<size_t>(config.qDim()));
    for (int64_t h = 0; h < config.num_heads; ++h) {
        const int64_t c0 = (h / heads) * hd;
        const float *qh = q.data() + h * hd;
        const auto param = [&](const QuantizedKv &kv, int64_t t,
                               int64_t c) {
            return kv.params[static_cast<size_t>(
                (t / group_size) * kv.channels + c0 + c)];
        };

        // Scores, one group's parameters at a time.
        std::vector<float> w(static_cast<size_t>(tokens));
        std::vector<float> q_scaled(static_cast<size_t>(hd));
        for (int64_t t0 = 0; t0 < tokens; t0 += group_size) {
            for (int64_t c = 0; c < hd; ++c)
                q_scaled[static_cast<size_t>(c)] =
                    qh[c] * param(k, t0, c).scale;
            const float bias = kv_fold::laneDot(
                q_scaled.data(), hd, [&](int64_t c) {
                    return static_cast<float>(param(k, t0, c).zero_point);
                });
            for (int64_t t = t0; t < std::min(t0 + group_size, tokens);
                 ++t) {
                const float raw = kv_fold::laneDot(
                    q_scaled.data(), hd, [&](int64_t c) {
                        return static_cast<float>(k.data.get(t, c0 + c));
                    });
                w[static_cast<size_t>(t)] = (raw - bias) * inv_sqrt;
            }
        }
        const float max_score = kv_fold::laneMax(w);
        for (float &x : w)
            x -= max_score;
        simd::expF32(w.data(), tokens, w.data());

        // Values: raw weighted sums, folded once per group.
        std::vector<float> acc(static_cast<size_t>(hd), 0.0f);
        float sum = 0.0f;
        for (int64_t t0 = 0; t0 < tokens; t0 += group_size) {
            const int64_t t1 = std::min(t0 + group_size, tokens);
            const float weight_sum = kv_fold::laneDot(
                w.data() + t0, t1 - t0, [](int64_t) { return 1.0f; });
            sum += weight_sum;
            for (int64_t c = 0; c < hd; ++c) {
                float a = 0.0f;
                for (int64_t t = t0; t < t1; ++t)
                    a += w[static_cast<size_t>(t)] *
                         static_cast<float>(v.data.get(t, c0 + c));
                const QuantParams p = param(v, t0, c);
                acc[static_cast<size_t>(c)] +=
                    p.scale *
                    (a - static_cast<float>(p.zero_point) * weight_sum);
            }
        }
        for (int64_t c = 0; c < hd; ++c)
            out[static_cast<size_t>(h * hd + c)] =
                acc[static_cast<size_t>(c)] / sum;
    }
    return out;
}

} // namespace comet
