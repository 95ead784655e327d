#include "comet/attention/decode_attention.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comet/obs/metrics.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"

namespace comet {

namespace {

void
validate(const AttentionConfig &config, const std::vector<float> &q,
         int64_t k_cols, int64_t v_cols)
{
    COMET_CHECK(config.num_heads > 0 && config.num_kv_heads > 0 &&
                config.head_dim > 0);
    COMET_CHECK(config.num_heads % config.num_kv_heads == 0);
    COMET_CHECK(static_cast<int64_t>(q.size()) == config.qDim());
    COMET_CHECK(k_cols == config.kvDim());
    COMET_CHECK(v_cols == config.kvDim());
}

} // namespace

std::vector<float>
decodeAttentionReference(const AttentionConfig &config,
                         const std::vector<float> &q, const Tensor &k,
                         const Tensor &v)
{
    validate(config, q, k.cols(), v.cols());
    COMET_CHECK(k.rows() == v.rows());
    const int64_t tokens = k.rows();
    const int64_t group = config.num_heads / config.num_kv_heads;
    const double inv_sqrt =
        1.0 / std::sqrt(static_cast<double>(config.head_dim));

    std::vector<float> out(static_cast<size_t>(config.qDim()), 0.0f);
    // Heads are independent and write disjoint output slices; each
    // head's computation is the unchanged sequential loop, so the
    // result is bit-identical for any pool size.
    parallelFor(0, config.num_heads, 1, [&](int64_t h_begin,
                                            int64_t h_end) {
        std::vector<double> scores(static_cast<size_t>(tokens));
        for (int64_t h = h_begin; h < h_end; ++h) {
            const int64_t q_base = h * config.head_dim;
            const int64_t kv_base = (h / group) * config.head_dim;
            double max_score = -1e300;
            for (int64_t t = 0; t < tokens; ++t) {
                double dot = 0.0;
                for (int64_t d = 0; d < config.head_dim; ++d) {
                    dot += static_cast<double>(
                               q[static_cast<size_t>(q_base + d)]) *
                           k.at(t, kv_base + d);
                }
                scores[static_cast<size_t>(t)] = dot * inv_sqrt;
                max_score = std::max(max_score,
                                     scores[static_cast<size_t>(t)]);
            }
            double sum = 0.0;
            for (int64_t t = 0; t < tokens; ++t) {
                scores[static_cast<size_t>(t)] = std::exp(
                    scores[static_cast<size_t>(t)] - max_score);
                sum += scores[static_cast<size_t>(t)];
            }
            for (int64_t d = 0; d < config.head_dim; ++d) {
                double acc = 0.0;
                for (int64_t t = 0; t < tokens; ++t) {
                    acc += scores[static_cast<size_t>(t)] *
                           v.at(t, kv_base + d);
                }
                out[static_cast<size_t>(q_base + d)] =
                    static_cast<float>(acc / sum);
            }
        }
    });
    return out;
}

namespace {

/**
 * scores[t] = (q . k_t) * inv_sqrt for @p rows K rows @p stride floats
 * apart, each dot summed in double in channel order. Four rows run
 * side by side: their sums are independent, so interleaving them
 * hides the add latency without changing any row's summation order.
 */
void
chunkScores(const float *q, const float *k, int64_t stride, int64_t rows,
            int64_t hd, double inv_sqrt, double *scores)
{
    int64_t t = 0;
    for (; t + 4 <= rows; t += 4) {
        const float *k0 = k + t * stride;
        const float *k1 = k0 + stride;
        const float *k2 = k1 + stride;
        const float *k3 = k2 + stride;
        double dot0 = 0.0, dot1 = 0.0, dot2 = 0.0, dot3 = 0.0;
        for (int64_t d = 0; d < hd; ++d) {
            const auto qd = static_cast<double>(q[d]);
            dot0 += qd * static_cast<double>(k0[d]);
            dot1 += qd * static_cast<double>(k1[d]);
            dot2 += qd * static_cast<double>(k2[d]);
            dot3 += qd * static_cast<double>(k3[d]);
        }
        scores[t] = dot0 * inv_sqrt;
        scores[t + 1] = dot1 * inv_sqrt;
        scores[t + 2] = dot2 * inv_sqrt;
        scores[t + 3] = dot3 * inv_sqrt;
    }
    for (; t < rows; ++t) {
        const float *kt = k + t * stride;
        double dot = 0.0;
        for (int64_t d = 0; d < hd; ++d)
            dot += static_cast<double>(q[d]) * static_cast<double>(kt[d]);
        scores[t] = dot * inv_sqrt;
    }
}

/**
 * Online-softmax core over the first @p tokens rows of float
 * [tokens, kv_dim] K/V caches, read in place one chunk at a time.
 */
std::vector<float>
onlineCore(const AttentionConfig &config, const std::vector<float> &q,
           int64_t tokens, const Tensor &k, const Tensor &v)
{
    COMET_CHECK(config.chunk_tokens > 0);
    const int64_t hd = config.head_dim;
    const int64_t group = config.num_heads / config.num_kv_heads;
    const int64_t kv_dim = config.kvDim();
    const double inv_sqrt = 1.0 / std::sqrt(static_cast<double>(hd));

    std::vector<float> out(static_cast<size_t>(config.qDim()), 0.0f);
    // KV heads parallelize across the runtime pool. Every query head
    // keeps its own running state and writes a disjoint output slice,
    // so the result is bit-identical for any pool size. A score dot
    // and a value accumulate per query channel and token: below
    // kMinPoolMacs the heads run on the caller.
    const auto kv_heads = [&](int64_t kv_begin, int64_t kv_end) {
    // Running state of the online softmax for each query head of the
    // group: max, sum and a head_dim accumulator.
    std::vector<double> running_max(static_cast<size_t>(group));
    std::vector<double> running_sum(static_cast<size_t>(group));
    std::vector<double> acc(static_cast<size_t>(group * hd));
    std::vector<double> chunk_scores(
        static_cast<size_t>(config.chunk_tokens));

    for (int64_t kvh = kv_begin; kvh < kv_end; ++kvh) {
        std::fill(running_max.begin(), running_max.end(), -1e300);
        std::fill(running_sum.begin(), running_sum.end(), 0.0);
        std::fill(acc.begin(), acc.end(), 0.0);

        for (int64_t t0 = 0; t0 < tokens; t0 += config.chunk_tokens) {
            const int64_t rows =
                std::min(t0 + config.chunk_tokens, tokens) - t0;
            const float *k_chunk = k.data() + t0 * kv_dim + kvh * hd;
            const float *v_chunk = v.data() + t0 * kv_dim + kvh * hd;

            for (int64_t g = 0; g < group; ++g) {
                const float *qh = q.data() + (kvh * group + g) * hd;
                double *acc_h = acc.data() + g * hd;
                double &max_h = running_max[static_cast<size_t>(g)];
                double &sum_h = running_sum[static_cast<size_t>(g)];

                // Chunk scores and chunk max.
                chunkScores(qh, k_chunk, kv_dim, rows, hd, inv_sqrt,
                            chunk_scores.data());
                double chunk_max = -1e300;
                for (int64_t t = 0; t < rows; ++t)
                    chunk_max = std::max(
                        chunk_max, chunk_scores[static_cast<size_t>(t)]);

                // Rescale the running state to the new max.
                const double new_max = std::max(max_h, chunk_max);
                const double rescale = std::exp(max_h - new_max);
                sum_h *= rescale;
                for (int64_t d = 0; d < hd; ++d)
                    acc_h[d] *= rescale;

                // Fold the chunk in.
                for (int64_t t = 0; t < rows; ++t) {
                    const double w = std::exp(
                        chunk_scores[static_cast<size_t>(t)] - new_max);
                    sum_h += w;
                    const float *vt = v_chunk + t * kv_dim;
                    for (int64_t d = 0; d < hd; ++d)
                        acc_h[d] += w * static_cast<double>(vt[d]);
                }
                max_h = new_max;
            }
        }

        for (int64_t g = 0; g < group; ++g) {
            const double sum_h = running_sum[static_cast<size_t>(g)];
            COMET_CHECK(sum_h > 0.0);
            const int64_t q_base = (kvh * group + g) * hd;
            for (int64_t d = 0; d < hd; ++d) {
                out[static_cast<size_t>(q_base + d)] = static_cast<float>(
                    acc[static_cast<size_t>(g * hd + d)] / sum_h);
            }
        }
    }
    }; // kv_heads
    if (2 * tokens * config.qDim() < kMinPoolMacs)
        kv_heads(0, config.num_kv_heads);
    else
        parallelFor(0, config.num_kv_heads, 1, kv_heads);
    return out;
}

/** K and V rows the store path widens from their raw values,
 * process-wide: each row once per kv head and batch of
 * simd::kRowVectorBlock query heads. */
obs::Counter &
rowsWidenedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter("attention.kv_rows_widened");
    return counter;
}

/** Per-thread working buffers of the store path, kept across calls:
 * prefill attends once per prompt row. */
struct FoldScratch {
    std::vector<float> q_scaled;    ///< [query heads, head_dim]
    std::vector<float> zero;        ///< [head_dim], one group's, as float
    std::vector<float> head_sums;   ///< [query heads], one group's
    std::vector<float> value_sums;  ///< [query heads, head_dim]
    std::vector<float> weights;     ///< [query heads, tokens]
    std::vector<float> ones;        ///< [rows of the largest group]
    std::vector<float> acc;         ///< [query heads, head_dim]
    std::vector<float> sums;        ///< [query heads]
};

/** The raw rows of @p store from token @p t0, starting at channel
 * @p c0 (a kv head's slice). */
simd::QuantRows
headRows(const KvStore &store, int64_t t0, int64_t c0)
{
    return {store.values() + t0 * store.rowBytes() +
                (store.packed() ? c0 / 2 : c0),
            store.rowBytes(), store.packed()};
}

/** max(x[0, n)), x[t] into lane t % 8 and the lanes then in order:
 * eight compare chains overlap where one would serialize. */
float
laneMax(const float *x, int64_t n)
{
    float lanes[8];
    std::fill(lanes, lanes + 8, std::numeric_limits<float>::lowest());
    int64_t t = 0;
    for (; t + 8 <= n; t += 8) {
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j)
            lanes[j] = std::max(lanes[j], x[t + j]);
    }
    for (int j = 0; t < n; ++t, ++j)
        lanes[j] = std::max(lanes[j], x[t]);
    return *std::max_element(lanes, lanes + 8);
}

/**
 * Fused attention of the query heads sharing kv head @p kvh, writing
 * their output slices. Groups run in the outer loop, and one score
 * dot and one value accumulation per group serve every query head, so
 * each K and V row is widened once per kv head. See
 * decode_attention.h for the order of operations;
 * tests/kv_fold_attention.h restates it.
 */
void
foldKvHead(const AttentionConfig &config, const float *q, const KvStore &k,
           const KvStore &v, int64_t kvh, FoldScratch &s, float *out)
{
    const int64_t hd = config.head_dim;
    const int64_t heads = config.num_heads / config.num_kv_heads;
    const int64_t c0 = kvh * hd;
    const int64_t tokens = k.tokens();
    const int64_t group_size = k.groupSize();
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    q += kvh * heads * hd;
    out += kvh * heads * hd;
    float *q_scaled = s.q_scaled.data();
    float *zero = s.zero.data();
    float *head_sums = s.head_sums.data();
    float *weights = s.weights.data();
    // Group g's rows [t0, t1) share its per-channel parameters; p
    // points at channel c0 of them.
    const auto for_each_group = [&](auto &&body) {
        for (int64_t t0 = 0; t0 < tokens; t0 += group_size) {
            const int64_t p = (t0 / group_size) * k.channels() + c0;
            body(t0, std::min(t0 + group_size, tokens) - t0, p);
        }
    };

    // Scores: per group and head q' = q * sK and bias = zpK . q', then
    // one raw dot per row and head: (q' . k_raw - bias) / sqrt(hd).
    for_each_group([&](int64_t t0, int64_t rows, int64_t p) {
        const float *k_scale = k.scales() + p;
        for (int64_t c = 0; c < hd; ++c)
            zero[c] = static_cast<float>(k.zeroPoints()[p + c]);
        for (int64_t h = 0; h < heads; ++h) {
            for (int64_t c = 0; c < hd; ++c)
                q_scaled[h * hd + c] = q[h * hd + c] * k_scale[c];
        }
        simd::gemvF32(zero, q_scaled, hd, heads, hd, head_sums);
        float *w = weights + t0;
        simd::dotRowsF32(q_scaled, hd, heads, headRows(k, t0, c0), rows, hd,
                         w, tokens);
        for (int64_t h = 0; h < heads; ++h) {
            const float bias = head_sums[h];
            float *w_h = w + h * tokens;
            for (int64_t t = 0; t < rows; ++t)
                w_h[t] = (w_h[t] - bias) * inv_sqrt;
        }
    });
    for (int64_t h = 0; h < heads; ++h) {
        float *w = weights + h * tokens;
        const float max_score = laneMax(w, tokens);
        for (int64_t t = 0; t < tokens; ++t)
            w[t] -= max_score;
    }
    simd::expF32(weights, heads * tokens, weights);

    // Values: per group and head the raw sums a = sum_t w_t v_raw and
    // W = ones . w, folded once: acc += sV * (a - zpV * W).
    float *value_sums = s.value_sums.data();
    float *acc = s.acc.data();
    std::fill(s.acc.begin(), s.acc.end(), 0.0f);
    std::fill(s.sums.begin(), s.sums.end(), 0.0f);
    for_each_group([&](int64_t t0, int64_t rows, int64_t p) {
        const float *v_scale = v.scales() + p;
        for (int64_t c = 0; c < hd; ++c)
            zero[c] = static_cast<float>(v.zeroPoints()[p + c]);
        simd::gemvF32(s.ones.data(), weights + t0, tokens, heads, rows,
                      head_sums);
        std::fill(s.value_sums.begin(), s.value_sums.end(), 0.0f);
        simd::accumulateRowsF32(weights + t0, tokens, heads,
                                headRows(v, t0, c0), rows, hd, value_sums,
                                hd);
        for (int64_t h = 0; h < heads; ++h) {
            const float weight_sum = head_sums[h];
            s.sums[static_cast<size_t>(h)] += weight_sum;
            for (int64_t c = 0; c < hd; ++c)
                acc[h * hd + c] +=
                    v_scale[c] *
                    (value_sums[h * hd + c] - zero[c] * weight_sum);
        }
    });
    for (int64_t h = 0; h < heads; ++h) {
        const float sum = s.sums[static_cast<size_t>(h)];
        COMET_CHECK(sum > 0.0f);
        for (int64_t c = 0; c < hd; ++c)
            out[h * hd + c] = acc[h * hd + c] / sum;
    }
}

} // namespace

std::vector<float>
decodeAttentionOnline(const AttentionConfig &config,
                      const std::vector<float> &q, const Tensor &k,
                      const Tensor &v)
{
    COMET_CHECK(k.rows() == v.rows());
    return decodeAttentionOnline(config, q, k, v, k.rows());
}

std::vector<float>
decodeAttentionOnline(const AttentionConfig &config,
                      const std::vector<float> &q, const Tensor &k,
                      const Tensor &v, int64_t tokens)
{
    validate(config, q, k.cols(), v.cols());
    COMET_CHECK(tokens <= k.rows() && tokens <= v.rows());
    return onlineCore(config, q, tokens, k, v);
}

std::vector<float>
decodeAttentionQuantized(const AttentionConfig &config,
                         const std::vector<float> &q,
                         const QuantizedKv &k, const QuantizedKv &v,
                         const KvCacheQuantizer &quantizer)
{
    validate(config, q, k.channels, v.channels);
    COMET_CHECK(k.tokens == v.tokens);
    COMET_CHECK(quantizer.config().group_size == k.group_size);

    // The oracle form: dequantize each whole cache up front through
    // KvCacheQuantizer, then stream the floats.
    return onlineCore(config, q, k.tokens, quantizer.dequantize(k),
                      quantizer.dequantize(v));
}

std::vector<float>
decodeAttentionQuantized(const AttentionConfig &config,
                         const std::vector<float> &q, const KvStore &k,
                         const KvStore &v)
{
    validate(config, q, k.channels(), v.channels());
    COMET_CHECK(k.tokens() == v.tokens() && k.tokens() > 0);
    COMET_CHECK(k.groupSize() == v.groupSize());
    COMET_CHECK(!k.packed() || config.head_dim % 2 == 0);
    COMET_CHECK(!v.packed() || config.head_dim % 2 == 0);

    std::vector<float> out(static_cast<size_t>(config.qDim()));
    const auto hd = static_cast<size_t>(config.head_dim);
    const auto heads =
        static_cast<size_t>(config.num_heads / config.num_kv_heads);
    // Each kv head is independent and writes its own query heads'
    // slices, so the fan-out is bit-identical for any pool size. A
    // score dot and a value accumulate per query channel and token:
    // below kMinPoolMacs the heads run on the caller.
    const auto kv_heads = [&](int64_t begin, int64_t end) {
        // Thread storage, not captured: each thread running kv heads
        // uses its own buffers.
        thread_local FoldScratch s;
        s.q_scaled.resize(heads * hd);
        s.zero.resize(hd);
        s.head_sums.resize(heads);
        s.value_sums.resize(heads * hd);
        s.weights.resize(heads * static_cast<size_t>(k.tokens()));
        s.ones.assign(
            static_cast<size_t>(std::min(k.groupSize(), k.tokens())), 1.0f);
        s.acc.resize(heads * hd);
        s.sums.resize(heads);
        for (int64_t kvh = begin; kvh < end; ++kvh)
            foldKvHead(config, q.data(), k, v, kvh, s, out.data());
    };
    const int64_t head_batches =
        (config.num_heads / config.num_kv_heads + simd::kRowVectorBlock -
         1) /
        simd::kRowVectorBlock;
    rowsWidenedCounter().add(2 * k.tokens() * config.num_kv_heads *
                             head_batches);
    if (2 * k.tokens() * config.qDim() < kMinPoolMacs)
        kv_heads(0, config.num_kv_heads);
    else
        parallelFor(0, config.num_kv_heads, 1, kv_heads);
    return out;
}

double
decodeAttentionKvBytes(const AttentionConfig &config, int64_t tokens,
                       double bits_per_value)
{
    COMET_CHECK(tokens >= 0);
    // K and V, every kv head, every channel, every cached token.
    return 2.0 * static_cast<double>(tokens) *
           static_cast<double>(config.kvDim()) * bits_per_value / 8.0;
}

} // namespace comet
