#include "comet/attention/decode_attention.h"

#include <algorithm>
#include <cmath>

#include "comet/runtime/thread_pool.h"

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
 * scores[t] = (q . k_t) * inv_sqrt for @p rows dense K rows, each dot
 * summed in double in channel order. Four rows run side by side:
 * their sums are independent, so interleaving them hides the add
 * latency without changing any row's summation order.
 */
void
chunkScores(const float *q, const float *k, int64_t rows, int64_t hd,
            double inv_sqrt, double *scores)
{
    int64_t t = 0;
    for (; t + 4 <= rows; t += 4) {
        const float *k0 = k + t * hd;
        const float *k1 = k0 + hd;
        const float *k2 = k1 + hd;
        const float *k3 = k2 + hd;
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
        const float *kt = k + t * hd;
        double dot = 0.0;
        for (int64_t d = 0; d < hd; ++d)
            dot += static_cast<double>(q[d]) * static_cast<double>(kt[d]);
        scores[t] = dot * inv_sqrt;
    }
}

/**
 * Shared online-softmax core: streams tokens [0, tokens) in chunks.
 * For each chunk, @p load_k / @p load_v fill a dense
 * [chunk rows, head_dim] buffer with one kv head's slice of the
 * cache, called as load(t0, t1, c0, n, out) for rows [t0, t1) and
 * channels [c0, c0 + n). The float, whole-history quantized and
 * store paths differ only in their loaders, so they accumulate in
 * the same order.
 */
template <typename LoadK, typename LoadV>
std::vector<float>
onlineCore(const AttentionConfig &config, const std::vector<float> &q,
           int64_t tokens, LoadK load_k, LoadV load_v)
{
    COMET_CHECK(config.chunk_tokens > 0);
    const int64_t hd = config.head_dim;
    const int64_t group = config.num_heads / config.num_kv_heads;
    const double inv_sqrt = 1.0 / std::sqrt(static_cast<double>(hd));

    std::vector<float> out(static_cast<size_t>(config.qDim()), 0.0f);
    // KV heads parallelize across the runtime pool. Each loads its
    // cache slice one chunk at a time, once for all the query heads
    // that share it; every query head keeps its own running state and
    // writes a disjoint output slice, so the result is bit-identical
    // for any pool size.
    parallelFor(0, config.num_kv_heads, 1, [&](int64_t kv_begin,
                                               int64_t kv_end) {
    const size_t chunk_values =
        static_cast<size_t>(config.chunk_tokens * hd);
    std::vector<float> k_chunk(chunk_values), v_chunk(chunk_values);
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
            const int64_t t1 = std::min(t0 + config.chunk_tokens, tokens);
            const int64_t rows = t1 - t0;
            load_k(t0, t1, kvh * hd, hd, k_chunk.data());
            load_v(t0, t1, kvh * hd, hd, v_chunk.data());

            for (int64_t g = 0; g < group; ++g) {
                const float *qh = q.data() + (kvh * group + g) * hd;
                double *acc_h = acc.data() + g * hd;
                double &max_h = running_max[static_cast<size_t>(g)];
                double &sum_h = running_sum[static_cast<size_t>(g)];

                // Chunk scores and chunk max.
                chunkScores(qh, k_chunk.data(), rows, hd, inv_sqrt,
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
                    const float *vt = v_chunk.data() + t * hd;
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
    }); // per-kv-head parallelFor
    return out;
}

/** Loader over the rows of a float [tokens, kv_dim] cache. */
auto
floatLoader(const Tensor &kv)
{
    return [&kv](int64_t t0, int64_t t1, int64_t c0, int64_t n,
                 float *out) {
        for (int64_t t = t0; t < t1; ++t) {
            const float *row = kv.data() + t * kv.cols() + c0;
            std::copy(row, row + n, out + (t - t0) * n);
        }
    };
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
    return onlineCore(config, q, tokens, floatLoader(k), floatLoader(v));
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
    const Tensor k_float = quantizer.dequantize(k);
    const Tensor v_float = quantizer.dequantize(v);
    return onlineCore(config, q, k.tokens, floatLoader(k_float),
                      floatLoader(v_float));
}

std::vector<float>
decodeAttentionQuantized(const AttentionConfig &config,
                         const std::vector<float> &q, const KvStore &k,
                         const KvStore &v)
{
    validate(config, q, k.channels(), v.channels());
    COMET_CHECK(k.tokens() == v.tokens());
    const auto loader = [](const KvStore &store) {
        return [&store](int64_t t0, int64_t t1, int64_t c0, int64_t n,
                        float *out) {
            store.dequantize(t0, t1, c0, n, out);
        };
    };
    return onlineCore(config, q, k.tokens(), loader(k), loader(v));
}

std::vector<std::vector<float>>
decodeAttentionOnlineBatch(const AttentionConfig &config,
                           const std::vector<DecodeBatchItem> &batch)
{
    for (const DecodeBatchItem &item : batch) {
        COMET_CHECK(item.q != nullptr && item.k != nullptr &&
                    item.v != nullptr);
    }
    std::vector<std::vector<float>> out(batch.size());
    // One chunk per sequence: the per-sequence computation is exactly
    // decodeAttentionOnline (whose inner per-kv-head parallelFor runs
    // inline when nested), so batched and one-at-a-time results are
    // identical for any pool size.
    parallelFor(
        0, static_cast<int64_t>(batch.size()), 1,
        [&](int64_t b_begin, int64_t b_end) {
            for (int64_t b = b_begin; b < b_end; ++b) {
                const DecodeBatchItem &item =
                    batch[static_cast<size_t>(b)];
                out[static_cast<size_t>(b)] = decodeAttentionOnline(
                    config, *item.q, *item.k, *item.v);
            }
        });
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
