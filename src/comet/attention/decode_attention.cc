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
validate(const AttentionConfig &config, int64_t q_cols, int64_t k_cols,
         int64_t v_cols)
{
    COMET_CHECK(config.num_heads > 0 && config.num_kv_heads > 0 &&
                config.head_dim > 0);
    COMET_CHECK(config.num_heads % config.num_kv_heads == 0);
    COMET_CHECK(q_cols == config.qDim());
    COMET_CHECK(k_cols == config.kvDim());
    COMET_CHECK(v_cols == config.kvDim());
}

} // namespace

std::vector<float>
decodeAttentionReference(const AttentionConfig &config,
                         const std::vector<float> &q, const Tensor &k,
                         const Tensor &v)
{
    validate(config, static_cast<int64_t>(q.size()), k.cols(), v.cols());
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
 * simd::kRowVectorBlock query vectors. */
obs::Counter &
rowsWidenedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter("attention.kv_rows_widened");
    return counter;
}

/** K and V values a call appends below which its two stores append on
 * the caller rather than on two pool slots: about 100 us of appends,
 * what a pool region's wake-up is worth. */
constexpr int64_t kMinPoolAppendValues = int64_t{1} << 13;

/** One store group as a query row folds it: its raw rows from the
 * group's first token, rowBytes() apart, and its per-channel scales
 * and zero points [channels]. */
struct GroupView {
    const uint8_t *values = nullptr;
    const float *scales = nullptr;
    const int32_t *zero_points = nullptr;
};

/** Group @p g of @p store as it stands. */
GroupView
storeGroup(const KvStore &store, int64_t g)
{
    const int64_t t0 = g * store.groupSize();
    return {store.values() + t0 * store.rowBytes(),
            store.scales() + g * store.channels(),
            store.zeroPoints() + g * store.channels()};
}

/** Consecutive query rows of one call: row i is the query at q + i *
 * qDim and attends tokens [0, tokens + i); its last group is read
 * through k_last[i] and v_last[i], every earlier one from the stores,
 * where it is closed. */
struct QueryBlock {
    const float *q = nullptr;
    int64_t rows = 0;
    int64_t tokens = 0;
    const GroupView *k_last = nullptr;
    const GroupView *v_last = nullptr;
};

/** Per-thread working buffers of the store path, kept across calls. */
struct FoldScratch {
    std::vector<float> queries;     ///< [vectors, head_dim]
    std::vector<float> q_scaled;    ///< [vectors, head_dim]
    std::vector<float> zero;        ///< [head_dim], one group's, as float
    std::vector<float> head_sums;   ///< [vectors], one group's
    std::vector<float> value_sums;  ///< [vectors, head_dim]
    std::vector<float> weights;     ///< [vectors, the last row's tokens]
    std::vector<float> ones;        ///< [rows of the largest group]
    std::vector<float> acc;         ///< [vectors, head_dim]
    std::vector<float> sums;        ///< [vectors]
};

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
 * Fused attention of the query heads sharing kv head @p kvh, for every
 * row of @p b, writing their output slices (row i's at out + i *
 * qDim). Each (row, query head) is one query vector, vector
 * i * heads + h. Groups run in the outer loop in ascending order: a
 * group closed for a suffix of the rows takes one score dot and one
 * value accumulation for all their vectors, so each K and V row is
 * widened once per simd::kRowVectorBlock vectors; a row's last group
 * is folded for that row's vectors alone. Every vector's operations
 * and their order are the one-row path's (decode_attention.h;
 * tests/kv_fold_attention.h restates them), whatever the rows beside
 * it. Returns the K and V rows it widened.
 */
int64_t
foldKvHead(const AttentionConfig &config, const QueryBlock &b,
           const KvStore &k, const KvStore &v, int64_t kvh, FoldScratch &s,
           float *out)
{
    const int64_t hd = config.head_dim;
    const int64_t q_dim = config.qDim();
    const int64_t heads = config.num_heads / config.num_kv_heads;
    const int64_t c0 = kvh * hd;
    const int64_t group_size = k.groupSize();
    const int64_t vectors = b.rows * heads;
    // Weights of vector j at weights + j * span: the last row's tokens.
    const int64_t span = b.tokens + b.rows - 1;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    // The block's query vectors side by side: vector i * heads + h is
    // row i's query head kvh * heads + h.
    s.queries.resize(static_cast<size_t>(vectors * hd));
    for (int64_t i = 0; i < b.rows; ++i)
        std::copy_n(b.q + i * q_dim + kvh * heads * hd, heads * hd,
                    s.queries.data() + i * heads * hd);
    s.q_scaled.resize(static_cast<size_t>(vectors * hd));
    s.zero.resize(static_cast<size_t>(hd));
    s.head_sums.resize(static_cast<size_t>(vectors));
    s.value_sums.resize(static_cast<size_t>(vectors * hd));
    s.weights.resize(static_cast<size_t>(vectors * span));
    s.ones.assign(static_cast<size_t>(std::min(group_size, span)), 1.0f);
    s.acc.assign(static_cast<size_t>(vectors * hd), 0.0f);
    s.sums.assign(static_cast<size_t>(vectors), 0.0f);
    const float *queries = s.queries.data();
    float *q_scaled = s.q_scaled.data();
    float *zero = s.zero.data();
    float *head_sums = s.head_sums.data();
    float *weights = s.weights.data();
    int64_t widened = 0;
    // Every fold in order: per group g, the rows whose last group it is
    // (each alone, through its view), then the rows past it (the
    // suffix, from the store). body(t0, rows, j0, n_vectors, view) sees
    // the group's first token and row count, the vectors it serves and
    // the group's state.
    const auto for_each_fold = [&](const KvStore &store,
                                   const GroupView *last, auto &&body) {
        const int64_t last_group = (span - 1) / group_size;
        int64_t i = 0; // the first row whose last group is not before g
        for (int64_t g = 0; g <= last_group; ++g) {
            const int64_t t0 = g * group_size;
            for (; i < b.rows && b.tokens + i <= t0 + group_size; ++i)
                body(t0, b.tokens + i - t0, i * heads, heads,
                     last[static_cast<size_t>(i)]);
            if (i < b.rows)
                body(t0, group_size, i * heads, vectors - i * heads,
                     storeGroup(store, g));
        }
    };
    const auto head_rows = [&](const KvStore &store, const GroupView &view) {
        return simd::QuantRows{view.values + (store.packed() ? c0 / 2 : c0),
                               store.rowBytes(), store.packed()};
    };
    const auto count_widened = [&](int64_t rows, int64_t n_vectors) {
        widened += rows * ((n_vectors + simd::kRowVectorBlock - 1) /
                           simd::kRowVectorBlock);
    };

    // Scores: per group and vector q' = q * sK and bias = zpK . q', then
    // one raw dot per row and vector: (q' . k_raw - bias) / sqrt(hd).
    for_each_fold(k, b.k_last, [&](int64_t t0, int64_t rows, int64_t j0,
                                   int64_t n_vectors, const GroupView &view) {
        const float *k_scale = view.scales + c0;
        for (int64_t c = 0; c < hd; ++c)
            zero[c] = static_cast<float>(view.zero_points[c0 + c]);
        for (int64_t j = j0; j < j0 + n_vectors; ++j) {
            const float *q = queries + j * hd;
            for (int64_t c = 0; c < hd; ++c)
                q_scaled[j * hd + c] = q[c] * k_scale[c];
        }
        simd::gemvF32(zero, q_scaled + j0 * hd, hd, n_vectors, hd,
                      head_sums + j0);
        float *w = weights + j0 * span + t0;
        simd::dotRowsF32(q_scaled + j0 * hd, hd, n_vectors,
                         head_rows(k, view), rows, hd, w, span);
        count_widened(rows, n_vectors);
        for (int64_t j = 0; j < n_vectors; ++j) {
            const float bias = head_sums[j0 + j];
            float *w_j = w + j * span;
            for (int64_t t = 0; t < rows; ++t)
                w_j[t] = (w_j[t] - bias) * inv_sqrt;
        }
    });
    // Past a vector's tokens its weights are padding: lowest() turns
    // into +0.0f, and one expF32 call covers every vector.
    for (int64_t j = 0; j < vectors; ++j) {
        float *w = weights + j * span;
        const int64_t tokens = b.tokens + j / heads;
        const float max_score = laneMax(w, tokens);
        for (int64_t t = 0; t < tokens; ++t)
            w[t] -= max_score;
        std::fill(w + tokens, w + span, std::numeric_limits<float>::lowest());
    }
    simd::expF32(weights, vectors * span, weights);

    // Values: per group and vector the raw sums a = sum_t w_t v_raw and
    // W = ones . w, folded once: acc += sV * (a - zpV * W).
    float *value_sums = s.value_sums.data();
    float *acc = s.acc.data();
    for_each_fold(v, b.v_last, [&](int64_t t0, int64_t rows, int64_t j0,
                                   int64_t n_vectors, const GroupView &view) {
        const float *v_scale = view.scales + c0;
        for (int64_t c = 0; c < hd; ++c)
            zero[c] = static_cast<float>(view.zero_points[c0 + c]);
        const float *w = weights + j0 * span + t0;
        simd::gemvF32(s.ones.data(), w, span, n_vectors, rows,
                      head_sums + j0);
        std::fill(value_sums + j0 * hd, value_sums + (j0 + n_vectors) * hd,
                  0.0f);
        simd::accumulateRowsF32(w, span, n_vectors, head_rows(v, view), rows,
                                hd, value_sums + j0 * hd, hd);
        count_widened(rows, n_vectors);
        for (int64_t j = j0; j < j0 + n_vectors; ++j) {
            const float weight_sum = head_sums[j];
            s.sums[static_cast<size_t>(j)] += weight_sum;
            for (int64_t c = 0; c < hd; ++c)
                acc[j * hd + c] +=
                    v_scale[c] *
                    (value_sums[j * hd + c] - zero[c] * weight_sum);
        }
    });
    for (int64_t j = 0; j < vectors; ++j) {
        const float sum = s.sums[static_cast<size_t>(j)];
        COMET_CHECK(sum > 0.0f);
        float *o = out + (j / heads) * q_dim + (kvh * heads + j % heads) * hd;
        for (int64_t c = 0; c < hd; ++c)
            o[c] = acc[j * hd + c] / sum;
    }
    return widened;
}

/** Checks a store attention's geometry, with @p q_cols query values
 * per row, against its stores. */
void
validateStores(const AttentionConfig &config, int64_t q_cols,
               const KvStore &k, const KvStore &v)
{
    validate(config, q_cols, k.channels(), v.channels());
    COMET_CHECK(k.tokens() == v.tokens());
    COMET_CHECK(k.groupSize() == v.groupSize());
    COMET_CHECK(!k.packed() || config.head_dim % 2 == 0);
    COMET_CHECK(!v.packed() || config.head_dim % 2 == 0);
}

/**
 * Open-group snapshots of one store over a call's appends: slot i
 * holds, when row i's group is still to change within the call, that
 * group's raw rows and parameters as they stood right after row i's
 * append.
 */
struct GroupSnapshots {
    std::vector<uint8_t> values;       ///< [rows, group rows, rowBytes]
    std::vector<float> scales;         ///< [rows, channels]
    std::vector<int32_t> zero_points;  ///< [rows, channels]
    std::vector<GroupView> views;      ///< [rows], each row's last group

    /**
     * Appends the @p n rows at @p rows (channels() floats each) to
     * @p store, keeping each row's snapshot where a later row of the
     * call moves its group. The views are set once every row is in.
     */
    void
    append(KvStore &store, const float *rows, int64_t n)
    {
        const int64_t ch = store.channels();
        const int64_t gs = store.groupSize();
        const int64_t row_bytes = store.rowBytes();
        const int64_t first = store.tokens();
        values.resize(static_cast<size_t>(n * gs * row_bytes));
        scales.resize(static_cast<size_t>(n * ch));
        zero_points.resize(static_cast<size_t>(n * ch));
        views.resize(static_cast<size_t>(n));
        const auto final_in_call = [&](int64_t i) {
            return i + 1 == n || (first + i + 1) % gs == 0;
        };
        for (int64_t i = 0; i < n; ++i) {
            store.append(rows + i * ch);
            if (final_in_call(i))
                continue;
            const int64_t g = (first + i) / gs;
            const GroupView now = storeGroup(store, g);
            const int64_t held = first + i + 1 - g * gs;
            uint8_t *dst_values = values.data() + i * gs * row_bytes;
            float *dst_scales = scales.data() + i * ch;
            int32_t *dst_zero_points = zero_points.data() + i * ch;
            std::copy_n(now.values, held * row_bytes, dst_values);
            std::copy_n(now.scales, ch, dst_scales);
            std::copy_n(now.zero_points, ch, dst_zero_points);
            views[static_cast<size_t>(i)] = {dst_values, dst_scales,
                                             dst_zero_points};
        }
        for (int64_t i = 0; i < n; ++i) {
            if (final_in_call(i))
                views[static_cast<size_t>(i)] =
                    storeGroup(store, (first + i) / gs);
        }
    }
};

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
    validate(config, static_cast<int64_t>(q.size()), k.cols(), v.cols());
    COMET_CHECK(tokens <= k.rows() && tokens <= v.rows());
    return onlineCore(config, q, tokens, k, v);
}

std::vector<float>
decodeAttentionQuantized(const AttentionConfig &config,
                         const std::vector<float> &q,
                         const QuantizedKv &k, const QuantizedKv &v,
                         const KvCacheQuantizer &quantizer)
{
    validate(config, static_cast<int64_t>(q.size()), k.channels,
             v.channels);
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
    validateStores(config, static_cast<int64_t>(q.size()), k, v);
    COMET_CHECK(k.tokens() > 0);

    std::vector<float> out(static_cast<size_t>(config.qDim()));
    const GroupView k_last =
        storeGroup(k, (k.tokens() - 1) / k.groupSize());
    const GroupView v_last =
        storeGroup(v, (v.tokens() - 1) / v.groupSize());
    const QueryBlock block{q.data(), 1, k.tokens(), &k_last, &v_last};
    // Each kv head is independent and writes its own query heads'
    // slices, so the fan-out is bit-identical for any pool size. A
    // score dot and a value accumulate per query channel and token:
    // below kMinPoolMacs the heads run on the caller.
    const auto kv_heads = [&](int64_t begin, int64_t end) {
        // Thread storage, not captured: each thread running kv heads
        // uses its own buffers.
        thread_local FoldScratch s;
        int64_t widened = 0;
        for (int64_t kvh = begin; kvh < end; ++kvh)
            widened += foldKvHead(config, block, k, v, kvh, s, out.data());
        rowsWidenedCounter().add(widened);
    };
    if (2 * k.tokens() * config.qDim() < kMinPoolMacs)
        kv_heads(0, config.num_kv_heads);
    else
        parallelFor(0, config.num_kv_heads, 1, kv_heads);
    return out;
}

Tensor
appendAttendQuantized(const AttentionConfig &config, const Tensor &q,
                      const Tensor &k_rows, const Tensor &v_rows, KvStore &k,
                      KvStore &v)
{
    validateStores(config, q.cols(), k, v);
    const int64_t rows = q.rows();
    COMET_CHECK(rows > 0);
    COMET_CHECK(k_rows.rows() == rows && k_rows.cols() == config.kvDim());
    COMET_CHECK(v_rows.rows() == rows && v_rows.cols() == config.kvDim());

    Tensor out(rows, config.qDim());
    // Serial phase: each store takes the rows in order, keeping every
    // row's open group as the row saw it; K and V are independent. The
    // lambdas reach the caller's snapshot buffers through pointers: a
    // thread_local named inside them would be the running thread's.
    thread_local GroupSnapshots k_snapshots, v_snapshots;
    GroupSnapshots *const snapshots[] = {&k_snapshots, &v_snapshots};
    KvStore *const stores[] = {&k, &v};
    const float *const appended[] = {k_rows.data(), v_rows.data()};
    const auto append = [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i)
            snapshots[i]->append(*stores[i], appended[i], rows);
    };
    if (2 * rows * config.kvDim() < kMinPoolAppendValues)
        append(0, 2);
    else
        parallelFor(0, 2, 1, append);

    // Parallel phase: (row block x kv head). A block's rows give
    // kRowVectorBlock query vectors per kv head, one widening each;
    // groups closed before a row are final, so every row folds exactly
    // what its one-row call would have.
    const int64_t heads = config.num_heads / config.num_kv_heads;
    const int64_t block_rows =
        std::max<int64_t>(1, simd::kRowVectorBlock / heads);
    const int64_t blocks = (rows + block_rows - 1) / block_rows;
    const int64_t first_tokens = k.tokens() - rows + 1;
    const auto fold = [&](int64_t begin, int64_t end) {
        thread_local FoldScratch s;
        int64_t widened = 0;
        for (int64_t item = begin; item < end; ++item) {
            const int64_t r0 = (item / config.num_kv_heads) * block_rows;
            const auto r = static_cast<size_t>(r0);
            const QueryBlock block{q.data() + r0 * q.cols(),
                                   std::min(block_rows, rows - r0),
                                   first_tokens + r0,
                                   snapshots[0]->views.data() + r,
                                   snapshots[1]->views.data() + r};
            widened += foldKvHead(config, block, k, v,
                                  item % config.num_kv_heads, s,
                                  out.data() + r0 * out.cols());
        }
        rowsWidenedCounter().add(widened);
    };
    // Row r attends first_tokens + r tokens.
    const int64_t attended = rows * first_tokens + rows * (rows - 1) / 2;
    if (2 * attended * config.qDim() < kMinPoolMacs)
        fold(0, blocks * config.num_kv_heads);
    else
        parallelFor(0, blocks * config.num_kv_heads, 1, fold);
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
