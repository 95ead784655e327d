/**
 * @file
 * Decode-phase attention over a (quantized) KV cache.
 *
 * The paper's Section 7 names attention-kernel optimization as the
 * next step after the W4Ax GEMM work, and its Figure 2 analysis shows
 * the decode attention (activation-activation) operator is memory-
 * bound — the reason the KV cache can be quantized to 4 bits "without
 * considering the quantized granularity". This module implements that
 * operator for real:
 *
 *  - a reference float implementation (naive softmax),
 *  - an online-softmax (FlashDecoding-style) blocked implementation
 *    that streams the KV cache in chunks with running max/sum rescaling
 *    — the algorithmic transformation the paper cites ([9], [52]) —
 *    numerically equivalent to the reference, and
 *  - the oracle quantized path: a whole-history QuantizedKv
 *    dequantized up front and streamed through the online core, and
 *  - the serving path over KvStore, which never dequantizes: it reads
 *    the raw INT4/INT8 values and folds each store group's per-channel
 *    scales and zero points into its own sums (what a fused KV4
 *    attention kernel does), in float with fixed-order SIMD. It is not
 *    bit-identical to the oracle; the bound is stated at its
 *    declaration. A forward call's rows run it in two phases
 *    (appendAttendQuantized): the appends, keeping each row's open
 *    group as the row saw it, then the attention of every row at
 *    once, pool-parallel, each group closed before a row folded once
 *    for a block of rows. Every row's output is bit-identical to
 *    appending and attending one row at a time.
 *
 * Layouts: Q is [heads * head_dim] for one token; K and V are
 * [tokens, kv_heads * head_dim] (the cache), GQA maps query head h to
 * kv head h / (heads / kv_heads).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/quant/kv_quant.h"
#include "comet/tensor/tensor.h"

namespace comet {

/** Geometry of one attention invocation. */
struct AttentionConfig {
    int64_t num_heads = 8;
    int64_t num_kv_heads = 8;
    int64_t head_dim = 64;
    /** KV chunk length of the online-softmax paths over float
     * caches (the store path streams store groups instead). */
    int64_t chunk_tokens = 64;

    int64_t
    qDim() const
    {
        return num_heads * head_dim;
    }

    int64_t
    kvDim() const
    {
        return num_kv_heads * head_dim;
    }
};

/**
 * Reference decode attention for one query token: full scores,
 * two-pass softmax in double precision. O(tokens * heads * head_dim).
 *
 * @param q  query vector [heads * head_dim] (RoPE already applied)
 * @param k  key cache [tokens, kv_heads * head_dim]
 * @param v  value cache, same shape as k
 * @return   attention output [heads * head_dim]
 */
std::vector<float> decodeAttentionReference(
    const AttentionConfig &config, const std::vector<float> &q,
    const Tensor &k, const Tensor &v);

/**
 * Online-softmax decode attention: streams the cache in
 * config.chunk_tokens chunks keeping a running (max, sum, accumulator)
 * per head — one pass over the KV cache, constant extra memory.
 * Numerically equivalent to the reference up to float rounding.
 */
std::vector<float> decodeAttentionOnline(const AttentionConfig &config,
                                         const std::vector<float> &q,
                                         const Tensor &k,
                                         const Tensor &v);

/** decodeAttentionOnline over the first @p tokens rows of @p k and
 * @p v: a cache with spare capacity, read in place. */
std::vector<float> decodeAttentionOnline(const AttentionConfig &config,
                                         const std::vector<float> &q,
                                         const Tensor &k,
                                         const Tensor &v,
                                         int64_t tokens);

/**
 * Online-softmax decode attention over whole-history *quantized* K and
 * V caches, dequantized up front through @p quantizer, summed in
 * double. The result approximates the float-cache output with
 * KV-quantization error only. This is the oracle for the store path
 * below, and the form TP shards slice by channel.
 */
std::vector<float> decodeAttentionQuantized(
    const AttentionConfig &config, const std::vector<float> &q,
    const QuantizedKv &k, const QuantizedKv &v,
    const KvCacheQuantizer &quantizer);

/**
 * Fused decode attention over append-only KV stores, reading the raw
 * packed values; nothing is dequantized. Each kv head streams its
 * slice one store group at a time: a group's rows share its
 * per-channel affine parameters value = (raw - zp) * s, so they fold
 * into the sums once per group. Per query head, in float:
 *
 *  - scores, per group: q'_c = q_c * sK_c and
 *    bias = sum_c float(zpK_c) * q'_c in the fixed dot order, then per
 *    row score_t = (q' . raw k_t - bias) * (1 / sqrt(hd));
 *  - weights: w_t = simd::expF32(score_t - max_t score_t) over the
 *    whole history (every score is known before any value is read, so
 *    no running rescale is needed);
 *  - values, per group: a_c = sum_t w_t * raw v_t,c from zero, rows in
 *    order, and W = sum_t 1 * w_t in the fixed dot order, then
 *    sum += W and acc_c += sV_c * (a_c - float(zpV_c) * W);
 *
 * and finally out = acc / sum. One simd::dotRowsF32 and one
 * simd::accumulateRowsF32 call per (kv head, group) serve all the
 * query heads that share the kv head, so each raw K and V row is
 * widened once per kv head (per simd::kRowVectorBlock query heads);
 * every head's operations and their order are the ones above, whatever
 * the number of heads (products commute, so zpK . q' and 1 . w equal
 * q' . zpK and w . 1 bit for bit). The order is fixed, so the result is
 * bit-identical across SIMD backends and pool sizes. It is not
 * bit-identical to decodeAttentionQuantized over the stores'
 * snapshots (that oracle dequantizes first and sums in double): the
 * two differ by at most 4e-6 * max|dequantized V| + 1e-6 per output,
 * tested over randomized stores (2-8 bits, groups 1-64, symmetric and
 * asymmetric, GQA 1-8, head_dim 8-64 including 12, every length to 70
 * tokens), where the worst case measures 3.9e-7 * max|V|. K and V must share
 * the group size; head_dim must be even for a packed store.
 */
std::vector<float> decodeAttentionQuantized(const AttentionConfig &config,
                                            const std::vector<float> &q,
                                            const KvStore &k,
                                            const KvStore &v);

/**
 * The causal store attention of one forward call's rows: appends row r
 * of @p k_rows and @p v_rows [rows, kvDim] to @p k and @p v, rows in
 * order, and returns [rows, qDim] whose row r is, bit for bit,
 * decodeAttentionQuantized(row r of @p q, k, v) over the stores as
 * they stood right after row r's append. It runs in two phases:
 *
 *  - serial: each store appends every row (K and V on two pool slots
 *    when the appends are worth a pool region), and after a row's
 *    append copies its open group's raw rows, scales and zero points
 *    when a later row of the call will still change that group (never
 *    for the last row, so a one-row call, a decode step, copies
 *    nothing);
 *  - parallel, over (block of kRowVectorBlock / heads-per-kv-head
 *    rows) x kv head, on the runtime pool at or above kMinPoolMacs of
 *    attended work: every group closed before a row is final, so a
 *    block folds it from the store once for all its rows' query
 *    vectors (one widening of each K and V row per
 *    simd::kRowVectorBlock vectors), and each row folds its own last
 *    group, from its copy, last.
 *
 * Every query vector runs the one-row path's operations in its order,
 * so the output is bit-identical to the row-by-row loop for any pool
 * size; only the `attention.kv_rows_widened` count falls.
 */
Tensor appendAttendQuantized(const AttentionConfig &config, const Tensor &q,
                             const Tensor &k_rows, const Tensor &v_rows,
                             KvStore &k, KvStore &v);

/** Bytes of KV cache read by one decode-attention invocation at the
 * given storage precision (the Figure 2 traffic term). */
double decodeAttentionKvBytes(const AttentionConfig &config,
                              int64_t tokens, double bits_per_value);

} // namespace comet
