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
 *  - two quantized-cache paths through the same online-softmax core:
 *    the serving path reads a KvStore with the dequantization fused
 *    into the stream (each chunk of one kv head's slice is dequantized
 *    straight from the packed store into a chunk buffer, what a fused
 *    KV4 attention kernel does), and the oracle path dequantizes a
 *    whole-history QuantizedKv up front. Both feed the core the same
 *    float values, so their outputs are bit-identical.
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
    /** KV chunk length for the online-softmax path. */
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
 * V caches, dequantized up front through @p quantizer. The result
 * approximates the float-cache output with KV-quantization error
 * only. This is the oracle for the store path below, and the form TP
 * shards slice by channel.
 */
std::vector<float> decodeAttentionQuantized(
    const AttentionConfig &config, const std::vector<float> &q,
    const QuantizedKv &k, const QuantizedKv &v,
    const KvCacheQuantizer &quantizer);

/**
 * Fused-dequant decode attention over append-only KV stores: each
 * chunk of a kv head's K/V slice is dequantized from the packed store
 * as it streams, with no float copy of the cache. Bit-identical to
 * decodeAttentionQuantized over the stores' snapshots.
 */
std::vector<float> decodeAttentionQuantized(const AttentionConfig &config,
                                            const std::vector<float> &q,
                                            const KvStore &k,
                                            const KvStore &v);

/** One sequence of a batched decode-attention step: its query vector
 * and its (float) K/V caches. Pointees must outlive the call. */
struct DecodeBatchItem {
    const std::vector<float> *q = nullptr;
    const Tensor *k = nullptr;
    const Tensor *v = nullptr;
};

/**
 * Batched decode step: runs decodeAttentionOnline for every sequence
 * in @p batch, fanning the independent sequences out across the
 * runtime pool (each sequence may hold a different number of cached
 * tokens — the continuous-batching shape). Outputs are per sequence,
 * bit-identical to calling decodeAttentionOnline one sequence at a
 * time, for any pool size.
 */
std::vector<std::vector<float>> decodeAttentionOnlineBatch(
    const AttentionConfig &config,
    const std::vector<DecodeBatchItem> &batch);

/** Bytes of KV cache read by one decode-attention invocation at the
 * given storage precision (the Figure 2 traffic term). */
double decodeAttentionKvBytes(const AttentionConfig &config,
                              int64_t tokens, double bits_per_value);

} // namespace comet
