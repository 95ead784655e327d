/**
 * @file
 * Batched decode attention over float caches, kept as a test of the
 * runtime pool's nesting contract: the sequences of one step fan out
 * across the pool, and each runs decodeAttentionOnline, whose own
 * per-kv-head fan-out then runs inline.
 */
#pragma once

#include <vector>

#include "comet/attention/decode_attention.h"
#include "comet/runtime/thread_pool.h"

namespace comet {

/** One sequence of a batched decode-attention step: its query vector
 * and its (float) K/V caches. Pointees must outlive the call. */
struct DecodeBatchItem {
    const std::vector<float> *q = nullptr;
    const Tensor *k = nullptr;
    const Tensor *v = nullptr;
};

/**
 * Runs decodeAttentionOnline for every sequence in @p batch, one pool
 * chunk per sequence (each may hold a different number of cached
 * tokens, the continuous-batching shape). Outputs are per sequence,
 * bit-identical to calling decodeAttentionOnline one sequence at a
 * time, for any pool size.
 */
inline std::vector<std::vector<float>>
decodeAttentionOnlineBatch(const AttentionConfig &config,
                           const std::vector<DecodeBatchItem> &batch)
{
    for (const DecodeBatchItem &item : batch) {
        COMET_CHECK(item.q != nullptr && item.k != nullptr &&
                    item.v != nullptr);
    }
    std::vector<std::vector<float>> out(batch.size());
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

} // namespace comet
