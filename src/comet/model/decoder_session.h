/**
 * @file
 * Incremental decoding with a (quantizable) KV cache.
 *
 * TinyTransformer::forward() recomputes the whole prefix every call —
 * fine for the PTQ harness, but not how serving works. DecoderSession
 * is the real thing: it feeds one token at a time, caches each
 * layer's K/V, and attends over the cache with the online-softmax
 * kernel from comet/attention. With a KvQuantConfig attached, each
 * layer's K and V live in an append-only KvStore (the same packed
 * store QuantizedDecoder uses) and attention reads the packed values,
 * folding the quantization parameters into its sums — the KV4 half of
 * the paper's W4A4KV4 path, exercised
 * numerically on the tiny model with float weights.
 *
 * Invariant (tested): with an FP16 cache, the session's logits match
 * TinyTransformer::forward() exactly up to float reordering.
 */
#pragma once

#include <optional>
#include <vector>

#include "comet/attention/decode_attention.h"
#include "comet/model/tiny_transformer.h"
#include "comet/quant/kv_quant.h"

namespace comet {

/**
 * A single-sequence incremental decoder over a TinyTransformer.
 */
class DecoderSession
{
  public:
    /**
     * Opens a session. When @p kv_quant is set, the per-layer KV
     * caches are stored quantized (e.g. the paper's channel-wise
     * asymmetric INT4) and attention reads them packed.
     */
    explicit DecoderSession(const TinyTransformer &model,
                            std::optional<KvQuantConfig> kv_quant =
                                std::nullopt);

    /** Tokens consumed so far. */
    int64_t position() const { return position_; }

    /**
     * Feeds one token; returns the next-token logits [vocab].
     */
    std::vector<float> step(int32_t token);

    /** Feeds a whole prompt; returns the logits after its last
     * token. */
    std::vector<float> prefill(const std::vector<int32_t> &tokens);

    /**
     * Greedy/sampled generation: feeds @p prompt then samples
     * @p new_tokens continuations at temperature 1.
     */
    std::vector<int32_t> generate(const std::vector<int32_t> &prompt,
                                  int64_t new_tokens, Rng &rng);

    /** Bytes the KV cache of this session would occupy at its storage
     * precision (all layers). */
    double kvCacheBytes() const;

  private:
    struct LayerCache {
        Tensor k{1, 1}; ///< [capacity, kv_dim]; rows [0, position)
        Tensor v{1, 1};
    };

    /** Grows the FP16 caches to hold @p tokens rows. */
    void ensureCapacity(int64_t tokens);

    const TinyTransformer &model_;
    std::optional<KvQuantConfig> kv_quant_;
    AttentionConfig attn_config_;
    std::vector<LayerCache> caches_;  ///< FP16 mode, [layer]
    std::vector<KvStore> k_stores_;   ///< KV-quant mode, [layer]
    std::vector<KvStore> v_stores_;   ///< KV-quant mode, [layer]
    int64_t capacity_ = 0;
    int64_t position_ = 0;
};

} // namespace comet
