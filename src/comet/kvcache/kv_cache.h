/**
 * @file
 * Paged, precision-aware KV cache for one model instance.
 *
 * Tracks per-sequence block chains over a BlockAllocator sized from a
 * byte budget and the cache precision. Halving the KV precision (FP16
 * -> INT8 -> INT4) proportionally multiplies the number of sequences x
 * tokens that fit — the mechanism behind COMET's end-to-end batch-size
 * and throughput gains (Figure 15's COMET-KV4 ablation).
 *
 * The cache accounts memory and block residency exactly; the numeric
 * content of the cache is exercised separately by KvCacheQuantizer.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "comet/common/status.h"
#include "comet/kvcache/block_allocator.h"
#include "comet/model/llm_config.h"
#include "comet/prefix/block_key.h"
#include "comet/prefix/prefix_cache.h"

namespace comet {

/** Tokens sharing one quantization group per channel in a sub-byte
 * KV cache (the channel-wise group quantizer's group size). */
constexpr int64_t kKvQuantGroupTokens = 64;

/** Sizing parameters of a paged KV cache. */
struct KvCacheConfig {
    double bits_per_value = 16.0; ///< 4 for the COMET KV4 cache
    int64_t block_tokens = 16;    ///< tokens per page
    double memory_budget_bytes = 0.0;
    /**
     * Enables the automatic prefix cache (comet::prefix): full prompt
     * blocks are indexed by chained content key at admission, and
     * later prompts sharing a prefix graft the cached pages instead
     * of recomputing them. Off by default — with it off, every
     * prefix-aware entry point below behaves exactly like its plain
     * counterpart, and cache behavior is bit-for-bit the seed's.
     */
    bool enable_prefix_cache = false;
};

/**
 * The paged KV cache.
 */
class PagedKvCache
{
  public:
    /** Sizes the block pool from the budget and model geometry. */
    PagedKvCache(const LlmConfig &model, KvCacheConfig config);

    /** Bytes of one block (all layers, K and V, plus quantization
     * metadata). */
    double blockBytes() const { return block_bytes_; }

    int64_t totalBlocks() const { return allocator_.totalBlocks(); }
    int64_t freeBlocks() const { return allocator_.freeBlocks(); }

    /**
     * Blocks obtainable right now: free blocks plus prefix-cache
     * pages evictable on demand (pages only the index references).
     * Admission gates on this, not freeBlocks() — cold cache pages
     * must never crowd out live traffic. Equals freeBlocks() when the
     * prefix cache is off.
     */
    int64_t availableBlocks() const;

    /** Blocks needed to hold @p tokens tokens. */
    int64_t blocksForTokens(int64_t tokens) const;

    /** True when a new sequence of @p tokens tokens fits right now. */
    bool canAdmit(int64_t tokens) const;

    /** Registers a sequence holding @p prompt_tokens tokens.
     * Fails (without side effects) when the pool cannot hold it. */
    Status addSequence(int64_t seq_id, int64_t prompt_tokens);

    /**
     * Prefix-aware addSequence: matches @p block_keys (the prompt's
     * chained full-block content keys, comet::prefix) against the
     * cache in @p namespace_id, grafts the hit via COW references,
     * allocates the rest (evicting cold cache pages on demand), and
     * offers the prompt's full blocks back to the index. Returns the
     * number of *tokens* whose KV was grafted instead of computed —
     * always a multiple of block_tokens, and always strictly less
     * than @p prompt_tokens (the final block recomputes so prefill
     * genuinely produces the first token's logits). Fails without
     * side effects when the pool cannot hold the sequence. With the
     * prefix cache off (or no keys), exactly addSequence.
     */
    Result<int64_t> addSequenceWithPrefix(
        int64_t seq_id, int64_t prompt_tokens, int64_t namespace_id,
        const std::vector<prefix::BlockKey> &block_keys);

    /** Extends a sequence by one generated token, allocating a new
     * block at page boundaries. If the sequence's last block is
     * shared (copy-on-write from a fork) and must grow, it is
     * duplicated first. */
    Status appendToken(int64_t seq_id);

    /**
     * Forks a sequence: the child shares every parent block
     * copy-on-write (vLLM-style prefix sharing, e.g. parallel
     * sampling from one prompt), including a partially filled
     * trailing block. Forking allocates nothing — it cannot fail on
     * resource exhaustion — and the first append into a shared tail
     * pays for the divergence copy (see appendToken). Fails only for
     * unknown parent / duplicate child ids.
     */
    Status forkSequence(int64_t parent_id, int64_t child_id);

    /** Ids of all live sequences, ascending (invariant audits —
     * see comet::chaos). */
    std::vector<int64_t> sequenceIds() const;

    /** Block chain of a sequence in page order (invariant audits). */
    const std::vector<int64_t> &sequenceBlocks(int64_t seq_id) const;

    /** Refcount of physical block @p block, 0 = free (invariant
     * audits: chain refcounts must match COW fork sharing). */
    int
    blockRefCount(int64_t block) const
    {
        return allocator_.refCount(block);
    }

    /** Blocks physically allocated (shared blocks counted once). */
    int64_t
    physicalBlocksInUse() const
    {
        return allocator_.usedBlocks();
    }

    /** Sum of per-sequence block chain lengths (shared blocks counted
     * once per sequence) — the footprint without sharing. */
    int64_t logicalBlocksInUse() const;

    /** Releases all blocks of a sequence. */
    void removeSequence(int64_t seq_id);

    /** Tokens currently cached for a sequence. */
    int64_t sequenceTokens(int64_t seq_id) const;

    int64_t numSequences() const
    {
        return static_cast<int64_t>(sequences_.size());
    }

    /** True when this cache was built with enable_prefix_cache. */
    bool prefixCacheEnabled() const
    {
        return prefix_ != nullptr;
    }

    /** Pages currently held by the prefix index (0 when off). */
    int64_t prefixOwnedBlocks() const
    {
        return prefix_ ? prefix_->ownedBlocks() : 0;
    }

    /** Block ids held by the prefix index, ascending (chaos audits:
     * each carries one refcount beyond its chain memberships). */
    std::vector<int64_t> prefixHeldBlocks() const
    {
        return prefix_ ? prefix_->heldBlocks() : std::vector<int64_t>{};
    }

    /** Lifetime prefix-cache accounting (zeros when off). */
    prefix::PrefixCacheStats prefixStats() const
    {
        return prefix_ ? prefix_->stats() : prefix::PrefixCacheStats{};
    }

    /** Drops every cached prefix page (no-op when off). Live
     * sequences are unaffected — they hold their own references. */
    void clearPrefixCache()
    {
        if (prefix_)
            prefix_->clear();
    }

  private:
    struct SequenceState {
        int64_t tokens = 0;
        std::vector<int64_t> blocks;
    };

    /** allocate(), evicting cold prefix-cache pages on exhaustion. */
    Result<int64_t> allocateEvicting();

    LlmConfig model_;
    KvCacheConfig config_;
    double block_bytes_;
    BlockAllocator allocator_;
    std::map<int64_t, SequenceState> sequences_;
    std::unique_ptr<prefix::PrefixCache> prefix_;
};

} // namespace comet
