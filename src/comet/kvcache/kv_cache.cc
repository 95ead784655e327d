#include "comet/kvcache/kv_cache.h"

#include <algorithm>
#include <cmath>

namespace comet {

namespace {

int64_t
poolBlocks(const LlmConfig &model, const KvCacheConfig &config,
           double block_bytes)
{
    COMET_CHECK(config.memory_budget_bytes > 0.0);
    (void)model;
    const double blocks = config.memory_budget_bytes / block_bytes;
    COMET_CHECK_MSG(blocks >= 1.0,
                    "KV budget smaller than a single block");
    return static_cast<int64_t>(blocks);
}

double
computeBlockBytes(const LlmConfig &model, const KvCacheConfig &config)
{
    // K and V, every layer, kv_heads * head_dim channels, block_tokens
    // tokens, at bits_per_value — plus per-channel-group quantization
    // metadata for sub-byte caches.
    const double values = 2.0 *
                          static_cast<double>(model.num_layers) *
                          static_cast<double>(model.num_kv_heads) *
                          static_cast<double>(model.headDim()) *
                          static_cast<double>(config.block_tokens);
    double bytes = values * config.bits_per_value / 8.0;
    if (config.bits_per_value < 16.0) {
        // One 4-byte (scale, zero) pair per channel per
        // kKvQuantGroupTokens tokens; a block holds
        // block_tokens/kKvQuantGroupTokens of a group per channel.
        constexpr double kQuantMetadataBytes = 4.0;
        const double channels =
            2.0 * static_cast<double>(model.num_layers) *
            static_cast<double>(model.num_kv_heads) *
            static_cast<double>(model.headDim());
        bytes += channels * kQuantMetadataBytes *
                 static_cast<double>(config.block_tokens) /
                 static_cast<double>(kKvQuantGroupTokens);
    }
    return bytes;
}

} // namespace

PagedKvCache::PagedKvCache(const LlmConfig &model, KvCacheConfig config)
    : model_(model), config_(config),
      block_bytes_(computeBlockBytes(model, config)),
      allocator_(poolBlocks(model, config, block_bytes_))
{
    COMET_CHECK(config_.block_tokens > 0);
    if (config_.enable_prefix_cache) {
        prefix_ = std::make_unique<prefix::PrefixCache>(
            &allocator_, static_cast<int64_t>(block_bytes_));
    }
}

int64_t
PagedKvCache::availableBlocks() const
{
    return freeBlocks() + (prefix_ ? prefix_->evictableBlocks() : 0);
}

int64_t
PagedKvCache::blocksForTokens(int64_t tokens) const
{
    return (tokens + config_.block_tokens - 1) / config_.block_tokens;
}

bool
PagedKvCache::canAdmit(int64_t tokens) const
{
    return blocksForTokens(tokens) <= availableBlocks();
}

Result<int64_t>
PagedKvCache::allocateEvicting()
{
    Result<int64_t> block = allocator_.allocate();
    while (!block.isOk() && prefix_ && prefix_->evictOne()) {
        block = allocator_.allocate();
    }
    return block;
}

Status
PagedKvCache::addSequence(int64_t seq_id, int64_t prompt_tokens)
{
    return addSequenceWithPrefix(seq_id, prompt_tokens, 0, {}).status();
}

Result<int64_t>
PagedKvCache::addSequenceWithPrefix(
    int64_t seq_id, int64_t prompt_tokens, int64_t namespace_id,
    const std::vector<prefix::BlockKey> &block_keys)
{
    COMET_CHECK(prompt_tokens > 0);
    if (sequences_.count(seq_id) != 0) {
        return Status::invalidArgument("sequence id already present");
    }
    const int64_t needed = blocksForTokens(prompt_tokens);
    if (needed > availableBlocks()) {
        return Status::resourceExhausted(
            "not enough free KV blocks for the prompt");
    }

    SequenceState state;
    state.tokens = prompt_tokens;
    state.blocks.reserve(static_cast<size_t>(needed));

    // Graft the cached prefix: matched pages join the chain by
    // reference (the COW machinery of forkSequence), never by copy.
    // The match is capped one block short of the chain so prefill
    // always computes at least the final block — the pass that
    // produces the first token's logits stays real, and TTFT
    // accounting stays honest.
    int64_t grafted = 0;
    if (prefix_ && !block_keys.empty()) {
        std::vector<int64_t> hit;
        grafted = prefix_->match(namespace_id, block_keys, needed - 1,
                                 &hit);
        for (int64_t block : hit) {
            allocator_.addRef(block);
            state.blocks.push_back(block);
        }
    }
    for (int64_t i = grafted; i < needed; ++i) {
        Result<int64_t> block = allocateEvicting();
        if (!block.isOk()) {
            // The capacity check above normally guarantees success,
            // but an injected allocator fault (COMET_FAILPOINT
            // "kv.alloc") can still fail mid-chain. Roll back so the
            // failure has no side effects, like the early return.
            for (int64_t held : state.blocks)
                allocator_.release(held);
            return block.status();
        }
        state.blocks.push_back(block.value());
    }

    // Offer the prompt's fully-filled blocks back to the index
    // (decode appends only ever touch past the last full prompt
    // block, so these pages are immutable from here on). Already-
    // indexed keys — including every grafted page — are kept as-is.
    if (prefix_ && !block_keys.empty()) {
        const int64_t full =
            std::min(static_cast<int64_t>(block_keys.size()),
                     prompt_tokens / config_.block_tokens);
        prefix_->insert(
            namespace_id,
            {block_keys.begin(), block_keys.begin() + full},
            {state.blocks.begin(), state.blocks.begin() + full});
    }

    sequences_.emplace(seq_id, std::move(state));
    return grafted * config_.block_tokens;
}

Status
PagedKvCache::appendToken(int64_t seq_id)
{
    const auto it = sequences_.find(seq_id);
    if (it == sequences_.end())
        return Status::invalidArgument("unknown sequence id");
    SequenceState &state = it->second;
    if (blocksForTokens(state.tokens + 1) >
        static_cast<int64_t>(state.blocks.size())) {
        Result<int64_t> block = allocateEvicting();
        if (!block.isOk())
            return block.status();
        state.blocks.push_back(block.value());
    } else if (!state.blocks.empty() &&
               allocator_.refCount(state.blocks.back()) > 1) {
        // Copy-on-write: the trailing block is shared with a fork and
        // is about to be written; give this sequence its own copy.
        Result<int64_t> copy = allocateEvicting();
        if (!copy.isOk())
            return copy.status();
        allocator_.release(state.blocks.back());
        state.blocks.back() = copy.value();
    }
    ++state.tokens;
    return Status::ok();
}

Status
PagedKvCache::forkSequence(int64_t parent_id, int64_t child_id)
{
    const auto parent_it = sequences_.find(parent_id);
    if (parent_it == sequences_.end())
        return Status::invalidArgument("unknown parent sequence");
    if (sequences_.count(child_id) != 0)
        return Status::invalidArgument("child id already present");
    const SequenceState &parent = parent_it->second;
    COMET_CHECK(!parent.blocks.empty());

    // Every block is shared, including a partially filled tail; the
    // first writer into the shared tail pays for the divergence copy
    // (appendToken's copy-on-write branch). Forking therefore never
    // allocates and cannot fail on exhaustion.
    SequenceState child;
    child.tokens = parent.tokens;
    child.blocks.reserve(parent.blocks.size());
    for (int64_t block : parent.blocks) {
        allocator_.addRef(block);
        child.blocks.push_back(block);
    }
    sequences_.emplace(child_id, std::move(child));
    return Status::ok();
}

std::vector<int64_t>
PagedKvCache::sequenceIds() const
{
    std::vector<int64_t> ids;
    ids.reserve(sequences_.size());
    for (const auto &[id, state] : sequences_)
        ids.push_back(id);
    return ids;
}

const std::vector<int64_t> &
PagedKvCache::sequenceBlocks(int64_t seq_id) const
{
    const auto it = sequences_.find(seq_id);
    COMET_CHECK_MSG(it != sequences_.end(), "unknown sequence id");
    return it->second.blocks;
}

int64_t
PagedKvCache::logicalBlocksInUse() const
{
    int64_t total = 0;
    for (const auto &[id, state] : sequences_)
        total += static_cast<int64_t>(state.blocks.size());
    return total;
}

void
PagedKvCache::removeSequence(int64_t seq_id)
{
    const auto it = sequences_.find(seq_id);
    COMET_CHECK_MSG(it != sequences_.end(), "unknown sequence id");
    for (int64_t block : it->second.blocks)
        allocator_.release(block);
    sequences_.erase(it);
}

int64_t
PagedKvCache::sequenceTokens(int64_t seq_id) const
{
    const auto it = sequences_.find(seq_id);
    COMET_CHECK_MSG(it != sequences_.end(), "unknown sequence id");
    return it->second.tokens;
}

} // namespace comet
