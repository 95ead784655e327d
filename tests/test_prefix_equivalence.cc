/**
 * @file
 * Cache-equivalence suite for the prefix cache: the cache must be a
 * pure optimization. With it on, every request produces token-for-
 * token the same stream as with it off — across seeds, under
 * watermark-driven eviction, across thread counts, and never across
 * tenant namespaces.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comet/common/rng.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/model/llm_config.h"
#include "comet/obs/metrics.h"
#include "comet/prefix/block_key.h"
#include "comet/quant/kv_quant.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {
namespace {

KvCacheConfig
kv4Config(bool prefix, double budget_blocks = 256.0)
{
    KvCacheConfig config;
    config.bits_per_value = 4.0;
    config.block_tokens = 16;
    config.enable_prefix_cache = prefix;
    // Express the budget in blocks for readability.
    PagedKvCache probe(LlmConfig::llama3_8b(), [] {
        KvCacheConfig c;
        c.bits_per_value = 4.0;
        c.block_tokens = 16;
        c.memory_budget_bytes = 64e6;
        return c;
    }());
    config.memory_budget_bytes = probe.blockBytes() * budget_blocks;
    return config;
}

std::vector<int32_t>
promptFromSeed(uint64_t seed, int64_t tokens)
{
    Rng rng(seed);
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(tokens));
    for (int64_t i = 0; i < tokens; ++i) {
        ids.push_back(static_cast<int32_t>(rng.uniformInt(32000)));
    }
    return ids;
}

/** A seeded multi-tenant workload over shared prompt pools: per
 * request, a pool prompt (seed = pool id) optionally extended by a
 * unique suffix, so shared prefixes arise exactly as in real chat
 * traffic (same system prompt, divergent turns). */
std::vector<Request>
sharedPromptWorkload(uint64_t seed, int64_t count, bool with_keys)
{
    Rng rng(seed);
    std::vector<Request> requests;
    for (int64_t i = 0; i < count; ++i) {
        const uint64_t pool = rng.uniformInt(3);
        const int64_t shared_tokens = 64 + 16 * pool;
        const int64_t suffix_tokens = rng.uniformInt(24);
        auto prompt = promptFromSeed(pool, shared_tokens);
        const auto suffix =
            promptFromSeed(seed * 1000 + static_cast<uint64_t>(i) + 1,
                           suffix_tokens);
        prompt.insert(prompt.end(), suffix.begin(), suffix.end());

        Request request;
        request.id = i;
        request.prompt_tokens = static_cast<int64_t>(prompt.size());
        request.max_output_tokens = 4 + rng.uniformInt(12);
        if (with_keys) {
            prefix::KeySpace space;
            space.namespace_id = 0;
            space.bits_per_value = 4.0;
            space.block_tokens = 16;
            request.prefix_namespace = 0;
            request.prefix_block_keys = chainBlockKeys(space, prompt);
        }
        requests.push_back(request);
    }
    return requests;
}

/** Runs the workload to completion, recording the per-step token
 * stream of every request (the observable output) plus accounting. */
struct RunResult {
    /** request id -> generated-token count after every step it was
     * alive in; token-for-token identity = equality of these. */
    std::vector<std::string> streams;
    int64_t prefill_tokens_computed = 0;
    int64_t prefix_matched_tokens = 0;
    SchedulerCounters counters;
};

RunResult
runWorkload(const std::vector<Request> &requests, bool prefix_on,
            int64_t watermark = 0, double budget_blocks = 256.0)
{
    PagedKvCache cache(LlmConfig::llama3_8b(),
                       kv4Config(prefix_on, budget_blocks));
    BatchSchedulerConfig config;
    config.max_batch = 8;
    config.watermark_blocks = watermark;
    BatchScheduler scheduler(&cache, config);

    RunResult result;
    result.streams.resize(requests.size());
    size_t next = 0;
    int64_t steps = 0;
    while (next < requests.size() || !scheduler.idle()) {
        // Two submissions per step keeps admission waves overlapping.
        for (int i = 0; i < 2 && next < requests.size(); ++i) {
            scheduler.submit(requests[next++]);
        }
        const int64_t admitted = scheduler.admit();
        (void)admitted;
        for (const Request &request : scheduler.running()) {
            if (request.generated_tokens == 0) {
                // Freshly admitted: charge the prefill honestly —
                // grafted tokens are not computed.
                result.prefill_tokens_computed +=
                    request.contextTokens() -
                    request.prefix_matched_tokens;
            }
        }
        scheduler.step();
        for (const Request &request : scheduler.running()) {
            result.streams[static_cast<size_t>(request.id)] +=
                std::to_string(request.generated_tokens) + ",";
        }
        for (const Request &request : scheduler.drainRetired()) {
            std::string &stream =
                result.streams[static_cast<size_t>(request.id)];
            // Appended piece by piece: GCC 12 -O3 flags
            // `"@" + std::to_string(...)` with a false -Wrestrict.
            stream += requestStateName(request.state);
            stream += '@';
            stream += std::to_string(request.generated_tokens);
        }
        if (++steps >= 100000) {
            ADD_FAILURE() << "workload did not converge";
            break;
        }
    }
    result.prefix_matched_tokens =
        scheduler.counters().prefix_matched_tokens;
    result.counters = scheduler.counters();
    return result;
}

// Void wrapper: ASSERT_* needs a void-returning context.
void
runWorkloadInto(const std::vector<Request> &requests, bool prefix_on,
                RunResult *out, int64_t watermark = 0,
                double budget_blocks = 256.0)
{
    *out = runWorkload(requests, prefix_on, watermark, budget_blocks);
}

TEST(PrefixEquivalenceTest, IdenticalStreamsAcrossSeeds)
{
    for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
        const auto keyed = sharedPromptWorkload(seed, 40, true);
        const auto plain = sharedPromptWorkload(seed, 40, false);
        RunResult on, off;
        runWorkloadInto(keyed, true, &on);
        runWorkloadInto(plain, false, &off);
        // Token-for-token identical observable output...
        EXPECT_EQ(on.streams, off.streams) << "seed " << seed;
        // ...while prefill computed measurably fewer tokens.
        EXPECT_GT(on.prefix_matched_tokens, 0) << "seed " << seed;
        EXPECT_EQ(on.prefill_tokens_computed + on.prefix_matched_tokens,
                  off.prefill_tokens_computed)
            << "seed " << seed;
    }
}

TEST(PrefixEquivalenceTest, CacheOnRunIsDeterministic)
{
    const auto requests = sharedPromptWorkload(9, 40, true);
    RunResult a, b;
    runWorkloadInto(requests, true, &a);
    runWorkloadInto(requests, true, &b);
    EXPECT_EQ(a.streams, b.streams);
    EXPECT_EQ(a.prefix_matched_tokens, b.prefix_matched_tokens);
    EXPECT_EQ(a.prefill_tokens_computed, b.prefill_tokens_computed);
}

TEST(PrefixEquivalenceTest, EvictionUnderWatermarkKeepsStreamsIdentical)
{
    // A pool small enough that cached prefixes must be evicted to
    // admit live traffic, plus a nonzero watermark: the cache yields
    // memory under pressure and outputs still match cache-off.
    for (uint64_t seed : {3u, 11u}) {
        const auto keyed = sharedPromptWorkload(seed, 48, true);
        const auto plain = sharedPromptWorkload(seed, 48, false);
        RunResult on, off;
        runWorkloadInto(keyed, true, &on, /*watermark=*/4,
                        /*budget_blocks=*/48.0);
        runWorkloadInto(plain, false, &off, /*watermark=*/4,
                        /*budget_blocks=*/48.0);
        EXPECT_EQ(on.streams, off.streams) << "seed " << seed;
    }
}

TEST(PrefixEquivalenceTest, EvictionReclaimsCachedBlocksUnderPressure)
{
    PagedKvCache cache(LlmConfig::llama3_8b(), kv4Config(true, 32.0));
    prefix::KeySpace space;
    space.bits_per_value = 4.0;
    const auto prompt = promptFromSeed(1, 16 * 20);
    const auto keys = chainBlockKeys(space, prompt);
    ASSERT_TRUE(cache
                    .addSequenceWithPrefix(1, 16 * 20, 0, keys)
                    .isOk());
    cache.removeSequence(1);
    // The sequence is gone but its full blocks stay cached...
    EXPECT_EQ(cache.prefixOwnedBlocks(), 20);
    EXPECT_LT(cache.freeBlocks(), 32);
    EXPECT_EQ(cache.availableBlocks(), 32);
    // ...and a prompt needing the whole pool still admits: the cache
    // evicts itself rather than block live traffic.
    ASSERT_TRUE(cache.addSequence(2, 16 * 30).isOk());
    EXPECT_EQ(cache.prefixOwnedBlocks(), 32 - 30);
}

TEST(PrefixEquivalenceTest, NoHitsAcrossTenantNamespaces)
{
    PagedKvCache cache(LlmConfig::llama3_8b(), kv4Config(true));
    const auto prompt = promptFromSeed(5, 128);
    prefix::KeySpace tenant_a;
    tenant_a.bits_per_value = 4.0;
    tenant_a.namespace_id = 0;
    prefix::KeySpace tenant_b = tenant_a;
    tenant_b.namespace_id = 1;

    // Tenant A warms the cache with the shared prompt.
    auto first = cache.addSequenceWithPrefix(
        1, 128, 0, chainBlockKeys(tenant_a, prompt));
    ASSERT_TRUE(first.isOk());
    EXPECT_EQ(first.value(), 0); // cold cache
    EXPECT_GT(cache.prefixOwnedBlocks(), 0);

    // Tenant B, same prompt content, different namespace: zero hit —
    // the key chains are disjoint, so there is not even a shared
    // index path whose timing could leak A's working set.
    auto cross = cache.addSequenceWithPrefix(
        2, 128, 1, chainBlockKeys(tenant_b, prompt));
    ASSERT_TRUE(cross.isOk());
    EXPECT_EQ(cross.value(), 0);
    EXPECT_EQ(cache.prefixStats().hits, 0);

    // Tenant A again: full-hit (minus the final recompute block).
    auto warm = cache.addSequenceWithPrefix(
        3, 128, 0, chainBlockKeys(tenant_a, prompt));
    ASSERT_TRUE(warm.isOk());
    EXPECT_EQ(warm.value(), 128 - 16);
}

// ---- End-to-end: the online server over a shared-prompt workload ----

server::LoadgenConfig
sharedPoolLoadgen(uint64_t seed, bool opt_in)
{
    server::LoadgenConfig workload;
    workload.seed = seed;
    workload.clients = 4;
    server::LoadgenTenant tenant;
    tenant.admission.name = "a";
    tenant.admission.prefix_caching = opt_in;
    tenant.arrival_rate_per_s = 100.0;
    tenant.requests = 24;
    tenant.prompt_min = 64;
    tenant.prompt_max = 128;
    tenant.output_min = 2;
    tenant.output_max = 12;
    tenant.shared_prompt_pools = 2;
    server::LoadgenTenant other = tenant;
    other.admission.name = "b";
    workload.tenants = {tenant, other};
    return workload;
}

/** One full loadgen session against a fresh server. */
server::LoadgenReport
runServerWorkload(const server::LoadgenConfig &workload,
                  bool prefix_on, server::ServerStats *stats)
{
    obs::MetricsRegistry::global().reset();
    EngineConfig engine_config;
    engine_config.model = LlmConfig::llama3_8b();
    engine_config.mode = ServingMode::kCometW4AxKv4;
    engine_config.input_tokens = 128;
    engine_config.output_tokens = 32;
    const ServingEngine engine(
        engineConfigWithKvBlocks(engine_config, 1024));
    server::ServerConfig config;
    config.tenants = server::loadgenTenants(workload);
    config.max_batch = 8;
    config.enable_prefix_cache = prefix_on;
    server::Server server(&engine, config);
    const server::LoadgenReport report =
        server::runLoadgen(&server, workload);
    *stats = server.stats();
    server.stop();
    return report;
}

TEST(PrefixEquivalenceTest, ServerStreamsMatchWithCacheOnAndOff)
{
    const server::LoadgenConfig workload = sharedPoolLoadgen(21, true);
    server::ServerStats on_stats, off_stats;
    const server::LoadgenReport on =
        runServerWorkload(workload, true, &on_stats);
    const server::LoadgenReport off =
        runServerWorkload(workload, false, &off_stats);

    // The cache genuinely worked end to end...
    EXPECT_GT(on_stats.prefix_hits, 0);
    EXPECT_GT(on_stats.prefix_matched_tokens, 0);
    EXPECT_GT(on_stats.prefix_bytes_saved, 0);
    EXPECT_EQ(off_stats.prefix_hits, 0);
    // ...and every request's observable output is unchanged by it:
    // same terminal, token for token.
    ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
    for (size_t i = 0; i < on.outcomes.size(); ++i) {
        EXPECT_EQ(on.outcomes[i].terminal, off.outcomes[i].terminal)
            << "request " << i;
        EXPECT_EQ(on.outcomes[i].tokens, off.outcomes[i].tokens)
            << "request " << i;
    }
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.tokens, off.tokens);
}

TEST(PrefixEquivalenceTest, ServerPrefixRunsBitIdenticalAcrossThreads)
{
    const server::LoadgenConfig workload = sharedPoolLoadgen(22, true);
    server::ServerStats serial_stats, pooled_stats;
    ThreadPool::setGlobalThreads(1);
    const server::LoadgenReport serial =
        runServerWorkload(workload, true, &serial_stats);
    ThreadPool::setGlobalThreads(4);
    const server::LoadgenReport pooled =
        runServerWorkload(workload, true, &pooled_stats);
    ThreadPool::setGlobalThreads(0);

    EXPECT_GT(serial_stats.prefix_matched_tokens, 0);
    EXPECT_EQ(serial_stats.prefix_hits, pooled_stats.prefix_hits);
    EXPECT_EQ(serial_stats.prefix_matched_tokens,
              pooled_stats.prefix_matched_tokens);
    EXPECT_EQ(serial_stats.prefix_blocks_evicted,
              pooled_stats.prefix_blocks_evicted);
    // Full report identity, timings included.
    EXPECT_EQ(server::renderLoadgenReport(serial),
              server::renderLoadgenReport(pooled));
    ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
    for (size_t i = 0; i < serial.outcomes.size(); ++i) {
        EXPECT_EQ(serial.outcomes[i].tokens,
                  pooled.outcomes[i].tokens);
        EXPECT_EQ(serial.outcomes[i].first_token_us,
                  pooled.outcomes[i].first_token_us);
        EXPECT_EQ(serial.outcomes[i].last_token_us,
                  pooled.outcomes[i].last_token_us);
    }
}

TEST(PrefixEquivalenceTest, OptedOutTenantsNeverTouchTheCache)
{
    // Server cache on, prompts carried — but no tenant opted in:
    // the cache must see zero traffic (opt-in regression guard).
    const server::LoadgenConfig workload =
        sharedPoolLoadgen(23, false);
    server::ServerStats stats;
    runServerWorkload(workload, true, &stats);
    EXPECT_EQ(stats.prefix_hits, 0);
    EXPECT_EQ(stats.prefix_misses, 0);
    EXPECT_EQ(stats.prefix_matched_tokens, 0);
}

TEST(PrefixEquivalenceTest, QuantizerIsDeterministicPerContent)
{
    // The keying-by-content argument rests on the KV quantizer being
    // a pure function of the token group: same values in, bit-same
    // quantized page out. Pin that here, next to the cache that
    // depends on it.
    Tensor kv(64, 8);
    Rng rng(77);
    for (int64_t i = 0; i < kv.numel(); ++i) {
        kv.data()[i] = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;
    }
    KvCacheQuantizer quantizer;
    const QuantizedKv a = quantizer.quantize(kv);
    const QuantizedKv b = quantizer.quantize(kv);
    ASSERT_EQ(a.data.rows(), b.data.rows());
    ASSERT_EQ(a.data.cols(), b.data.cols());
    for (int64_t i = 0; i < a.data.rows() * a.data.cols(); ++i) {
        ASSERT_EQ(a.data.data()[i], b.data.data()[i]) << "byte " << i;
    }
    ASSERT_EQ(a.params.size(), b.params.size());
    for (size_t i = 0; i < a.params.size(); ++i) {
        EXPECT_EQ(a.params[i].scale, b.params[i].scale) << i;
        EXPECT_EQ(a.params[i].zero_point, b.params[i].zero_point) << i;
    }
}

} // namespace
} // namespace comet
