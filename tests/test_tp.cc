/**
 * @file
 * Differential proof layer for comet::tp: every sharded operator must
 * produce *bit-identical* output to its TP=1 counterpart — not merely
 * close. Column/row W4Ax GEMM shards, head-sharded decode attention
 * (float and quantized caches), degree validation, the tp.allreduce
 * retry failpoint, the shard-aware KV-pool accounting, and cluster
 * config validation.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comet/attention/decode_attention.h"
#include "comet/chaos/failpoint.h"
#include "comet/cluster/router.h"
#include "comet/common/rng.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/kvcache/kv_cache.h"
#include "comet/model/llm_config.h"
#include "comet/model/synthetic.h"
#include "comet/obs/metrics.h"
#include "comet/quant/kv_quant.h"
#include "comet/serve/engine.h"
#include "comet/tp/shard.h"

namespace comet {
namespace {

struct TpFixture {
    FmpqActivationQuantizer quantizer;
    MixedQuantizedActivation activation;
    BlockQuantizedWeight weight;
};

TpFixture
makeFixture(int64_t tokens, int64_t out_features, int64_t channels,
            int64_t block_size, uint64_t seed)
{
    Rng rng(seed);
    SyntheticActivationConfig act_config;
    act_config.channels = channels;
    act_config.outlier_fraction = 0.03;
    act_config.outlier_scale = 30.0;
    act_config.seed = seed + 1;
    const SyntheticActivationModel model(act_config);

    FmpqConfig fmpq_config;
    fmpq_config.block_size = block_size;
    const Tensor calib = model.sample(64, rng);
    auto quantizer =
        FmpqActivationQuantizer::calibrate(calib, fmpq_config);
    auto activation = quantizer.quantize(model.sample(tokens, rng));
    auto weight =
        quantizer.quantizeWeight(sampleWeights(out_features, channels, rng));
    return {std::move(quantizer), std::move(activation),
            std::move(weight)};
}

W4AxGemmConfig
smallTiles()
{
    W4AxGemmConfig config;
    config.tile_m = 8;
    config.tile_n = 8;
    config.tile_k = 32;
    return config;
}

/** Bitwise tensor equality — the differential layer's yardstick. */
void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.numel()) *
                              sizeof(float)),
              0);
}

void
expectBitIdentical(const std::vector<float> &a,
                   const std::vector<float> &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(float)),
              0);
}

TEST(ShardedW4AxGemm, ColumnShardsAreBitIdentical)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        TpFixture s = makeFixture(8, 32, 128, 32, seed);
        const W4AxGemm reference(
            s.weight, s.quantizer.blockPrecisions(), smallTiles());
        const Tensor expected = reference.run(s.activation);
        for (int degree : {1, 2, 4, 8}) {
            auto sharded = tp::ShardedW4AxGemm::create(
                s.weight, s.quantizer.blockPrecisions(),
                tp::TpPartition::kColumn, degree, smallTiles());
            ASSERT_TRUE(sharded.isOk()) << sharded.status().message();
            const Tensor out = sharded.value().run(s.activation);
            expectBitIdentical(expected, out);
        }
    }
}

TEST(ShardedW4AxGemm, RowShardsAreBitIdentical)
{
    // The hard case: row-parallel partial sums re-associate float
    // additions unless the all-reduce folds per-k-tile contributions
    // in the TP=1 order — which is exactly what the implementation
    // does, so equality is bitwise, not approximate.
    for (uint64_t seed : {1u, 5u, 9u}) {
        TpFixture s = makeFixture(8, 16, 256, 32, seed);
        const W4AxGemm reference(
            s.weight, s.quantizer.blockPrecisions(), smallTiles());
        const Tensor expected = reference.run(s.activation);
        for (int degree : {1, 2, 4, 8}) {
            auto sharded = tp::ShardedW4AxGemm::create(
                s.weight, s.quantizer.blockPrecisions(),
                tp::TpPartition::kRow, degree, smallTiles());
            ASSERT_TRUE(sharded.isOk()) << sharded.status().message();
            const Tensor out = sharded.value().run(s.activation);
            expectBitIdentical(expected, out);
        }
    }
}

TEST(ShardedW4AxGemm, BitIdenticalAcrossTallBatchesAndNaiveConversion)
{
    // m spans multiple m-tiles; fast and naive W4A8 conversion paths
    // both shard exactly.
    for (bool fast : {true, false}) {
        W4AxGemmConfig config = smallTiles();
        config.use_fast_conversion = fast;
        TpFixture s = makeFixture(37, 16, 128, 32, 11);
        const W4AxGemm reference(
            s.weight, s.quantizer.blockPrecisions(), config);
        const Tensor expected = reference.run(s.activation);
        for (tp::TpPartition partition :
             {tp::TpPartition::kColumn, tp::TpPartition::kRow}) {
            auto sharded = tp::ShardedW4AxGemm::create(
                s.weight, s.quantizer.blockPrecisions(), partition,
                partition == tp::TpPartition::kColumn ? 4 : 2,
                config);
            ASSERT_TRUE(sharded.isOk()) << sharded.status().message();
            expectBitIdentical(expected,
                               sharded.value().run(s.activation));
        }
    }
}

TEST(ShardedW4AxGemm, StatsMatchTheUnshardedRun)
{
    // 64 out features: every degree-4 shard is a whole number of
    // n-tiles, so tile tallies — not just mac counts — line up.
    TpFixture s = makeFixture(8, 64, 256, 32, 13);
    const W4AxGemm reference(
        s.weight, s.quantizer.blockPrecisions(), smallTiles());
    W4AxGemmStats expected;
    reference.run(s.activation, &expected);
    for (tp::TpPartition partition :
         {tp::TpPartition::kColumn, tp::TpPartition::kRow}) {
        auto sharded = tp::ShardedW4AxGemm::create(
            s.weight, s.quantizer.blockPrecisions(), partition, 4,
            smallTiles());
        ASSERT_TRUE(sharded.isOk()) << sharded.status().message();
        W4AxGemmStats stats;
        sharded.value().run(s.activation, &stats);
        EXPECT_EQ(stats.int4_tiles, expected.int4_tiles);
        EXPECT_EQ(stats.int8_tiles, expected.int8_tiles);
        EXPECT_EQ(stats.int4_mac_ops, expected.int4_mac_ops);
        EXPECT_EQ(stats.int8_mac_ops, expected.int8_mac_ops);
        EXPECT_EQ(stats.conversion_instructions,
                  expected.conversion_instructions);
    }
}

TEST(ShardedW4AxGemm, RejectsGeometryViolations)
{
    TpFixture s = makeFixture(8, 16, 128, 32, 17);
    // 16 out features cannot split 5 ways.
    auto column = tp::ShardedW4AxGemm::create(
        s.weight, s.quantizer.blockPrecisions(),
        tp::TpPartition::kColumn, 5, smallTiles());
    EXPECT_FALSE(column.isOk());
    // 4 FMPQ blocks cannot split 8 ways without crossing a
    // quantization group.
    auto row = tp::ShardedW4AxGemm::create(
        s.weight, s.quantizer.blockPrecisions(),
        tp::TpPartition::kRow, 8, smallTiles());
    EXPECT_FALSE(row.isOk());
    EXPECT_NE(row.status().message().find("quantization"),
              std::string::npos);
    auto degree = tp::ShardedW4AxGemm::create(
        s.weight, s.quantizer.blockPrecisions(),
        tp::TpPartition::kRow, 0, smallTiles());
    EXPECT_FALSE(degree.isOk());
}

TEST(ShardedW4AxGemm, AllReduceFailpointRetriesByteIdentically)
{
    TpFixture s = makeFixture(8, 16, 256, 32, 19);
    auto sharded = tp::ShardedW4AxGemm::create(
        s.weight, s.quantizer.blockPrecisions(),
        tp::TpPartition::kRow, 4, smallTiles());
    ASSERT_TRUE(sharded.isOk());
    const Tensor clean = sharded.value().run(s.activation);

    obs::MetricsRegistry::global().reset();
    chaos::FailPointRegistry &registry = chaos::FailPointRegistry::global();
    registry.disarmAll();
    registry.arm("tp.allreduce", chaos::FailPointSpec::everyNth(1));
    const Tensor faulted = sharded.value().run(s.activation);
    EXPECT_EQ(registry.fireCount("tp.allreduce"), 1);
    registry.disarmAll();
    expectBitIdentical(clean, faulted);
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .counter("tp.allreduce.retries")
                  .value(),
              1);
}

AttentionConfig
gqaConfig()
{
    AttentionConfig config;
    config.num_heads = 8;
    config.num_kv_heads = 4;
    config.head_dim = 16;
    config.chunk_tokens = 32;
    return config;
}

TEST(ShardedDecodeAttention, FloatCacheIsBitIdentical)
{
    const AttentionConfig config = gqaConfig();
    Rng rng(23);
    const int64_t tokens = 96;
    std::vector<float> q(static_cast<size_t>(config.qDim()));
    for (float &v : q)
        v = static_cast<float>(rng.gaussian());
    Tensor k(tokens, config.kvDim());
    Tensor v(tokens, config.kvDim());
    for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t c = 0; c < config.kvDim(); ++c) {
            k.at(t, c) = static_cast<float>(rng.gaussian());
            v.at(t, c) = static_cast<float>(rng.gaussian());
        }
    }
    const std::vector<float> expected =
        decodeAttentionOnline(config, q, k, v);
    for (int degree : {1, 2, 4}) {
        auto sharded =
            tp::ShardedDecodeAttention::create(config, degree);
        ASSERT_TRUE(sharded.isOk()) << sharded.status().message();
        expectBitIdentical(expected, sharded.value().run(q, k, v));
    }
}

TEST(ShardedDecodeAttention, QuantizedCacheIsBitIdentical)
{
    const AttentionConfig config = gqaConfig();
    Rng rng(29);
    const int64_t tokens = 96;
    std::vector<float> q(static_cast<size_t>(config.qDim()));
    for (float &v : q)
        v = static_cast<float>(rng.gaussian());
    Tensor k(tokens, config.kvDim());
    Tensor v(tokens, config.kvDim());
    for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t c = 0; c < config.kvDim(); ++c) {
            k.at(t, c) = static_cast<float>(rng.gaussian());
            v.at(t, c) = static_cast<float>(rng.gaussian());
        }
    }
    const KvCacheQuantizer quantizer;
    const QuantizedKv qk = quantizer.quantize(k);
    const QuantizedKv qv = quantizer.quantize(v);
    const std::vector<float> expected =
        decodeAttentionQuantized(config, q, qk, qv, quantizer);
    for (int degree : {1, 2, 4}) {
        auto sharded =
            tp::ShardedDecodeAttention::create(config, degree);
        ASSERT_TRUE(sharded.isOk()) << sharded.status().message();
        expectBitIdentical(
            expected,
            sharded.value().runQuantized(q, qk, qv, quantizer));
    }
}

TEST(ShardedDecodeAttention, RejectsDegreesCrossingHeadGroups)
{
    // degree 8 would split the 4 KV heads.
    auto sharded = tp::ShardedDecodeAttention::create(gqaConfig(), 8);
    EXPECT_FALSE(sharded.isOk());
    EXPECT_NE(sharded.status().message().find("KV"),
              std::string::npos);
}

TEST(ValidateTpDegree, NamesTheFailingExtent)
{
    const LlmConfig model = LlmConfig::llama3_8b();
    EXPECT_TRUE(tp::validateTpDegree(model, 1).isOk());
    EXPECT_TRUE(tp::validateTpDegree(model, 4).isOk());
    EXPECT_TRUE(tp::validateTpDegree(model, 8).isOk());
    const Status odd = tp::validateTpDegree(model, 3);
    EXPECT_FALSE(odd.isOk());
    EXPECT_NE(odd.message().find("head"), std::string::npos);
    const Status wild = tp::validateTpDegree(model, 16);
    EXPECT_FALSE(wild.isOk()); // 8 KV heads % 16 != 0
    EXPECT_FALSE(tp::validateTpDegree(model, 0).isOk());
    EXPECT_FALSE(tp::validateTpDegree(model, -2).isOk());
}

TEST(ShardRange, CoversTheExtentExactly)
{
    for (int degree : {1, 2, 4, 8}) {
        int64_t covered = 0;
        for (int r = 0; r < degree; ++r) {
            const tp::ShardRange range = tp::shardRange(64, degree, r);
            EXPECT_EQ(range.begin, covered);
            covered = range.end;
            EXPECT_EQ(range.size(), 64 / degree);
        }
        EXPECT_EQ(covered, 64);
    }
}

TEST(KvPoolAccounting, BlockHelperIsShardAware)
{
    // The bug this guards: sizing the requested block count against
    // the per-GPU budget instead of the TP group's pool would hand a
    // TP=N engine N times the asked-for capacity.
    for (int tp : {1, 2, 4, 8}) {
        EngineConfig config;
        config.model = LlmConfig::llama3_8b();
        config.mode = ServingMode::kCometW4AxKv4;
        config.input_tokens = 128;
        config.output_tokens = 32;
        config.tensor_parallel = tp;
        const EngineConfig sized =
            engineConfigWithKvBlocks(config, 256);
        const ServingEngine engine(sized);
        KvCacheConfig cache_config;
        cache_config.bits_per_value =
            servingPrecision(sized.mode).kv_bits;
        cache_config.block_tokens = kKvBlockTokens;
        cache_config.memory_budget_bytes = engine.kvPoolBytes();
        const PagedKvCache cache(sized.model, cache_config);
        EXPECT_EQ(cache.totalBlocks(), 256) << "tp " << tp;
        EXPECT_DOUBLE_EQ(engine.kvPoolBytes(),
                         engine.kvBudgetBytes() *
                             static_cast<double>(tp));
    }
}

TEST(ValidateClusterConfig, RejectsBadReplicaSpecs)
{
    EngineConfig engine_config;
    engine_config.model = LlmConfig::llama3_8b();
    const ServingEngine engine(engine_config);

    cluster::ClusterConfig empty;
    EXPECT_FALSE(cluster::validateClusterConfig(empty).isOk());

    cluster::ClusterConfig missing;
    missing.replicas.push_back({});
    EXPECT_FALSE(cluster::validateClusterConfig(missing).isOk());

    cluster::ClusterConfig odd_tp;
    cluster::ReplicaSpec spec;
    spec.engine = &engine;
    spec.tp_degree = 3; // 8 KV heads % 3 != 0
    odd_tp.replicas.push_back(spec);
    const Status status = cluster::validateClusterConfig(odd_tp);
    EXPECT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("replica 0"), std::string::npos);
    EXPECT_NE(status.message().find("head"), std::string::npos);

    spec.tp_degree = 4;
    spec.kv_blocks = 256;
    cluster::ClusterConfig good;
    good.replicas.push_back(spec);
    EXPECT_TRUE(cluster::validateClusterConfig(good).isOk());
}

} // namespace
} // namespace comet
