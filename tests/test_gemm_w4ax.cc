/**
 * @file
 * Unit and integration tests for the COMET-W4Ax mixed-precision GEMM:
 * bit-exact agreement with the dequantized reference, the ablation
 * path, the execution statistics, and bit identity (outputs and
 * statistics) with the tile-walk oracle in w4ax_tile_walk.h.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "comet/common/rng.h"
#include "comet/kernel/gemm_ref.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/model/synthetic.h"
#include "comet/runtime/thread_pool.h"
#include "w4ax_tile_walk.h"

namespace comet {
namespace {

struct W4AxFixture {
    FmpqActivationQuantizer quantizer;
    MixedQuantizedActivation activation;
    BlockQuantizedWeight weight;
    Tensor x;
    Tensor w;
};

W4AxFixture
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

    Tensor x = model.sample(tokens, rng);
    Tensor w = sampleWeights(out_features, channels, rng);
    auto activation = quantizer.quantize(x);
    auto weight = quantizer.quantizeWeight(w);
    return {std::move(quantizer), std::move(activation),
            std::move(weight), std::move(x), std::move(w)};
}

TEST(W4AxGemm, MatchesDequantizedReference)
{
    W4AxFixture s = makeFixture(8, 16, 128, 32, 1);
    W4AxGemmConfig config;
    config.tile_m = 4;
    config.tile_n = 8;
    config.tile_k = 32;
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    const Tensor out = gemm.run(s.activation);
    const Tensor reference =
        gemmW4AxReference(s.activation, s.weight);
    EXPECT_LT(relativeError(reference, out), 1e-5);
}

TEST(W4AxGemm, MixedBlocksActuallyPresent)
{
    W4AxFixture s = makeFixture(8, 16, 128, 32, 2);
    int int4 = 0, int8 = 0;
    for (BlockPrecision p : s.quantizer.blockPrecisions())
        (p == BlockPrecision::kInt4 ? int4 : int8) += 1;
    ASSERT_GT(int4, 0) << "fixture must exercise the W4A4 path";
    ASSERT_GT(int8, 0) << "fixture must exercise the W4A8 path";
}

TEST(W4AxGemm, ApproximatesFloatGemm)
{
    W4AxFixture s = makeFixture(16, 24, 128, 32, 3);
    W4AxGemmConfig config;
    config.tile_m = 16;
    config.tile_n = 16;
    config.tile_k = 32;
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    const Tensor out = gemm.run(s.activation);
    const Tensor reference = gemmFloat(s.x, s.w);
    // End-to-end quantization error, not emulation error.
    EXPECT_LT(relativeError(reference, out), 0.25);
}

TEST(W4AxGemm, NaiveConversionIsNumericallyIdentical)
{
    W4AxFixture s = makeFixture(8, 16, 128, 32, 4);
    W4AxGemmConfig fast;
    fast.tile_m = 8;
    fast.tile_n = 8;
    fast.tile_k = 32;
    W4AxGemmConfig naive = fast;
    naive.use_fast_conversion = false;

    const W4AxGemm gemm_fast(s.weight, s.quantizer.blockPrecisions(),
                             fast);
    const W4AxGemm gemm_naive(s.weight, s.quantizer.blockPrecisions(),
                              naive);
    const Tensor out_fast = gemm_fast.run(s.activation);
    const Tensor out_naive = gemm_naive.run(s.activation);
    EXPECT_LT(maxAbsError(out_fast, out_naive), 1e-4);
}

TEST(W4AxGemm, StatsCountTilesAndInstructions)
{
    W4AxFixture s = makeFixture(8, 16, 128, 32, 5);
    W4AxGemmConfig config;
    config.tile_m = 8;
    config.tile_n = 8;
    config.tile_k = 32;
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    W4AxGemmStats stats;
    gemm.run(s.activation, &stats);

    int int8_blocks = 0;
    for (BlockPrecision p : s.quantizer.blockPrecisions())
        int8_blocks += p == BlockPrecision::kInt8 ? 1 : 0;
    const int64_t mn_tiles = (8 / 8) * (16 / 8);
    EXPECT_EQ(stats.int8_tiles, mn_tiles * int8_blocks);
    EXPECT_EQ(stats.int4_tiles,
              mn_tiles * (4 - int8_blocks));
    EXPECT_GT(stats.conversion_instructions, 0);
    EXPECT_EQ(stats.int4_mac_ops + stats.int8_mac_ops,
              8LL * 16 * 128);
}

TEST(W4AxGemm, FastConversionUsesFarFewerInstructions)
{
    W4AxFixture s = makeFixture(8, 16, 128, 32, 6);
    W4AxGemmConfig fast;
    fast.tile_m = 8;
    fast.tile_n = 8;
    fast.tile_k = 32;
    W4AxGemmConfig naive = fast;
    naive.use_fast_conversion = false;

    W4AxGemmStats fast_stats, naive_stats;
    W4AxGemm(s.weight, s.quantizer.blockPrecisions(), fast)
        .run(s.activation, &fast_stats);
    W4AxGemm(s.weight, s.quantizer.blockPrecisions(), naive)
        .run(s.activation, &naive_stats);
    EXPECT_GT(naive_stats.conversion_instructions,
              5 * fast_stats.conversion_instructions);
}

TEST(W4AxGemm, PartialEdgeTiles)
{
    // M not a multiple of tile_m exercises the edge-tile handling.
    W4AxFixture s = makeFixture(5, 12, 64, 32, 7);
    W4AxGemmConfig config;
    config.tile_m = 4;
    config.tile_n = 8;
    config.tile_k = 32;
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    const Tensor out = gemm.run(s.activation);
    const Tensor reference =
        gemmW4AxReference(s.activation, s.weight);
    EXPECT_LT(relativeError(reference, out), 1e-5);
}

TEST(W4AxGemm, RaggedNEdgeUnderMultiThreadPartitioning)
{
    // N not a multiple of tile_n (44 over 16-wide tiles) with the
    // n-dimension partitioned across threads: the final partition
    // must clamp to n_dim on both ends of its tile range.
    W4AxFixture s = makeFixture(6, 44, 64, 32, 10);
    W4AxGemmConfig threaded;
    threaded.tile_m = 4;
    threaded.tile_n = 16;
    threaded.tile_k = 32;
    threaded.threads = 4;
    const Tensor out =
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), threaded)
            .run(s.activation);
    const Tensor reference =
        gemmW4AxReference(s.activation, s.weight);
    EXPECT_LT(relativeError(reference, out), 1e-5);

    W4AxGemmConfig sequential = threaded;
    sequential.threads = 1;
    const Tensor seq_out =
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), sequential)
            .run(s.activation);
    EXPECT_EQ(maxAbsError(seq_out, out), 0.0)
        << "threaded ragged-edge output must match sequential "
           "bit-for-bit";
}

TEST(W4AxGemmDeathTest, MismatchedPrecisionMapRejected)
{
    W4AxFixture s = makeFixture(4, 8, 64, 32, 8);
    std::vector<BlockPrecision> wrong(1, BlockPrecision::kInt4);
    EXPECT_DEATH(W4AxGemm(s.weight, wrong), "one entry per k block");
}

TEST(W4AxGemmDeathTest, TileKMustDivideBlock)
{
    W4AxFixture s = makeFixture(4, 8, 64, 32, 9);
    W4AxGemmConfig config;
    config.tile_k = 48;
    EXPECT_DEATH(
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), config),
        "tile_k");
}

/** Property sweep across GEMM extents: the packed kernel always
 * matches its dequantized reference. */
struct SweepParam {
    int64_t tokens;
    int64_t out_features;
    int64_t channels;
};

class W4AxShapeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(W4AxShapeSweep, BitExactAgainstReference)
{
    const SweepParam param = GetParam();
    W4AxFixture s = makeFixture(param.tokens, param.out_features,
                        param.channels, 32,
                        static_cast<uint64_t>(param.tokens * 131 +
                                              param.channels));
    W4AxGemmConfig config;
    config.tile_m = 8;
    config.tile_n = 8;
    config.tile_k = 32;
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    const Tensor out = gemm.run(s.activation);
    const Tensor reference =
        gemmW4AxReference(s.activation, s.weight);
    EXPECT_LT(relativeError(reference, out), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, W4AxShapeSweep,
    ::testing::Values(SweepParam{1, 8, 64}, SweepParam{3, 24, 96},
                      SweepParam{16, 16, 128}, SweepParam{9, 17, 160},
                      SweepParam{32, 8, 256}));

TEST(W4AxGemm, MultithreadedRunIsBitIdentical)
{
    W4AxFixture s = makeFixture(16, 40, 128, 32, 10);
    W4AxGemmConfig serial;
    serial.tile_m = 8;
    serial.tile_n = 8;
    serial.tile_k = 32;
    W4AxGemmConfig parallel = serial;
    parallel.threads = 4;

    W4AxGemmStats serial_stats, parallel_stats;
    const Tensor a = W4AxGemm(s.weight, s.quantizer.blockPrecisions(),
                              serial)
                         .run(s.activation, &serial_stats);
    const Tensor b = W4AxGemm(s.weight, s.quantizer.blockPrecisions(),
                              parallel)
                         .run(s.activation, &parallel_stats);
    EXPECT_DOUBLE_EQ(maxAbsError(a, b), 0.0);
    EXPECT_EQ(serial_stats.int4_tiles, parallel_stats.int4_tiles);
    EXPECT_EQ(serial_stats.int8_tiles, parallel_stats.int8_tiles);
    EXPECT_EQ(serial_stats.int4_mac_ops, parallel_stats.int4_mac_ops);
    EXPECT_EQ(serial_stats.conversion_instructions,
              parallel_stats.conversion_instructions);
}

TEST(W4AxGemm, MoreThreadsThanTilesStillCorrect)
{
    W4AxFixture s = makeFixture(4, 8, 64, 32, 11);
    W4AxGemmConfig config;
    config.tile_m = 4;
    config.tile_n = 8;
    config.tile_k = 32;
    config.threads = 16; // only 1 n-tile exists
    const W4AxGemm gemm(s.weight, s.quantizer.blockPrecisions(),
                        config);
    const Tensor out = gemm.run(s.activation);
    EXPECT_LT(relativeError(gemmW4AxReference(s.activation, s.weight),
                            out),
              1e-5);
}

/** Fuzz: arbitrary (non-calibrated) permutations and precision maps
 * through fromParts must still produce a packed GEMM that matches its
 * dequantized reference bit-for-bit. */
class W4AxFuzz : public ::testing::TestWithParam<int> {};

TEST_P(W4AxFuzz, RandomLayoutsStayExact)
{
    const auto seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 7919 + 13);
    const int64_t channels = 64 * (1 + static_cast<int64_t>(
                                           rng.uniformInt(3)));
    const int64_t block = 32;
    const int64_t tokens = 1 + static_cast<int64_t>(rng.uniformInt(20));
    const int64_t out_features =
        8 + static_cast<int64_t>(rng.uniformInt(24));

    // Random bijection + random precisions.
    std::vector<int64_t> order(static_cast<size_t>(channels));
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int64_t>(i);
    rng.shuffle(order);
    std::vector<BlockPrecision> precisions;
    for (int64_t b = 0; b < channels / block; ++b) {
        precisions.push_back(rng.uniform() < 0.5
                                 ? BlockPrecision::kInt4
                                 : BlockPrecision::kInt8);
    }
    FmpqConfig config;
    config.block_size = block;
    auto quantizer = FmpqActivationQuantizer::fromParts(
        config, ChannelPermutation(std::move(order)),
        std::move(precisions));

    Tensor x(tokens, channels);
    Tensor w(out_features, channels);
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0, 3));
    for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.gaussian(0, 0.2));

    const auto qa = quantizer.quantize(x);
    const auto qw = quantizer.quantizeWeight(w);
    W4AxGemmConfig kernel_config;
    kernel_config.tile_m = 8;
    kernel_config.tile_n = 16;
    kernel_config.tile_k = 32;
    kernel_config.threads = 1 + static_cast<int>(seed % 3);
    const W4AxGemm gemm(qw, quantizer.blockPrecisions(),
                        kernel_config);
    EXPECT_LT(relativeError(gemmW4AxReference(qa, qw),
                            gemm.run(qa)),
              1e-5)
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, W4AxFuzz, ::testing::Range(0, 10));

/** Every field of two statistics blocks agrees. */
void
expectSameStats(const W4AxGemmStats &a, const W4AxGemmStats &b)
{
    EXPECT_EQ(a.int4_tiles, b.int4_tiles);
    EXPECT_EQ(a.int8_tiles, b.int8_tiles);
    EXPECT_EQ(a.conversion_instructions, b.conversion_instructions);
    EXPECT_EQ(a.int4_mac_ops, b.int4_mac_ops);
    EXPECT_EQ(a.int8_mac_ops, b.int8_mac_ops);
}

/** The two tensors hold the same bytes. */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

/** Differential: the column-blocked kernel against the tile walk over
 * random extents, block sizes, tile shapes (ragged m and n edges
 * included), precision maps, thread counts and both conversions. */
class W4AxTileWalkDifferential : public ::testing::TestWithParam<int> {};

TEST_P(W4AxTileWalkDifferential, BitIdenticalOutputsAndStats)
{
    const auto seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 104729 + 7);
    const int64_t tiles[] = {8, 16, 32, 128};
    const auto pick = [&](auto &values) {
        return values[rng.uniformInt(std::size(values))];
    };
    const int64_t blocks[] = {16, 32, 64, 128};
    const int64_t block = pick(blocks);
    // tile_k must divide the block and be a multiple of the 16-value
    // interleave unit (tile_k = 8 is rejected at construction).
    std::vector<int64_t> tile_ks;
    for (int64_t tk : {16, 32, 128})
        if (block % tk == 0)
            tile_ks.push_back(tk);
    const int64_t channels =
        block * (1 + static_cast<int64_t>(rng.uniformInt(512 / block)));
    const int64_t tokens = 1 + static_cast<int64_t>(rng.uniformInt(40));
    const int64_t out_features =
        1 + static_cast<int64_t>(rng.uniformInt(80));

    std::vector<int64_t> order(static_cast<size_t>(channels));
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int64_t>(i);
    rng.shuffle(order);
    const double int8_share = rng.uniform();
    std::vector<BlockPrecision> precisions;
    for (int64_t b = 0; b < channels / block; ++b)
        precisions.push_back(rng.uniform() < int8_share
                                 ? BlockPrecision::kInt8
                                 : BlockPrecision::kInt4);
    FmpqConfig fmpq;
    fmpq.block_size = block;
    const auto quantizer = FmpqActivationQuantizer::fromParts(
        fmpq, ChannelPermutation(std::move(order)), precisions);

    Tensor x(tokens, channels);
    Tensor w(out_features, channels);
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0, 3));
    for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.gaussian(0, 0.2));
    const auto qa = quantizer.quantize(x);
    const auto qw = quantizer.quantizeWeight(w);

    W4AxGemmConfig config;
    config.tile_m = pick(tiles);
    config.tile_n = pick(tiles);
    config.tile_k = tile_ks[rng.uniformInt(tile_ks.size())];
    for (const bool fast : {true, false}) {
        config.use_fast_conversion = fast;
        W4AxGemmStats want_stats;
        const Tensor want =
            tileWalkW4Ax(qw, precisions, config, qa, &want_stats);
        for (const int threads : {1, 0, 3}) {
            config.threads = threads;
            W4AxGemmStats got_stats;
            const Tensor got =
                W4AxGemm(qw, precisions, config).run(qa, &got_stats);
            EXPECT_TRUE(sameBits(want, got))
                << "seed " << seed << " fast " << fast << " threads "
                << threads;
            expectSameStats(want_stats, got_stats);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, W4AxTileWalkDifferential,
                         ::testing::Range(0, 40));

/** Differential at the column-blocked kernel's edges: every N from 1
 * to 17 (ragged 8-column blocks, and n-tiles of 4 that split blocks
 * across chunks), M = 1, 3 and 128, k-tiles of one to four 16-value
 * chunks, both conversions and a mixed precision map. */
TEST(W4AxGemm, ColumnBlockEdgesMatchTileWalk)
{
    constexpr int64_t kChannels = 128;
    constexpr int64_t kBlock = 64;
    Rng rng(29);
    std::vector<int64_t> order(kChannels);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int64_t>(i);
    rng.shuffle(order);
    const std::vector<BlockPrecision> precisions = {BlockPrecision::kInt8,
                                                    BlockPrecision::kInt4};
    FmpqConfig fmpq;
    fmpq.block_size = kBlock;
    const auto quantizer = FmpqActivationQuantizer::fromParts(
        fmpq, ChannelPermutation(std::move(order)), precisions);
    for (const int64_t tokens : {1, 3, 128}) {
        Tensor x(tokens, kChannels);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(rng.gaussian(0, 3));
        const auto qa = quantizer.quantize(x);
        for (int64_t n = 1; n <= 17; ++n) {
            Tensor w(n, kChannels);
            for (int64_t i = 0; i < w.numel(); ++i)
                w[i] = static_cast<float>(rng.gaussian(0, 0.2));
            const auto qw = quantizer.quantizeWeight(w);
            for (const int64_t tile_k : {16, 32, 64}) {
                for (const bool fast : {true, false}) {
                    for (const int64_t tile_n : {4, 16}) {
                        W4AxGemmConfig config;
                        config.tile_m = 16;
                        config.tile_n = tile_n;
                        config.tile_k = tile_k;
                        config.use_fast_conversion = fast;
                        W4AxGemmStats want_stats;
                        const Tensor want = tileWalkW4Ax(
                            qw, precisions, config, qa, &want_stats);
                        for (const int threads : {1, 3}) {
                            config.threads = threads;
                            W4AxGemmStats got_stats;
                            const Tensor got =
                                W4AxGemm(qw, precisions, config)
                                    .run(qa, &got_stats);
                            EXPECT_TRUE(sameBits(want, got))
                                << "M " << tokens << " N " << n
                                << " tile_k " << tile_k << " fast " << fast
                                << " tile_n " << tile_n << " threads "
                                << threads;
                            expectSameStats(want_stats, got_stats);
                        }
                    }
                }
            }
        }
    }
}

TEST(W4AxGemm, ScratchReuseAcrossRunsMatchesTileWalk)
{
    // run() keeps its row and column-block scratch per thread between
    // runs. One operator runs M = 128, 1, 3 and 128 again, so every run
    // after the first reads scratch a larger or smaller run left, on the
    // caller and from pools of 1 and 4, with n-tiles that split column
    // blocks across chunks (4) and that hold whole blocks (16).
    constexpr int64_t kChannels = 128;
    constexpr int64_t kBlock = 32;
    constexpr int64_t kOut = 20;
    Rng rng(31);
    std::vector<int64_t> order(kChannels);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int64_t>(i);
    rng.shuffle(order);
    const std::vector<BlockPrecision> precisions = {
        BlockPrecision::kInt8, BlockPrecision::kInt4, BlockPrecision::kInt4,
        BlockPrecision::kInt8};
    FmpqConfig fmpq;
    fmpq.block_size = kBlock;
    const auto quantizer = FmpqActivationQuantizer::fromParts(
        fmpq, ChannelPermutation(std::move(order)), precisions);
    Tensor w(kOut, kChannels);
    for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.gaussian(0, 0.2));
    const auto qw = quantizer.quantizeWeight(w);
    std::vector<MixedQuantizedActivation> activations;
    for (const int64_t tokens : {128, 1, 3, 128}) {
        Tensor x(tokens, kChannels);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(rng.gaussian(0, 3));
        activations.push_back(quantizer.quantize(x));
    }

    const int saved_threads = ThreadPool::global().threadCount();
    for (const int pool : {1, 4}) {
        ThreadPool::setGlobalThreads(pool);
        for (const int threads : {1, 4}) {
            for (const int64_t tile_n : {4, 16}) {
                for (const bool fast : {true, false}) {
                    W4AxGemmConfig config;
                    config.tile_m = 16;
                    config.tile_n = tile_n;
                    config.tile_k = 16;
                    config.use_fast_conversion = fast;
                    config.threads = threads;
                    const W4AxGemm gemm(qw, precisions, config);
                    for (const MixedQuantizedActivation &qa : activations) {
                        W4AxGemmStats want_stats, got_stats;
                        const Tensor want = tileWalkW4Ax(qw, precisions, config,
                                                         qa, &want_stats);
                        const Tensor got = gemm.run(qa, &got_stats);
                        EXPECT_TRUE(sameBits(want, got))
                            << "pool " << pool << " threads " << threads
                            << " tile_n " << tile_n << " fast " << fast
                            << " M " << qa.tokens;
                        expectSameStats(want_stats, got_stats);
                    }
                }
            }
        }
    }
    ThreadPool::setGlobalThreads(saved_threads);
}

TEST(W4AxGemm, PoolSizedGemmMatchesTileWalk)
{
    // Large enough (128 x 96 x 256) for an auto-parallel run to fan
    // out across the pool, with ragged 32-wide n-tiles.
    W4AxFixture s = makeFixture(128, 100, 256, 32, 12);
    W4AxGemmConfig config;
    config.tile_m = 16;
    config.tile_n = 32;
    config.tile_k = 16;
    config.threads = 0;
    W4AxGemmStats want_stats, got_stats;
    const Tensor want = tileWalkW4Ax(
        s.weight, s.quantizer.blockPrecisions(), config, s.activation,
        &want_stats);
    const Tensor got =
        W4AxGemm(s.weight, s.quantizer.blockPrecisions(), config)
            .run(s.activation, &got_stats);
    EXPECT_TRUE(sameBits(want, got));
    expectSameStats(want_stats, got_stats);
}

} // namespace
} // namespace comet


