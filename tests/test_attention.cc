/**
 * @file
 * Unit and property tests for decode attention: reference vs online
 * softmax equivalence, GQA mapping, and the quantized-cache path.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "comet/attention/decode_attention.h"
#include "comet/common/rng.h"

namespace comet {
namespace {

struct Fixture {
    AttentionConfig config;
    std::vector<float> q;
    Tensor k;
    Tensor v;
};

Fixture
makeFixture(int64_t heads, int64_t kv_heads, int64_t head_dim,
            int64_t tokens, uint64_t seed)
{
    Fixture f;
    f.config.num_heads = heads;
    f.config.num_kv_heads = kv_heads;
    f.config.head_dim = head_dim;
    f.config.chunk_tokens = 16;
    Rng rng(seed);
    f.q.resize(static_cast<size_t>(f.config.qDim()));
    for (auto &x : f.q)
        x = static_cast<float>(rng.gaussian(0, 1));
    f.k = Tensor(tokens, f.config.kvDim());
    f.v = Tensor(tokens, f.config.kvDim());
    for (int64_t i = 0; i < f.k.numel(); ++i) {
        f.k[i] = static_cast<float>(rng.gaussian(0, 1));
        f.v[i] = static_cast<float>(rng.gaussian(0, 1));
    }
    return f;
}

double
maxDiff(const std::vector<float> &a, const std::vector<float> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
    return m;
}

TEST(DecodeAttention, OutputIsConvexCombinationOfValues)
{
    // With all scores equal (q = 0), the output is the mean of the V
    // rows.
    Fixture f = makeFixture(2, 2, 8, 10, 1);
    std::fill(f.q.begin(), f.q.end(), 0.0f);
    const auto out =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    for (int64_t c = 0; c < f.config.kvDim(); ++c) {
        double mean = 0.0;
        for (int64_t t = 0; t < 10; ++t)
            mean += f.v.at(t, c);
        mean /= 10.0;
        EXPECT_NEAR(out[static_cast<size_t>(c)], mean, 1e-5);
    }
}

TEST(DecodeAttention, SingleTokenReturnsItsValue)
{
    Fixture f = makeFixture(2, 2, 8, 1, 2);
    const auto out =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    for (int64_t c = 0; c < f.config.kvDim(); ++c)
        EXPECT_NEAR(out[static_cast<size_t>(c)], f.v.at(0, c), 1e-5);
}

TEST(DecodeAttention, SharpScoresPickTheArgmaxValue)
{
    // Make one key align overwhelmingly with q: the output converges
    // to that token's value.
    Fixture f = makeFixture(1, 1, 8, 6, 3);
    for (int64_t d = 0; d < 8; ++d) {
        f.q[static_cast<size_t>(d)] = 10.0f;
        f.k.at(3, d) = 10.0f; // huge dot product with token 3
    }
    const auto out =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    for (int64_t c = 0; c < 8; ++c)
        EXPECT_NEAR(out[static_cast<size_t>(c)], f.v.at(3, c), 1e-3);
}

TEST(DecodeAttention, OnlineMatchesReference)
{
    Fixture f = makeFixture(4, 2, 16, 100, 4);
    const auto reference =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    const auto online =
        decodeAttentionOnline(f.config, f.q, f.k, f.v);
    EXPECT_LT(maxDiff(reference, online), 1e-5);
}

TEST(DecodeAttention, OnlineHandlesPartialTrailingChunk)
{
    Fixture f = makeFixture(2, 2, 8, 37, 5); // 37 % 16 != 0
    EXPECT_LT(maxDiff(decodeAttentionReference(f.config, f.q, f.k,
                                               f.v),
                      decodeAttentionOnline(f.config, f.q, f.k, f.v)),
              1e-5);
}

TEST(DecodeAttention, GqaMapsQueryHeadsToSharedKvHeads)
{
    // With 4 query heads over 1 kv head and identical q per head,
    // every head must produce the same output slice.
    Fixture f = makeFixture(4, 1, 8, 12, 6);
    for (int64_t h = 1; h < 4; ++h) {
        for (int64_t d = 0; d < 8; ++d)
            f.q[static_cast<size_t>(h * 8 + d)] =
                f.q[static_cast<size_t>(d)];
    }
    const auto out =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    for (int64_t h = 1; h < 4; ++h) {
        for (int64_t d = 0; d < 8; ++d) {
            EXPECT_NEAR(out[static_cast<size_t>(h * 8 + d)],
                        out[static_cast<size_t>(d)], 1e-6);
        }
    }
}

TEST(DecodeAttention, QuantizedCacheApproximatesFloat)
{
    Fixture f = makeFixture(4, 4, 16, 96, 7);
    const KvCacheQuantizer quantizer(KvQuantConfig{4, 32, true});
    const QuantizedKv qk = quantizer.quantize(f.k);
    const QuantizedKv qv = quantizer.quantize(f.v);

    const auto exact =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    const auto quantized =
        decodeAttentionQuantized(f.config, f.q, qk, qv, quantizer);
    // KV4 error is small relative to the value scale (~N(0,1)).
    EXPECT_LT(maxDiff(exact, quantized), 0.15);

    // And exactly matches attention over the dequantized cache.
    const auto dequant_ref = decodeAttentionReference(
        f.config, f.q, quantizer.dequantize(qk),
        quantizer.dequantize(qv));
    EXPECT_LT(maxDiff(dequant_ref, quantized), 1e-5);
}

TEST(DecodeAttention, StoreMatchesQuantizedOracleBitExact)
{
    // The fused-dequant store path against the whole-history oracle,
    // at every length across chunk and group boundaries, for KV4
    // (nibble-packed) and KV8 stores under GQA.
    for (const int bits : {4, 8}) {
        Fixture f = makeFixture(4, 2, 16, 75, 11);
        const KvQuantConfig kv_config{bits, 32, true};
        const KvCacheQuantizer quantizer(kv_config);
        KvStore k(f.config.kvDim(), kv_config);
        KvStore v(f.config.kvDim(), kv_config);
        for (int64_t t = 0; t < f.k.rows(); ++t) {
            k.append(f.k.data() + t * f.config.kvDim());
            v.append(f.v.data() + t * f.config.kvDim());
            const auto fused = decodeAttentionQuantized(f.config, f.q, k, v);
            const auto oracle = decodeAttentionQuantized(
                f.config, f.q, k.snapshot(), v.snapshot(), quantizer);
            ASSERT_EQ(fused, oracle) << "bits " << bits << " tokens "
                                     << t + 1;
        }
    }
}

TEST(DecodeAttention, OnlineReadsACachePrefixInPlace)
{
    // Attending over the first rows of a larger cache equals
    // attending over a cache holding only those rows.
    const Fixture f = makeFixture(4, 2, 16, 40, 12);
    Tensor k(25, f.config.kvDim()), v(25, f.config.kvDim());
    std::copy(f.k.data(), f.k.data() + k.numel(), k.data());
    std::copy(f.v.data(), f.v.data() + v.numel(), v.data());
    EXPECT_EQ(decodeAttentionOnline(f.config, f.q, f.k, f.v, 25),
              decodeAttentionOnline(f.config, f.q, k, v));
}

TEST(DecodeAttention, Kv8TighterThanKv4)
{
    Fixture f = makeFixture(2, 2, 16, 64, 8);
    const auto exact =
        decodeAttentionReference(f.config, f.q, f.k, f.v);
    double err[2];
    int i = 0;
    for (int bits : {4, 8}) {
        const KvCacheQuantizer quantizer(
            KvQuantConfig{bits, 32, true});
        const auto out = decodeAttentionQuantized(
            f.config, f.q, quantizer.quantize(f.k),
            quantizer.quantize(f.v), quantizer);
        err[i++] = maxDiff(exact, out);
    }
    EXPECT_LT(err[1], err[0]);
}

TEST(DecodeAttention, KvBytesMatchFigure2Arithmetic)
{
    AttentionConfig config;
    config.num_heads = 8;
    config.num_kv_heads = 8;
    config.head_dim = 128;
    // 2 (K+V) * tokens * 1024 channels * 2 bytes.
    EXPECT_DOUBLE_EQ(decodeAttentionKvBytes(config, 1000, 16.0),
                     2.0 * 1000 * 1024 * 2.0);
    EXPECT_DOUBLE_EQ(decodeAttentionKvBytes(config, 1000, 4.0),
                     decodeAttentionKvBytes(config, 1000, 16.0) /
                         4.0);
}

TEST(DecodeAttentionDeathTest, ShapeMismatchesRejected)
{
    Fixture f = makeFixture(2, 2, 8, 4, 9);
    f.q.pop_back();
    EXPECT_DEATH(
        decodeAttentionReference(f.config, f.q, f.k, f.v),
        "CHECK failed");
}

/** Sweep chunk sizes: the online algorithm is chunk-size invariant. */
class ChunkSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ChunkSweep, OnlineInvariantToChunking)
{
    Fixture f = makeFixture(2, 2, 16, 50, 10);
    f.config.chunk_tokens = GetParam();
    EXPECT_LT(maxDiff(decodeAttentionReference(f.config, f.q, f.k,
                                               f.v),
                      decodeAttentionOnline(f.config, f.q, f.k, f.v)),
              1e-5);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSweep,
                         ::testing::Values(1, 7, 16, 50, 128));

} // namespace
} // namespace comet
