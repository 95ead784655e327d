/**
 * @file
 * Unit and property tests for decode attention: reference vs online
 * softmax equivalence, GQA mapping, and the quantized-cache paths (the
 * fused store path against its scalar model and the dequantize-first
 * oracle).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "comet/attention/decode_attention.h"
#include "comet/common/rng.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"
#include "kv_fold_attention.h"

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

/**
 * One store-path case: @p gqa query heads per kv head over two kv
 * heads of @p head_dim channels. Appends drifting K/V rows one at a
 * time (past the second group boundary, or to 70 tokens) and calls
 * @p check(config, q, k, v, kv_config) after every append.
 */
template <typename Check>
void
storeCase(Rng &rng, const KvQuantConfig &kv_config, int64_t gqa,
          int64_t head_dim, Check &check)
{
    AttentionConfig config;
    config.num_kv_heads = 2;
    config.num_heads = 2 * gqa;
    config.head_dim = head_dim;
    config.chunk_tokens = 16;
    const int64_t kv_dim = config.kvDim();
    std::vector<float> q(static_cast<size_t>(config.qDim()));
    for (float &x : q)
        x = static_cast<float>(rng.gaussian(0, 1));
    KvStore k(kv_dim, kv_config), v(kv_dim, kv_config);
    std::vector<float> k_row(static_cast<size_t>(kv_dim));
    std::vector<float> v_row(static_cast<size_t>(kv_dim));
    const int64_t tokens =
        std::min<int64_t>(2 * kv_config.group_size + 1, 70);
    for (int64_t t = 0; t < tokens; ++t) {
        // Channel offsets and a drifting spread, so zero points move
        // across groups.
        const double spread = 1.0 + 0.05 * static_cast<double>(t % 23);
        for (int64_t c = 0; c < kv_dim; ++c) {
            const auto cd = static_cast<double>(c);
            k_row[static_cast<size_t>(c)] = static_cast<float>(
                rng.gaussian(0.2 * std::fmod(cd, 5.0), spread));
            v_row[static_cast<size_t>(c)] = static_cast<float>(
                rng.gaussian(-0.1 * std::fmod(cd, 3.0), spread));
        }
        k.append(k_row.data());
        v.append(v_row.data());
        SCOPED_TRACE(::testing::Message()
                     << "gqa " << gqa << " head_dim " << head_dim
                     << " tokens " << t + 1);
        check(config, q, k, v, kv_config);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** The store-path sweep: KV bits {2, 3, 4, 8}, groups {1, 7, 32, 64},
 * symmetric and asymmetric, GQA {1, 2, 4, 8}, head_dim
 * {8, 12, 16, 32, 64}. */
template <typename Check>
void
sweepStores(Check check)
{
    Rng rng(31);
    for (const int bits : {2, 3, 4, 8}) {
        for (const int64_t group : {1, 7, 32, 64}) {
            for (const bool asymmetric : {true, false}) {
                const KvQuantConfig kv_config{bits, group, asymmetric};
                SCOPED_TRACE(::testing::Message()
                             << "bits " << bits << " group " << group
                             << " asym " << asymmetric);
                for (const int64_t gqa : {1, 2, 4, 8}) {
                    for (const int64_t head_dim : {8, 12, 16, 32, 64}) {
                        storeCase(rng, kv_config, gqa, head_dim, check);
                        if (::testing::Test::HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(DecodeAttention, StoreMatchesFoldedModelBitExact)
{
    // The fused store path equals the scalar model of its folded order
    // bit for bit, under every SIMD backend this machine runs.
    const simd::Mode saved = simd::activeMode();
    for (const simd::Mode mode : simd::supportedModes()) {
        simd::setMode(mode);
        SCOPED_TRACE(simd::modeName(mode));
        sweepStores([](const AttentionConfig &config,
                       const std::vector<float> &q, const KvStore &k,
                       const KvStore &v, const KvQuantConfig &) {
            ASSERT_EQ(decodeAttentionQuantized(config, q, k, v),
                      foldAttentionModel(config, q, k.snapshot(),
                                         v.snapshot()));
        });
    }
    simd::setMode(saved);
}

TEST(DecodeAttention, StoreWithinStatedBoundOfDequantizeFirstOracle)
{
    // The bound stated in decode_attention.h: the float, folded store
    // path against the double, dequantize-first oracle over the same
    // quantized values.
    double worst = 0.0;
    sweepStores([&](const AttentionConfig &config,
                    const std::vector<float> &q, const KvStore &k,
                    const KvStore &v, const KvQuantConfig &kv_config) {
        const KvCacheQuantizer quantizer(kv_config);
        const QuantizedKv v_snapshot = v.snapshot();
        const auto oracle = decodeAttentionQuantized(
            config, q, k.snapshot(), v_snapshot, quantizer);
        const Tensor v_values = quantizer.dequantize(v_snapshot);
        double v_max = 0.0;
        for (int64_t i = 0; i < v_values.numel(); ++i)
            v_max = std::max(v_max, std::fabs(double{v_values[i]}));
        const double diff =
            maxDiff(decodeAttentionQuantized(config, q, k, v), oracle);
        worst = std::max(worst, diff / (v_max + 0.05));
        ASSERT_LE(diff, 4e-6 * v_max + 1e-6);
    });
    char worst_text[32];
    std::snprintf(worst_text, sizeof(worst_text), "%.3g", worst);
    RecordProperty("worst_error_over_max_v", worst_text);
}

/** Rows [begin, end) of @p t. */
Tensor
rowSpan(const Tensor &t, int64_t begin, int64_t end)
{
    Tensor out(end - begin, t.cols());
    std::copy(t.data() + begin * t.cols(), t.data() + end * t.cols(),
              out.data());
    return out;
}

/**
 * One appendAttendQuantized case, over storeCase's geometry: drifting
 * K/V rows past the second group boundary (or to 70 rows), appended
 * and attended in two calls, the second starting inside an open group
 * whenever a group holds more than one row (at g = 64 it is a single
 * row, a decode step). Each call's row r must equal, bit for bit,
 * decodeAttentionQuantized after that row's own append.
 */
void
appendAttendCase(Rng &rng, const KvQuantConfig &kv_config, int64_t gqa,
                 int64_t head_dim)
{
    AttentionConfig config;
    config.num_kv_heads = 2;
    config.num_heads = 2 * gqa;
    config.head_dim = head_dim;
    const int64_t kv_dim = config.kvDim();
    const int64_t q_dim = config.qDim();
    const int64_t group = kv_config.group_size;
    const int64_t rows = std::min<int64_t>(2 * group + 1, 70);
    Tensor q(rows, q_dim), k_rows(rows, kv_dim), v_rows(rows, kv_dim);
    for (int64_t r = 0; r < rows; ++r) {
        const double spread = 1.0 + 0.05 * static_cast<double>(r % 23);
        for (int64_t c = 0; c < q_dim; ++c)
            q.at(r, c) = static_cast<float>(rng.gaussian(0, 1));
        for (int64_t c = 0; c < kv_dim; ++c) {
            const auto cd = static_cast<double>(c);
            k_rows.at(r, c) = static_cast<float>(
                rng.gaussian(0.2 * std::fmod(cd, 5.0), spread));
            v_rows.at(r, c) = static_cast<float>(
                rng.gaussian(-0.1 * std::fmod(cd, 3.0), spread));
        }
    }

    KvStore k_ref(kv_dim, kv_config), v_ref(kv_dim, kv_config);
    std::vector<std::vector<float>> want;
    for (int64_t r = 0; r < rows; ++r) {
        k_ref.append(k_rows.data() + r * kv_dim);
        v_ref.append(v_rows.data() + r * kv_dim);
        want.push_back(decodeAttentionQuantized(
            config, {q.data() + r * q_dim, q.data() + (r + 1) * q_dim}, k_ref,
            v_ref));
    }

    KvStore k(kv_dim, kv_config), v(kv_dim, kv_config);
    const int64_t split = std::min(rows - 1, group + group / 2 + 1);
    for (const auto &[begin, end] :
         {std::pair<int64_t, int64_t>{0, split}, {split, rows}}) {
        const Tensor got = appendAttendQuantized(
            config, rowSpan(q, begin, end), rowSpan(k_rows, begin, end),
            rowSpan(v_rows, begin, end), k, v);
        ASSERT_EQ(got.rows(), end - begin);
        for (int64_t r = begin; r < end; ++r) {
            const float *row = got.data() + (r - begin) * q_dim;
            ASSERT_EQ(std::vector<float>(row, row + q_dim),
                      want[static_cast<size_t>(r)])
                << "gqa " << gqa << " head_dim " << head_dim << " row " << r
                << " of call [" << begin << ", " << end << ")";
        }
    }
    // The appends themselves are the row-by-row ones.
    const int64_t bytes = rows * k.rowBytes();
    ASSERT_EQ(k.tokens(), rows);
    EXPECT_TRUE(std::equal(k.values(), k.values() + bytes, k_ref.values()));
    EXPECT_TRUE(std::equal(v.values(), v.values() + bytes, v_ref.values()));
}

/** appendAttendCase over sweepStores' grid: KV bits {2, 3, 4, 8},
 * groups {1, 7, 32, 64}, symmetric and asymmetric, GQA {1, 2, 4, 8}
 * (8-, 4-, 2- and 1-row blocks), head_dim {8, 12, 16, 32, 64}. */
void
appendAttendSweep()
{
    Rng rng(33);
    for (const int bits : {2, 3, 4, 8}) {
        for (const int64_t group : {1, 7, 32, 64}) {
            for (const bool asymmetric : {true, false}) {
                SCOPED_TRACE(::testing::Message()
                             << "bits " << bits << " group " << group
                             << " asym " << asymmetric);
                for (const int64_t gqa : {1, 2, 4, 8}) {
                    for (const int64_t head_dim : {8, 12, 16, 32, 64}) {
                        appendAttendCase(
                            rng, KvQuantConfig{bits, group, asymmetric}, gqa,
                            head_dim);
                        if (::testing::Test::HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(DecodeAttention, AppendAttendMatchesRowByRowBitExact)
{
    // The two-phase call, packed and unpacked stores, under every SIMD
    // backend and at pool sizes 1 and 4.
    const simd::Mode saved = simd::activeMode();
    const int saved_threads = ThreadPool::global().threadCount();
    for (const simd::Mode mode : simd::supportedModes()) {
        simd::setMode(mode);
        for (const int threads : {1, 4}) {
            ThreadPool::setGlobalThreads(threads);
            SCOPED_TRACE(::testing::Message() << simd::modeName(mode)
                                              << " pool " << threads);
            appendAttendSweep();
        }
    }
    ThreadPool::setGlobalThreads(saved_threads);
    simd::setMode(saved);
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
