/**
 * @file
 * Equivalence suite for the runtime-dispatched SIMD substrate: every
 * routine must be bit-identical to the scalar backend under every
 * supported mode, including edge inputs (all-0xF nibbles, ragged
 * non-multiple-of-lane tails, zero-length spans), and the golden
 * vectors pin the absolute layout semantics against the kernel
 * primitives (convert.h, interleave.h, quantizer.h).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "comet/common/rng.h"
#include "comet/kernel/convert.h"
#include "comet/kernel/interleave.h"
#include "comet/quant/quantizer.h"
#include "comet/simd/simd.h"
#include "comet/simd/simd_internal.h"

namespace comet {
namespace {

// Span lengths covering zero, sub-lane, exact-lane and ragged-tail
// cases for every backend width in play (AVX2 bodies consume 8..64
// values per iteration).
const int64_t kEvenSpans[] = {0, 2, 6, 16, 30, 32, 34,
                              62, 64, 66, 126, 128, 130, 258};
const int64_t kAnySpans[] = {0, 1, 3, 7, 8, 9, 15, 16, 17,
                             31, 32, 33, 63, 64, 65, 130, 257};

std::vector<uint8_t>
randomPackedBytes(Rng &rng, int64_t n_bytes)
{
    std::vector<uint8_t> bytes(static_cast<size_t>(n_bytes));
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.uniformInt(256));
    return bytes;
}

std::vector<int8_t>
randomInt8(Rng &rng, int64_t n, int lo, int hi)
{
    std::vector<int8_t> values(static_cast<size_t>(n));
    for (int8_t &v : values)
        v = static_cast<int8_t>(
            static_cast<int>(rng.uniformInt(
                static_cast<uint64_t>(hi - lo + 1))) +
            lo);
    return values;
}

std::vector<float>
randomFloats(Rng &rng, int64_t n, double mean = 0.0,
             double stddev = 4.0)
{
    std::vector<float> values(static_cast<size_t>(n));
    for (float &v : values)
        v = static_cast<float>(rng.gaussian(mean, stddev));
    return values;
}

/** Runs every test body under one supported mode, restoring the
 * previously active mode afterwards. */
class SimdEquivalence : public ::testing::TestWithParam<simd::Mode>
{
  protected:
    void
    SetUp() override
    {
        saved_ = simd::activeMode();
        simd::setMode(GetParam());
    }

    void TearDown() override { simd::setMode(saved_); }

  private:
    simd::Mode saved_ = simd::Mode::kScalar;
};

INSTANTIATE_TEST_SUITE_P(
    AllSupportedModes, SimdEquivalence,
    ::testing::ValuesIn(simd::supportedModes()),
    [](const ::testing::TestParamInfo<simd::Mode> &info) {
        return simd::modeName(info.param);
    });

TEST_P(SimdEquivalence, UnpackInt4Golden)
{
    // 0x21 -> low nibble first: {1, 2}; 0xF8 -> {-8, -1}.
    const uint8_t packed[] = {0x21, 0xF8};
    int8_t out[4] = {};
    simd::unpackInt4(packed, 4, out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], -8);
    EXPECT_EQ(out[3], -1);
}

TEST_P(SimdEquivalence, UnpackMatchesScalarOnRaggedSpans)
{
    Rng rng(11);
    for (const int64_t n : kEvenSpans) {
        const std::vector<uint8_t> packed =
            randomPackedBytes(rng, n / 2);
        std::vector<int8_t> got(static_cast<size_t>(n), 99);
        std::vector<int8_t> want(static_cast<size_t>(n), 99);
        simd::unpackInt4(packed.data(), n, got.data());
        simd::detail::scalar::unpackInt4(packed.data(), n,
                                         want.data());
        EXPECT_EQ(got, want) << "n=" << n;
    }
}

TEST_P(SimdEquivalence, PackMatchesScalarAndRoundTrips)
{
    Rng rng(12);
    for (const int64_t n : kEvenSpans) {
        const std::vector<int8_t> values = randomInt8(rng, n, -8, 7);
        std::vector<uint8_t> got(static_cast<size_t>(n / 2), 0xAA);
        std::vector<uint8_t> want(static_cast<size_t>(n / 2), 0xAA);
        simd::packInt4(values.data(), n, got.data());
        simd::detail::scalar::packInt4(values.data(), n, want.data());
        EXPECT_EQ(got, want) << "n=" << n;

        std::vector<int8_t> back(static_cast<size_t>(n));
        simd::unpackInt4(got.data(), n, back.data());
        EXPECT_EQ(back, values) << "n=" << n;
    }
}

TEST_P(SimdEquivalence, AllNibbles0xF)
{
    // 0xF nibbles are -1: the sign-extension edge where a masked
    // (unsigned) interpretation would read 15.
    const std::vector<uint8_t> packed(64, 0xFF);
    std::vector<int8_t> out(128, 0);
    simd::unpackInt4(packed.data(), 128, out.data());
    for (const int8_t v : out)
        EXPECT_EQ(v, -1);

    const std::vector<int8_t> minus_ones(128, -1);
    std::vector<uint8_t> repacked(64, 0);
    simd::packInt4(minus_ones.data(), 128, repacked.data());
    EXPECT_EQ(repacked, packed);
}

TEST_P(SimdEquivalence, LocationSwitchGoldenAndScalar)
{
    // Golden: each word must match the register-level primitive.
    Rng rng(13);
    for (const int64_t n_words : {0LL, 1LL, 2LL, 7LL, 8LL, 9LL, 33LL}) {
        const std::vector<uint8_t> in =
            randomPackedBytes(rng, n_words * 4);
        std::vector<uint8_t> got(static_cast<size_t>(n_words * 4));
        simd::locationSwitchWords(in.data(), n_words, got.data());
        for (int64_t w = 0; w < n_words; ++w) {
            uint32_t word = 0, switched = 0;
            std::memcpy(&word, in.data() + w * 4, 4);
            switched = locationSwitch(word);
            uint32_t got_word = 0;
            std::memcpy(&got_word, got.data() + w * 4, 4);
            EXPECT_EQ(got_word, switched) << "word " << w;
        }
        // In-place operation is allowed.
        std::vector<uint8_t> in_place = in;
        simd::locationSwitchWords(in_place.data(), n_words,
                                  in_place.data());
        EXPECT_EQ(in_place, got);
    }
}

TEST_P(SimdEquivalence, InterleaveGoldenAndSelfInverse)
{
    Rng rng(14);
    for (const int64_t n_units : {0LL, 1LL, 2LL, 3LL, 5LL, 16LL}) {
        const std::vector<uint8_t> in =
            randomPackedBytes(rng, n_units * 8);
        std::vector<uint8_t> got(static_cast<size_t>(n_units * 8));
        simd::interleaveUnits(in.data(), n_units, got.data());

        // Golden: nibble at logical index i lands at
        // interleavedIndex(i) — the exact transform interleave.h
        // documents (whole nibble pairs move, so bytes permute).
        for (int64_t unit = 0; unit < n_units; ++unit) {
            for (int64_t i = 0; i < kInterleaveUnit; i += 2) {
                const int64_t j = interleavedIndex(i);
                EXPECT_EQ(got[static_cast<size_t>(unit * 8 + j / 2)],
                          in[static_cast<size_t>(unit * 8 + i / 2)])
                    << "unit " << unit << " value " << i;
            }
        }

        // Self-inverse: applying it twice restores the input.
        std::vector<uint8_t> twice(static_cast<size_t>(n_units * 8));
        simd::interleaveUnits(got.data(), n_units, twice.data());
        EXPECT_EQ(twice, in);
    }
}

TEST_P(SimdEquivalence, FastWidenGoldenAndScalar)
{
    Rng rng(15);
    for (const int64_t n_values : {0LL, 16LL, 32LL, 48LL, 160LL}) {
        const std::vector<uint8_t> prepared =
            randomPackedBytes(rng, n_values / 2);
        std::vector<int8_t> got(static_cast<size_t>(n_values), 1);
        std::vector<int8_t> want(static_cast<size_t>(n_values), 2);
        simd::fastWidenW4A8(prepared.data(), n_values, got.data());
        simd::detail::scalar::fastWidenW4A8(prepared.data(), n_values,
                                            want.data());
        EXPECT_EQ(got, want) << "n=" << n_values;

        // Golden per unit: [lo(w0), lo(w1), hi(w0), hi(w1)] from the
        // register-level fastInt4ToInt8 primitive.
        for (int64_t unit = 0; unit < n_values / 16; ++unit) {
            uint32_t w0 = 0, w1 = 0;
            std::memcpy(&w0, prepared.data() + unit * 8, 4);
            std::memcpy(&w1, prepared.data() + unit * 8 + 4, 4);
            const ConvertedPair p0 = fastInt4ToInt8(w0);
            const ConvertedPair p1 = fastInt4ToInt8(w1);
            const uint32_t expect_words[4] = {p0.lo, p1.lo, p0.hi,
                                              p1.hi};
            uint8_t expect[16];
            std::memcpy(expect, expect_words, 16);
            EXPECT_EQ(std::memcmp(got.data() + unit * 16, expect, 16),
                      0)
                << "unit " << unit;
        }
    }
}

TEST_P(SimdEquivalence, DotInt8MatchesNaive)
{
    Rng rng(16);
    for (const int64_t n : kAnySpans) {
        const std::vector<int8_t> a = randomInt8(rng, n, -128, 127);
        const std::vector<int8_t> b = randomInt8(rng, n, -128, 127);
        int32_t want = 0;
        for (int64_t i = 0; i < n; ++i)
            want += static_cast<int32_t>(a[static_cast<size_t>(i)]) *
                    b[static_cast<size_t>(i)];
        EXPECT_EQ(simd::dotInt8(a.data(), b.data(), n), want)
            << "n=" << n;
    }
}

TEST_P(SimdEquivalence, DotInt4MatchesUnpackedDot)
{
    Rng rng(17);
    for (const int64_t n : kEvenSpans) {
        const std::vector<uint8_t> a = randomPackedBytes(rng, n / 2);
        const std::vector<uint8_t> b = randomPackedBytes(rng, n / 2);
        std::vector<int8_t> ua(static_cast<size_t>(n)),
            ub(static_cast<size_t>(n));
        simd::detail::scalar::unpackInt4(a.data(), n, ua.data());
        simd::detail::scalar::unpackInt4(b.data(), n, ub.data());
        int32_t want = 0;
        for (int64_t i = 0; i < n; ++i)
            want += static_cast<int32_t>(ua[static_cast<size_t>(i)]) *
                    ub[static_cast<size_t>(i)];
        EXPECT_EQ(simd::dotInt4(a.data(), b.data(), n), want)
            << "n=" << n;
    }
}

/** Index of value @p v of column @p c in the column-block layout. */
size_t
columnBlockIndex(int64_t v, int64_t c)
{
    return static_cast<size_t>(((v / 2) * simd::kColumnBlock + c) * 2 +
                               v % 2);
}

/** kColumnBlock INT8 column spans (column c at columns + c * stride)
 * laid out in the column-block layout over @p n values, widened. */
std::vector<int16_t>
columnBlockLayout(const int8_t *columns, int64_t stride, int64_t n)
{
    std::vector<int16_t> w(static_cast<size_t>(simd::kColumnBlock * n));
    for (int64_t c = 0; c < simd::kColumnBlock; ++c)
        for (int64_t v = 0; v < n; ++v)
            w[columnBlockIndex(v, c)] = columns[c * stride + v];
    return w;
}

TEST_P(SimdEquivalence, WidenKernelBlockGoldenAndScalar)
{
    // Mixed precision runs of k-tiles (the fast conversion's x16 tiles
    // among sign-extended ones, as the W4A8 path feeds them) and the
    // naive ablation's all sign-extended block, over every tile length
    // up to 64 values and the decoder's 128.
    constexpr int64_t kStep = simd::kKernelStepBytes;
    Rng rng(17);
    for (const bool fast : {true, false}) {
        for (int64_t tile = 8; tile <= 128; tile += tile < 64 ? 8 : 64) {
            for (const int64_t n_tiles : {0, 1, 2, 5}) {
                const int64_t n = n_tiles * tile;
                const std::vector<uint8_t> packed =
                    randomPackedBytes(rng, n / 8 * kStep);
                std::vector<uint8_t> x16(static_cast<size_t>(n_tiles));
                for (uint8_t &flag : x16)
                    flag = fast ? static_cast<uint8_t>(rng.uniformInt(2)) : 0;
                std::vector<int16_t> got(static_cast<size_t>(n * 8), 1);
                std::vector<int16_t> want(got.size(), 2);
                simd::widenKernelBlock(packed.data(), x16.data(), n_tiles,
                                       tile, got.data());
                simd::detail::scalar::widenKernelBlock(
                    packed.data(), x16.data(), n_tiles, tile, want.data());
                EXPECT_EQ(got, want) << "tile " << tile << " tiles " << n_tiles;

                // Golden: element e is nibble (e / 32) % 2 of byte
                // (e / 64) * 32 + e % 32, sign-extended, and 16x that
                // in an x16 tile, where each register word of bytes
                // gives fastInt4ToInt8's lo (low nibbles) and hi (high
                // nibbles) words.
                for (int64_t e = 0; e < 8 * n; ++e) {
                    const int64_t step = e / (2 * kStep);
                    const auto byte =
                        static_cast<size_t>(step * kStep + e % kStep);
                    const bool high = e / kStep % 2 == 1;
                    const int nibble =
                        high ? packed[byte] >> 4 : packed[byte] & 0x0f;
                    const bool tile_x16 =
                        x16[static_cast<size_t>(step * 8 / tile)] != 0;
                    uint32_t word = 0;
                    std::memcpy(&word, &packed[byte / 4 * 4], 4);
                    const ConvertedPair pair = fastInt4ToInt8(word);
                    const auto fast_value = static_cast<int8_t>(
                        (high ? pair.hi : pair.lo) >> (8 * (byte % 4)));
                    const int value = nibble >= 8 ? nibble - 16 : nibble;
                    ASSERT_EQ(fast_value, 16 * value);
                    EXPECT_EQ(want[static_cast<size_t>(e)],
                              tile_x16 ? fast_value : value)
                        << "element " << e;
                }
            }
        }
    }
}

TEST_P(SimdEquivalence, DotColumnBlockMatchesScalarOnRaggedCounts)
{
    constexpr int64_t kBlock = simd::kColumnBlock;
    Rng rng(18);
    for (const int64_t tile : {16, 32, 48, 128}) {
        for (int64_t n_tiles = 1; n_tiles <= 17; ++n_tiles) {
            // Widened operands: INT8 activations against weights on
            // the fast conversion's x16 grid.
            const int64_t n = n_tiles * tile;
            const std::vector<int8_t> a8 = randomInt8(rng, n, -128, 127);
            const std::vector<int16_t> a(a8.begin(), a8.end());
            std::vector<int8_t> columns = randomInt8(rng, kBlock * n, -8, 7);
            for (int8_t &v : columns)
                v = static_cast<int8_t>(v * 16);
            const std::vector<int16_t> w =
                columnBlockLayout(columns.data(), n, n);
            std::vector<int32_t> got(static_cast<size_t>(n_tiles * kBlock));
            std::vector<int32_t> want(got.size());
            simd::dotColumnBlockRows(a.data(), 0, 1, w.data(), n_tiles,
                                     tile, got.data(), 0);
            simd::detail::scalar::dotColumnBlock(a.data(), w.data(),
                                                 n_tiles, tile,
                                                 want.data());
            EXPECT_EQ(got, want) << "tile " << tile << " count " << n_tiles;
            // The scalar reference is one INT8 span dot per
            // (tile, column).
            for (int64_t t = 0; t < n_tiles; ++t) {
                for (int64_t c = 0; c < kBlock; ++c) {
                    EXPECT_EQ(want[static_cast<size_t>(t * kBlock + c)],
                              simd::detail::scalar::dotInt8(
                                  &a8[static_cast<size_t>(t * tile)],
                                  &columns[static_cast<size_t>(c * n +
                                                               t * tile)],
                                  tile));
                }
            }
        }
    }
}

TEST_P(SimdEquivalence, DotColumnBlockRowsMatchesSingleRowCalls)
{
    // One multi-row pass per group of up to kColumnBlockRows rows, the
    // last group ragged, gives each row exactly its one-row dots: the
    // W4Ax kernel walks an m-tile this way. The odd k-tiles hold INT8
    // activations against fast-widened weights (x16, as the W4A8 path
    // feeds them), the even ones INT4 against INT4.
    constexpr int64_t kBlock = simd::kColumnBlock;
    constexpr int64_t kRows = simd::kColumnBlockRows;
    Rng rng(19);
    for (const int64_t tile : {16, 32, 128}) {
        const int64_t n_tiles = 3;
        const int64_t k_dim = n_tiles * tile;
        std::vector<int8_t> columns = randomInt8(rng, kBlock * k_dim, -8, 7);
        for (int64_t c = 0; c < kBlock; ++c)
            for (int64_t v = tile; v < 2 * tile; ++v)
                columns[static_cast<size_t>(c * k_dim + v)] = static_cast<int8_t>(
                    columns[static_cast<size_t>(c * k_dim + v)] * 16);
        const std::vector<int16_t> w =
            columnBlockLayout(columns.data(), k_dim, k_dim);
        for (int64_t m = 1; m <= 2 * kRows + 1; ++m) {
            // Rows padded past k_dim so a_stride differs from the span.
            const int64_t a_stride = k_dim + 16;
            std::vector<int16_t> a(static_cast<size_t>(m * a_stride), 0);
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t v = 0; v < k_dim; ++v) {
                    const bool int8_tile = (v / tile) % 2 == 1;
                    a[static_cast<size_t>(i * a_stride + v)] = static_cast<int16_t>(
                        int8_tile ? static_cast<int>(rng.uniformInt(256)) - 128
                                  : static_cast<int>(rng.uniformInt(16)) - 8);
                }
            }
            const int64_t out_stride = n_tiles * kBlock + 8;
            std::vector<int32_t> got(static_cast<size_t>(m * out_stride), -1);
            std::vector<int32_t> want(got.size(), -1);
            std::vector<int32_t> scalar(got.size(), -1);
            for (int64_t i0 = 0; i0 < m; i0 += kRows) {
                const int64_t rows = std::min(kRows, m - i0);
                simd::dotColumnBlockRows(a.data() + i0 * a_stride, a_stride,
                                         rows, w.data(), n_tiles, tile,
                                         got.data() + i0 * out_stride,
                                         out_stride);
                simd::detail::scalar::dotColumnBlockRows(
                    a.data() + i0 * a_stride, a_stride, rows, w.data(),
                    n_tiles, tile, scalar.data() + i0 * out_stride,
                    out_stride);
            }
            for (int64_t i = 0; i < m; ++i)
                simd::dotColumnBlockRows(a.data() + i * a_stride, 0, 1,
                                         w.data(), n_tiles, tile,
                                         want.data() + i * out_stride, 0);
            EXPECT_EQ(got, want) << "tile " << tile << " rows " << m;
            EXPECT_EQ(scalar, want) << "tile " << tile << " rows " << m;
        }
    }
}

TEST_P(SimdEquivalence, DotColumnBlockExtremeOperands)
{
    constexpr int64_t kTile = 128;
    constexpr int64_t kTiles = 9;
    constexpr int64_t kBlock = simd::kColumnBlock;
    std::vector<int32_t> out(kTiles * kBlock);
    // INT4 minima on both sides: every product is (-8) * (-8).
    const std::vector<int16_t> int4_row(kTiles * kTile, -8);
    const std::vector<int16_t> int4_block(kTiles * kBlock * kTile, -8);
    simd::dotColumnBlockRows(int4_row.data(), 0, 1, int4_block.data(),
                             kTiles, kTile, out.data(), 0);
    for (const int32_t dot : out)
        EXPECT_EQ(dot, 64 * kTile);

    // INT8 activations at +-127 (and -128) against fast-widened
    // weights of -128 (16 x the INT4 minimum).
    const std::vector<int16_t> widened_min(kTiles * kBlock * kTile, -128);
    for (const int16_t a : {int16_t{127}, int16_t{-127}, int16_t{-128}}) {
        const std::vector<int16_t> act(kTiles * kTile, a);
        simd::dotColumnBlockRows(act.data(), 0, 1, widened_min.data(),
                                 kTiles, kTile, out.data(), 0);
        for (const int32_t dot : out)
            EXPECT_EQ(dot, -128 * int32_t{a} * kTile) << "a = " << a;
    }
}

TEST_P(SimdEquivalence, MinMaxUpdateBitIdenticalToScalar)
{
    Rng rng(18);
    for (const int64_t n : kAnySpans) {
        const std::vector<float> x = randomFloats(rng, n);
        std::vector<float> mins_got = randomFloats(rng, n);
        std::vector<float> maxs_got = randomFloats(rng, n);
        std::vector<float> mins_want = mins_got;
        std::vector<float> maxs_want = maxs_got;
        simd::minMaxUpdate(x.data(), n, mins_got.data(),
                           maxs_got.data());
        simd::detail::scalar::minMaxUpdate(
            x.data(), n, mins_want.data(), maxs_want.data());
        // An empty vector's data() may be null, which memcmp must not
        // see even for zero bytes.
        if (n == 0)
            continue;
        ASSERT_EQ(std::memcmp(mins_got.data(), mins_want.data(),
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << "n=" << n;
        ASSERT_EQ(std::memcmp(maxs_got.data(), maxs_want.data(),
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << "n=" << n;
    }
}

TEST_P(SimdEquivalence, QuantizeAffineBitIdenticalToQuantParams)
{
    Rng rng(19);
    // INT4 and INT8 ranges, and one wider than int8_t, whose values
    // narrow modulo 256 exactly as the scalar cast does.
    const std::pair<int32_t, int32_t> ranges[] = {
        {-8, 7}, {-128, 127}, {-1000, 1000}};
    for (const auto &[qmin, qmax] : ranges) {
        for (const int64_t n : kAnySpans) {
            const std::vector<float> x = randomFloats(rng, n);
            std::vector<float> scales(static_cast<size_t>(n));
            std::vector<int32_t> zps(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
                scales[static_cast<size_t>(i)] = static_cast<float>(
                    (0.05 + 0.001 * static_cast<double>(rng.uniformInt(
                                        1000))) *
                    7.0 / qmax);
                zps[static_cast<size_t>(i)] =
                    static_cast<int32_t>(rng.uniformInt(15)) - 7;
            }
            std::vector<int8_t> got(static_cast<size_t>(n), 111);
            simd::quantizeAffine(x.data(), scales.data(), zps.data(), n,
                                 qmin, qmax, got.data());
            for (int64_t i = 0; i < n; ++i) {
                QuantParams p;
                p.scale = scales[static_cast<size_t>(i)];
                p.zero_point = zps[static_cast<size_t>(i)];
                const int32_t q = std::clamp(
                    p.quantize(x[static_cast<size_t>(i)]), qmin, qmax);
                EXPECT_EQ(got[static_cast<size_t>(i)],
                          static_cast<int8_t>(q))
                    << "range " << qmax << " n=" << n << " i=" << i;
            }
        }
    }
}

TEST_P(SimdEquivalence, DequantAffineBitIdenticalToQuantParams)
{
    Rng rng(20);
    for (const int64_t n : kAnySpans) {
        const std::vector<int8_t> q = randomInt8(rng, n, -8, 7);
        std::vector<float> scales(static_cast<size_t>(n));
        std::vector<int32_t> zps(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            scales[static_cast<size_t>(i)] = static_cast<float>(
                rng.gaussian(0.1, 0.02));
            zps[static_cast<size_t>(i)] =
                static_cast<int32_t>(rng.uniformInt(15)) - 7;
        }
        std::vector<float> got(static_cast<size_t>(n), -777.0f);
        simd::dequantAffine(q.data(), scales.data(), zps.data(), n,
                            got.data());
        for (int64_t i = 0; i < n; ++i) {
            QuantParams p;
            p.scale = scales[static_cast<size_t>(i)];
            p.zero_point = zps[static_cast<size_t>(i)];
            const float want =
                p.dequantize(q[static_cast<size_t>(i)]);
            EXPECT_EQ(std::memcmp(&got[static_cast<size_t>(i)], &want,
                                  sizeof(float)),
                      0)
                << "n=" << n << " i=" << i;
        }
    }
}

TEST_P(SimdEquivalence, ZeroLengthSpansAreNoOps)
{
    // Null-safe zero-length calls: nothing read, nothing written.
    simd::unpackInt4(nullptr, 0, nullptr);
    simd::packInt4(nullptr, 0, nullptr);
    simd::locationSwitchWords(nullptr, 0, nullptr);
    simd::interleaveUnits(nullptr, 0, nullptr);
    simd::fastWidenW4A8(nullptr, 0, nullptr);
    simd::minMaxUpdate(nullptr, 0, nullptr, nullptr);
    simd::quantizeAffine(nullptr, nullptr, nullptr, 0, -8, 7,
                         nullptr);
    simd::dequantAffine(nullptr, nullptr, nullptr, 0, nullptr);
    EXPECT_EQ(simd::dotInt8(nullptr, nullptr, 0), 0);
    EXPECT_EQ(simd::dotInt4(nullptr, nullptr, 0), 0);
    simd::widenKernelBlock(nullptr, nullptr, 0, 8, nullptr);
    simd::dotColumnBlockRows(nullptr, 0, 1, nullptr, 0, 16, nullptr, 0);
    simd::dotRowsF32(nullptr, 0, 1, {}, 0, 0, nullptr, 0);
    simd::dotRowsF32(nullptr, 0, 0, {}, 5, 0, nullptr, 0);
    simd::gemvF32(nullptr, nullptr, 0, 0, 0, nullptr);
    simd::accumulateRowsF32(nullptr, 0, 1, {}, 0, 0, nullptr, 0);
    simd::accumulateRowsF32(nullptr, 0, 0, {}, 5, 0, nullptr, 0);
    simd::expF32(nullptr, 0, nullptr);
    // Rows of zero values: every dot is +0.0f, for one vector and for
    // several.
    float dots[6] = {1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f};
    simd::dotRowsF32(nullptr, 0, 1, {nullptr, 0, true}, 3, 0, dots, 3);
    simd::dotRowsF32(nullptr, 0, 2, {nullptr, 0, true}, 3, 0, dots, 3);
    for (const float dot : dots)
        EXPECT_TRUE(dot == 0.0f && !std::signbit(dot));
}

/** Bitwise equality of two float spans (NaN-safe). */
::testing::AssertionResult
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "sizes differ";
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "differs at " << i << ": " << a[i] << " vs " << b[i];
    }
    return ::testing::AssertionSuccess();
}

TEST_P(SimdEquivalence, ScaleColumnBlockMatchesDocumentedOrder)
{
    // Every row of a 1- to kColumnBlockRows-row call, over ragged
    // k-tile counts and padded strides, is simd.h's one-row sum.
    constexpr int64_t kBlock = simd::kColumnBlock;
    Rng rng(21);
    for (int64_t rows = 1; rows <= simd::kColumnBlockRows; ++rows) {
        for (int64_t n_tiles = 0; n_tiles <= 17; ++n_tiles) {
            const int64_t stride =
                kBlock + static_cast<int64_t>(rng.uniformInt(5));
            const int64_t dots_stride =
                n_tiles * kBlock + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t a_stride =
                n_tiles + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t out_stride =
                kBlock + static_cast<int64_t>(rng.uniformInt(3));
            std::vector<int32_t> dots(static_cast<size_t>(rows * dots_stride));
            for (int32_t &dot : dots)
                dot = static_cast<int32_t>(rng.uniformInt(1 << 22)) - (1 << 21);
            const std::vector<float> a_scales =
                randomFloats(rng, rows * a_stride, 0.0, 0.1);
            const std::vector<float> w_scales =
                randomFloats(rng, n_tiles * stride, 0.0, 0.01);
            // Padding past each row's block stays as it was.
            std::vector<float> got(static_cast<size_t>(rows * out_stride),
                                   -1.0f);
            std::vector<float> want(got);
            simd::scaleColumnBlockRows(dots.data(), dots_stride,
                                       a_scales.data(), a_stride, rows,
                                       w_scales.data(), stride, n_tiles,
                                       got.data(), out_stride);
            // simd.h's statement of the epilogue: from +0.0f, k-tiles in
            // ascending order, multiplies left to right.
            for (int64_t r = 0; r < rows; ++r) {
                for (int64_t c = 0; c < kBlock; ++c) {
                    float sum = 0.0f;
                    for (int64_t t = 0; t < n_tiles; ++t)
                        sum += static_cast<float>(dots[static_cast<size_t>(
                                   r * dots_stride + t * kBlock + c)]) *
                               a_scales[static_cast<size_t>(r * a_stride + t)] *
                               w_scales[static_cast<size_t>(t * stride + c)];
                    want[static_cast<size_t>(r * out_stride + c)] = sum;
                }
            }
            EXPECT_TRUE(sameBits(got, want))
                << "rows " << rows << " n_tiles " << n_tiles;
        }
    }
}

/** The documented order of the float dots (simd.h), stated directly:
 * value i into lane i % 8, then ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). */
template <typename Value>
float
documentedDot(const float *x, int64_t n, Value value)
{
    float lanes[8] = {};
    for (int64_t i = 0; i < n; ++i)
        lanes[i % 8] += x[i] * value(i);
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/** Raw values of a QuantRows row as floats (the independent unpack). */
float
rawValue(const simd::QuantRows &rows, int64_t r, int64_t i)
{
    const uint8_t *row = rows.data + r * rows.stride;
    if (!rows.packed)
        return static_cast<float>(static_cast<int8_t>(row[i]));
    const int nibble = i % 2 == 0 ? row[i / 2] & 0x0f : row[i / 2] >> 4;
    return static_cast<float>(nibble >= 8 ? nibble - 16 : nibble);
}

TEST_P(SimdEquivalence, FloatRowKernelsMatchScalarOnRaggedShapes)
{
    // Row counts across the eight-row blocks and their tails, every
    // span length (even when packed), rows padded past their values.
    Rng rng(19);
    for (const bool packed : {true, false}) {
        for (const int64_t n : kAnySpans) {
            if (packed && n % 2 != 0)
                continue;
            for (const int64_t n_rows : {0, 1, 5, 8, 9, 16, 17}) {
                const int64_t stride = (packed ? n / 2 : n) + 3;
                const std::vector<uint8_t> bytes =
                    randomPackedBytes(rng, n_rows * stride);
                const simd::QuantRows rows{bytes.data(), stride, packed};
                const std::vector<float> x = randomFloats(rng, n);
                const std::vector<float> w = randomFloats(rng, n_rows);
                const std::vector<float> acc0 = randomFloats(rng, n);
                const std::vector<float> float_rows =
                    randomFloats(rng, n_rows * (n + 1));
                SCOPED_TRACE(::testing::Message()
                             << "packed " << packed << " n " << n
                             << " rows " << n_rows);

                std::vector<float> got(static_cast<size_t>(n_rows));
                std::vector<float> want(got.size());
                simd::dotRowsF32(x.data(), n, 1, rows, n_rows, n, got.data(),
                                 n_rows);
                simd::detail::scalar::dotRowsF32(x.data(), n, 1, rows, n_rows,
                                                 n, want.data(), n_rows);
                EXPECT_TRUE(sameBits(got, want));
                for (int64_t r = 0; r < n_rows; ++r) {
                    const float dot = documentedDot(
                        x.data(), n,
                        [&](int64_t i) { return rawValue(rows, r, i); });
                    EXPECT_TRUE(
                        sameBits({want[static_cast<size_t>(r)]}, {dot}));
                }

                simd::gemvF32(x.data(), float_rows.data(), n + 1, n_rows, n,
                              got.data());
                simd::detail::scalar::gemvF32(x.data(), float_rows.data(),
                                              n + 1, n_rows, n, want.data());
                EXPECT_TRUE(sameBits(got, want));

                std::vector<float> acc_got = acc0, acc_want = acc0;
                simd::accumulateRowsF32(w.data(), n_rows, 1, rows, n_rows, n,
                                        acc_got.data(), n);
                simd::detail::scalar::accumulateRowsF32(
                    w.data(), n_rows, 1, rows, n_rows, n, acc_want.data(), n);
                EXPECT_TRUE(sameBits(acc_got, acc_want));
                for (int64_t i = 0; i < n; ++i) {
                    float a = acc0[static_cast<size_t>(i)];
                    for (int64_t r = 0; r < n_rows; ++r)
                        a += w[static_cast<size_t>(r)] * rawValue(rows, r, i);
                    EXPECT_TRUE(
                        sameBits({acc_want[static_cast<size_t>(i)]}, {a}));
                }
            }
        }
    }
}

TEST_P(SimdEquivalence, FloatRowKernelsExtremeValues)
{
    // All-minimum and all-maximum nibbles and bytes against operands
    // whose products overflow to infinity and cancel to NaN.
    constexpr int64_t kN = 66;
    constexpr int64_t kRows = 11;
    const float big = 3e38f;
    std::vector<float> x(kN), w(kRows);
    for (int64_t i = 0; i < kN; ++i)
        x[static_cast<size_t>(i)] =
            i % 3 == 0 ? big : (i % 3 == 1 ? -big : 1.5f);
    for (int64_t r = 0; r < kRows; ++r)
        w[static_cast<size_t>(r)] = r % 2 == 0 ? big : -0.0f;
    for (const uint8_t byte : {uint8_t{0x88}, uint8_t{0x77}, uint8_t{0x80},
                               uint8_t{0x7f}, uint8_t{0x00}}) {
        for (const bool packed : {true, false}) {
            const int64_t stride = packed ? kN / 2 : kN;
            const std::vector<uint8_t> bytes(
                static_cast<size_t>(kRows * stride), byte);
            const simd::QuantRows rows{bytes.data(), stride, packed};
            SCOPED_TRACE(::testing::Message()
                         << "byte " << int{byte} << " packed " << packed);
            // The extremes as the first and the last of three vectors.
            std::vector<float> xs(3 * kN, 0.5f), ws(3 * kRows, -2.0f);
            std::copy(x.begin(), x.end(), xs.begin());
            std::copy(x.begin(), x.end(), xs.begin() + 2 * kN);
            std::copy(w.begin(), w.end(), ws.begin());
            std::copy(w.begin(), w.end(), ws.begin() + 2 * kRows);
            std::vector<float> got(3 * kRows), want(3 * kRows);
            simd::dotRowsF32(xs.data(), kN, 3, rows, kRows, kN, got.data(),
                             kRows);
            simd::detail::scalar::dotRowsF32(xs.data(), kN, 3, rows, kRows, kN,
                                             want.data(), kRows);
            EXPECT_TRUE(sameBits(got, want));
            std::vector<float> acc_got(3 * kN, 1.0f), acc_want(3 * kN, 1.0f);
            simd::accumulateRowsF32(ws.data(), kRows, 3, rows, kRows, kN,
                                    acc_got.data(), kN);
            simd::detail::scalar::accumulateRowsF32(
                ws.data(), kRows, 3, rows, kRows, kN, acc_want.data(), kN);
            EXPECT_TRUE(sameBits(acc_got, acc_want));
        }
    }
    // Packed extremes read as -8 and 7: x = 1 sums them exactly.
    const std::vector<float> ones(16, 1.0f);
    const std::vector<uint8_t> minmax{0x78, 0x78, 0x78, 0x78,
                                      0x78, 0x78, 0x78, 0x78};
    float dot = 0.0f;
    simd::dotRowsF32(ones.data(), 16, 1, {minmax.data(), 8, true}, 1, 16,
                     &dot, 1);
    EXPECT_EQ(dot, 8.0f * (-8.0f + 7.0f));
}

TEST_P(SimdEquivalence, MultiVectorRowKernelsMatchScalarAndSingleVector)
{
    // G vectors against one set of rows equal the scalar backend and G
    // separate one-vector calls, bit for bit: every row count around
    // the backends' row tiles, ragged spans, packed and INT8 rows, and
    // more vectors than one widening serves.
    Rng rng(23);
    for (const bool packed : {true, false}) {
        for (const int64_t n : {2, 8, 12, 30, 32, 34, 66}) {
            for (const int64_t g_count : {1, 2, 3, 4, 8, 11}) {
                for (int64_t n_rows = 0; n_rows <= 33; ++n_rows) {
                    SCOPED_TRACE(::testing::Message()
                                 << "packed " << packed << " n " << n
                                 << " G " << g_count << " rows " << n_rows);
                    const int64_t stride = (packed ? n / 2 : n) + 1;
                    const std::vector<uint8_t> bytes =
                        randomPackedBytes(rng, n_rows * stride);
                    const simd::QuantRows rows{bytes.data(), stride, packed};
                    // Strides wider than the spans, so the gaps are
                    // never read or written.
                    const int64_t x_stride = n + 3;
                    const int64_t out_stride = n_rows + 2;
                    const std::vector<float> x =
                        randomFloats(rng, g_count * x_stride);
                    const std::vector<float> w =
                        randomFloats(rng, g_count * out_stride);
                    const std::vector<float> acc0 =
                        randomFloats(rng, g_count * x_stride);

                    std::vector<float> got(
                        static_cast<size_t>(g_count * out_stride), -1.0f);
                    std::vector<float> want = got, single = got;
                    simd::dotRowsF32(x.data(), x_stride, g_count, rows,
                                     n_rows, n, got.data(), out_stride);
                    simd::detail::scalar::dotRowsF32(
                        x.data(), x_stride, g_count, rows, n_rows, n,
                        want.data(), out_stride);
                    for (int64_t g = 0; g < g_count; ++g)
                        simd::dotRowsF32(x.data() + g * x_stride, n, 1, rows,
                                         n_rows, n,
                                         single.data() + g * out_stride,
                                         n_rows);
                    EXPECT_TRUE(sameBits(got, want));
                    EXPECT_TRUE(sameBits(got, single));

                    std::vector<float> acc_got = acc0, acc_want = acc0;
                    std::vector<float> acc_single = acc0;
                    simd::accumulateRowsF32(w.data(), out_stride, g_count,
                                            rows, n_rows, n, acc_got.data(),
                                            x_stride);
                    simd::detail::scalar::accumulateRowsF32(
                        w.data(), out_stride, g_count, rows, n_rows, n,
                        acc_want.data(), x_stride);
                    for (int64_t g = 0; g < g_count; ++g)
                        simd::accumulateRowsF32(
                            w.data() + g * out_stride, n_rows, 1, rows, n_rows,
                            n, acc_single.data() + g * x_stride, n);
                    EXPECT_TRUE(sameBits(acc_got, acc_want));
                    EXPECT_TRUE(sameBits(acc_got, acc_single));
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}

TEST_P(SimdEquivalence, GemvRowsIndependentOfBatching)
{
    // A row's dot does not depend on which rows share its call (the
    // LM head's pool fan-out splits the vocabulary into chunks).
    Rng rng(20);
    constexpr int64_t kRows = 61, kN = 37;
    const std::vector<float> x = randomFloats(rng, kN);
    const std::vector<float> rows = randomFloats(rng, kRows * kN);
    std::vector<float> whole(kRows), pieces(kRows);
    simd::gemvF32(x.data(), rows.data(), kN, kRows, kN, whole.data());
    for (int64_t r0 = 0; r0 < kRows;) {
        const int64_t count = std::min<int64_t>(1 + r0 % 9, kRows - r0);
        simd::gemvF32(x.data(), rows.data() + r0 * kN, kN, count, kN,
                      pieces.data() + r0);
        r0 += count;
    }
    EXPECT_TRUE(sameBits(whole, pieces));
}

TEST_P(SimdEquivalence, ExpF32MatchesScalarAndStdExp)
{
    Rng rng(21);
    std::vector<float> x;
    for (const int64_t n : kAnySpans) {
        for (int64_t i = 0; i < n; ++i)
            x.push_back(static_cast<float>(rng.uniform() * 190.0 - 95.0));
    }
    const float inf = std::numeric_limits<float>::infinity();
    for (const float special :
         {0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
          -87.0f, std::nextafter(-87.0f, -inf), std::nextafter(-87.0f, 0.0f),
          88.0f, 88.5f, 1e30f, -1e30f, 1e-40f, -1e-40f, 0.5f, -0.5f})
        x.push_back(special);
    const auto n = static_cast<int64_t>(x.size());
    for (const int64_t offset : {int64_t{0}, int64_t{3}}) {
        std::vector<float> got(x.size() - static_cast<size_t>(offset));
        std::vector<float> want(got.size());
        simd::expF32(x.data() + offset, n - offset, got.data());
        simd::detail::scalar::expF32(x.data() + offset, n - offset,
                                     want.data());
        EXPECT_TRUE(sameBits(got, want)) << "offset " << offset;
    }
    std::vector<float> e(x.size());
    simd::expF32(x.data(), n, e.data());
    for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        if (std::isnan(v)) {
            EXPECT_TRUE(std::isnan(e[i]));
        } else if (v < -87.0f) {
            EXPECT_EQ(e[i], 0.0f) << v;
        } else {
            // Within 2 ulp of the exact value (1 ulp = 2^-23 relative
            // at most); inputs above 88 are evaluated at 88.
            const double exact = std::exp(std::min(double{v}, 88.0));
            EXPECT_LE(std::fabs(e[i] - exact), 2.0 * 0x1p-23 * exact) << v;
        }
    }
}

TEST(SimdMode, ScalarAlwaysSupportedAndListedFirst)
{
    EXPECT_TRUE(simd::modeSupported(simd::Mode::kScalar));
    const std::vector<simd::Mode> modes = simd::supportedModes();
    ASSERT_FALSE(modes.empty());
    EXPECT_EQ(modes.front(), simd::Mode::kScalar);
    for (const simd::Mode mode : modes)
        EXPECT_TRUE(simd::modeSupported(mode));
}

TEST(SimdMode, ParseRoundTripsSupportedNames)
{
    for (const simd::Mode mode : simd::supportedModes())
        EXPECT_EQ(simd::parseMode(simd::modeName(mode)), mode);
    // "auto" resolves to something the machine can run.
    EXPECT_TRUE(simd::modeSupported(simd::parseMode("auto")));
}

TEST(SimdMode, SetModeChangesActiveMode)
{
    const simd::Mode saved = simd::activeMode();
    for (const simd::Mode mode : simd::supportedModes()) {
        simd::setMode(mode);
        EXPECT_EQ(simd::activeMode(), mode);
    }
    simd::setMode(saved);
}

TEST(SimdModeDeathTest, UnknownNameAborts)
{
    for (const char *name : {"avx512", "neon"})
        EXPECT_DEATH(simd::parseMode(name), "COMET_SIMD") << name;
}

TEST(SimdModeDeathTest, UnsupportedExplicitRequestAborts)
{
    // A machine without AVX2 must refuse it cleanly rather than
    // dispatch into illegal instructions.
    if (!simd::modeSupported(simd::Mode::kAvx2)) {
        EXPECT_DEATH(simd::setMode(simd::Mode::kAvx2), "");
    }
}

TEST(SimdDeathTest, PackInt4RejectsOutOfRangeValues)
{
    // 8 and -9 are unrepresentable in INT4; masking them would
    // silently corrupt the packed lane (8 aliases to -8).
    const int8_t high[] = {0, 8};
    uint8_t packed[1];
    EXPECT_DEATH(simd::packInt4(high, 2, packed), "INT4 pack");
    const int8_t low[] = {-9, 0};
    EXPECT_DEATH(simd::packInt4(low, 2, packed), "INT4 pack");
}

TEST(SimdDeathTest, ShapeChecks)
{
    uint8_t packed[8] = {};
    int8_t out[16] = {};
    EXPECT_DEATH(simd::unpackInt4(packed, 3, out), "");
    EXPECT_DEATH(simd::packInt4(out, 3, packed), "");
    EXPECT_DEATH(simd::fastWidenW4A8(packed, 8, out), "");
    const int16_t operands[8 * simd::kColumnBlock] = {};
    int32_t dots[simd::kColumnBlock];
    EXPECT_DEATH(
        simd::dotColumnBlockRows(operands, 0, 1, operands, 1, 8, dots, 0),
        "");
    EXPECT_DEATH(simd::dotColumnBlockRows(operands, 0, 0, operands, 0, 16,
                                          dots, 0),
                 "");
    EXPECT_DEATH(simd::dotColumnBlockRows(operands, 0,
                                          simd::kColumnBlockRows + 1,
                                          operands, 0, 16, dots, 0),
                 "");
    // The kernel layout widens 8-value steps.
    int16_t widened[8 * simd::kColumnBlock];
    const uint8_t x16[1] = {1};
    for (const int64_t tile : {0, -8, 4, 12})
        EXPECT_DEATH(simd::widenKernelBlock(packed, x16, 1, tile, widened), "")
            << "tile " << tile;
    EXPECT_DEATH(simd::widenKernelBlock(packed, x16, -1, 8, widened), "");
    // The epilogue takes 1 to kColumnBlockRows rows and, past one
    // k-tile, weight scale rows a column block apart.
    const int32_t int_dots[2 * simd::kColumnBlock] = {};
    const float unit[2 * simd::kColumnBlock] = {};
    float sums[simd::kColumnBlock];
    for (const int64_t rows : {int64_t{0}, simd::kColumnBlockRows + 1})
        EXPECT_DEATH(simd::scaleColumnBlockRows(int_dots, 0, unit, 0, rows,
                                                unit, simd::kColumnBlock, 1,
                                                sums, 0),
                     "")
            << "rows " << rows;
    EXPECT_DEATH(simd::scaleColumnBlockRows(int_dots, 0, unit, 0, 1, unit,
                                            simd::kColumnBlock - 1, 2, sums,
                                            0),
                 "");
    const float x[1] = {0.0f};
    const float scales[1] = {1.0f};
    const int32_t zps[1] = {0};
    int8_t q[1];
    EXPECT_DEATH(
        simd::quantizeAffine(x, scales, zps, 1, 7, -8, q), "");
    float f[4] = {};
    EXPECT_DEATH(simd::dotRowsF32(f, 3, 1, {packed, 2, true}, 1, 3, f, 1),
                 "");
    EXPECT_DEATH(
        simd::accumulateRowsF32(f, 1, 1, {packed, 2, true}, 1, 3, f, 3), "");
    // Several vectors need strides that keep them apart.
    EXPECT_DEATH(simd::dotRowsF32(f, 1, 2, {packed, 1, true}, 1, 2, f, 1),
                 "");
    EXPECT_DEATH(simd::dotRowsF32(f, 2, 2, {packed, 1, true}, 2, 2, f, 1),
                 "");
    EXPECT_DEATH(
        simd::accumulateRowsF32(f, 0, 2, {packed, 1, true}, 1, 2, f, 2), "");
    EXPECT_DEATH(
        simd::accumulateRowsF32(f, 1, 2, {packed, 1, true}, 1, 2, f, 1), "");
    EXPECT_DEATH(simd::dotRowsF32(f, 2, -1, {packed, 1, true}, 1, 2, f, 1),
                 "");
    EXPECT_DEATH(simd::gemvF32(f, f, 2, 1, 3, f), "");
    EXPECT_DEATH(simd::expF32(f, -1, f), "");
}

} // namespace
} // namespace comet
