/**
 * @file
 * AVX2 backend. Every routine is compiled with a per-function target
 * attribute (no global -mavx2), so the translation unit builds on any
 * x86-64 toolchain and the dispatcher only selects these kernels when
 * the running CPU reports AVX2.
 *
 * Bit-identity with the scalar backend is load-bearing: integer
 * routines use exact lane arithmetic, float routines perform the same
 * IEEE operations per lane that the scalar loop performs per element
 * (true division, copysign(0.5) rounding, truncating conversion).
 * Ragged tails fall through to the scalar backend, except in the
 * float dots, whose last block is zero-padded (exact; see
 * dotTile).
 */
#include "comet/simd/simd_internal.h"

#if COMET_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "comet/common/status.h"

#define COMET_AVX2 __attribute__((target("avx2")))

namespace comet {
namespace simd {
namespace detail {
namespace avx2 {

namespace {

/** Horizontal sum of the eight 32-bit lanes. */
COMET_AVX2 inline int32_t
hsumEpi32(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i sum = _mm_add_epi32(lo, hi);
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0x4e));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0xb1));
    return _mm_cvtsi128_si32(sum);
}

/** Sign-extends the 4-bit values held in each byte's low nibble. */
COMET_AVX2 inline __m256i
signExtend4(__m256i nibbles)
{
    const __m256i eight = _mm256_set1_epi8(8);
    return _mm256_sub_epi8(_mm256_xor_si256(nibbles, eight), eight);
}

/** Reorders the two unpack(lo/hi) halves into sequential order. @{ */
COMET_AVX2 inline __m256i
seqLo(__m256i il, __m256i ih)
{
    return _mm256_permute2x128_si256(il, ih, 0x20);
}

COMET_AVX2 inline __m256i
seqHi(__m256i il, __m256i ih)
{
    return _mm256_permute2x128_si256(il, ih, 0x31);
}
/** @} */

/** Sum of products of 32 INT8 lanes of @p a and @p b, as 8 INT32
 * partial sums (exact: widen to 16-bit, multiply-add pairs). */
COMET_AVX2 inline __m256i
madd32x8(__m256i a, __m256i b)
{
    const __m256i a_lo =
        _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a));
    const __m256i a_hi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a, 1));
    const __m256i b_lo =
        _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
    const __m256i b_hi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
    return _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo),
                            _mm256_madd_epi16(a_hi, b_hi));
}

/** The int16 pair at @p p, broadcast to all eight 32-bit lanes
 * (one load-port broadcast from memory). */
COMET_AVX2 inline __m256i
broadcastPair(const int16_t *p)
{
    int32_t pair;
    std::memcpy(&pair, p, sizeof(pair));
    return _mm256_set1_epi32(pair);
}

/** Row r's lanes of the fixed-order dot (simd.h), reduced by the
 * fixed tree: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). @{ */
COMET_AVX2 inline float
hsumTreePs(__m256 v)
{
    // hadd pairs (l0+l1, l2+l3 | l4+l5, l6+l7), then pairs of pairs
    // per 128-bit half; the halves add last.
    __m256 h = _mm256_hadd_ps(v, v);
    h = _mm256_hadd_ps(h, h);
    return _mm256_cvtss_f32(h) +
           _mm_cvtss_f32(_mm256_extractf128_ps(h, 1));
}

/** Lane r of the result is hsumTreePs(v[r]). */
COMET_AVX2 inline __m256
hsum8TreePs(const __m256 v[8])
{
    const __m256 s0123 = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]),
                                        _mm256_hadd_ps(v[2], v[3]));
    const __m256 s4567 = _mm256_hadd_ps(_mm256_hadd_ps(v[4], v[5]),
                                        _mm256_hadd_ps(v[6], v[7]));
    return _mm256_add_ps(_mm256_permute2f128_ps(s0123, s4567, 0x20),
                         _mm256_permute2f128_ps(s0123, s4567, 0x31));
}
/** @} */

/**
 * Row readers for the float kernels: block(r, i) is values
 * [i, i + 8) of row r as floats; tail(r, i, count) reads count < 8
 * values from i and zero-fills the other lanes (never past the row).
 * @{
 */
struct NibbleRows {
    const uint8_t *data;
    int64_t stride;

    COMET_AVX2 static __m256
    widen(uint32_t word)
    {
        // Value k sits in bits [4k, 4k + 4): shift it to the top of
        // its lane, then sign-extend it back down.
        const __m256i to_top = _mm256_setr_epi32(28, 24, 20, 16, 12, 8, 4, 0);
        return _mm256_cvtepi32_ps(_mm256_srai_epi32(
            _mm256_sllv_epi32(_mm256_set1_epi32(static_cast<int>(word)),
                              to_top),
            28));
    }

    COMET_AVX2 __m256
    block(int64_t r, int64_t i) const
    {
        uint32_t word;
        std::memcpy(&word, data + r * stride + i / 2, sizeof(word));
        return widen(word);
    }

    COMET_AVX2 __m256
    tail(int64_t r, int64_t i, int64_t count) const
    {
        uint32_t word = 0;
        std::memcpy(&word, data + r * stride + i / 2,
                    static_cast<size_t>(count / 2));
        return widen(word);
    }
};

struct Int8Rows {
    const uint8_t *data;
    int64_t stride;

    COMET_AVX2 __m256
    block(int64_t r, int64_t i) const
    {
        return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(data + r * stride + i))));
    }

    COMET_AVX2 __m256
    tail(int64_t r, int64_t i, int64_t count) const
    {
        alignas(16) uint8_t bytes[16] = {};
        std::memcpy(bytes, data + r * stride + i, static_cast<size_t>(count));
        return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
            _mm_load_si128(reinterpret_cast<const __m128i *>(bytes))));
    }
};

struct FloatRows {
    const float *data;
    int64_t stride;

    COMET_AVX2 __m256
    block(int64_t r, int64_t i) const
    {
        return _mm256_loadu_ps(data + r * stride + i);
    }

    COMET_AVX2 __m256
    tail(int64_t r, int64_t i, int64_t count) const
    {
        alignas(32) float values[8] = {};
        std::memcpy(values, data + r * stride + i,
                    static_cast<size_t>(count) * sizeof(float));
        return _mm256_load_ps(values);
    }
};
/** @} */

/**
 * The fixed-order dots of @p G vectors against the @p R rows from
 * @p r0: per 8-value block, each row is widened once and multiplied by
 * every vector, into accumulator g * R + r; one transposed reduction
 * then forms all R * G dots, each vector's R of them side by side. A
 * ragged tail adds zero products to the unused lanes (@p x_tail holds
 * each vector's tail, zero-padded), which leaves them unchanged: a lane
 * that starts at +0.0f can never hold -0.0f, so adding +0.0f is exact.
 */
template <int G, int R, typename Rows>
COMET_AVX2 inline void
dotTile(const float *x, int64_t x_stride, const float *x_tail,
        const Rows &rows, int64_t r0, int64_t n, float *out,
        int64_t out_stride)
{
    static_assert(G * R <= 8, "one accumulator per (row, vector)");
    const int64_t full = n - n % 8;
    // The loops unroll fully so the accumulators stay in registers.
    __m256 acc[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j)
        acc[j] = _mm256_setzero_ps();
    for (int64_t i = 0; i < full; i += 8) {
        __m256 xv[G];
#pragma GCC unroll 8
        for (int g = 0; g < G; ++g)
            xv[g] = _mm256_loadu_ps(x + g * x_stride + i);
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const __m256 row = rows.block(r0 + r, i);
#pragma GCC unroll 8
            for (int g = 0; g < G; ++g)
                acc[g * R + r] = _mm256_add_ps(acc[g * R + r],
                                               _mm256_mul_ps(xv[g], row));
        }
    }
    if (full < n) {
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const __m256 row = rows.tail(r0 + r, full, n - full);
#pragma GCC unroll 8
            for (int g = 0; g < G; ++g)
                acc[g * R + r] = _mm256_add_ps(
                    acc[g * R + r],
                    _mm256_mul_ps(_mm256_load_ps(x_tail + 8 * g), row));
        }
    }
    if constexpr (G * R == 1) {
        out[r0] = hsumTreePs(acc[0]);
    } else {
        alignas(32) float dots[8];
        _mm256_store_ps(dots, hsum8TreePs(acc));
        for (int g = 0; g < G; ++g)
            std::memcpy(out + g * out_stride + r0, dots + g * R,
                        R * sizeof(float));
    }
}

/** The fixed-order dots of @p G vectors against @p n_rows rows, in
 * tiles of 8 / G rows (eight accumulators) and then one row at a
 * time. */
template <int G, typename Rows>
COMET_AVX2 inline void
dotRowsImpl(const float *x, int64_t x_stride, const Rows &rows,
            int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    constexpr int R = 8 / G;
    const int64_t full = n - n % 8;
    alignas(32) float x_tail[8 * G] = {};
    if (full < n) {
        for (int g = 0; g < G; ++g)
            std::memcpy(x_tail + 8 * g, x + g * x_stride + full,
                        static_cast<size_t>(n - full) * sizeof(float));
    }
    int64_t r = 0;
    for (; n_rows - r >= R; r += R)
        dotTile<G, R>(x, x_stride, x_tail, rows, r, n, out, out_stride);
    if constexpr (R > 1) {
        for (; r < n_rows; ++r)
            dotTile<G, 1>(x, x_stride, x_tail, rows, r, n, out, out_stride);
    }
}

/** dotRowsImpl<n_x>, for 1 <= @p n_x <= kRowVectorBlock. */
template <int G = 1, typename Rows>
COMET_AVX2 inline void
dotRowsBlock(const float *x, int64_t x_stride, int64_t n_x,
             const Rows &rows, int64_t n_rows, int64_t n, float *out,
             int64_t out_stride)
{
    if constexpr (G < kRowVectorBlock) {
        if (n_x > G)
            return dotRowsBlock<G + 1>(x, x_stride, n_x, rows, n_rows, n,
                                       out, out_stride);
    }
    dotRowsImpl<G>(x, x_stride, rows, n_rows, n, out, out_stride);
}

/** The fixed-order dots of any number of vectors, kRowVectorBlock at
 * a time. */
template <typename Rows>
COMET_AVX2 inline void
dotRowsAny(const float *x, int64_t x_stride, int64_t n_x, const Rows &rows,
           int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    for (int64_t g = 0; g < n_x; g += kRowVectorBlock)
        dotRowsBlock(x + g * x_stride, x_stride,
                     std::min(n_x - g, kRowVectorBlock), rows, n_rows, n,
                     out + g * out_stride, out_stride);
}

/**
 * acc_g[i, i + 8C) += w_g[r] * row_r[i, i + 8C) for @p G vectors,
 * rows in order: each row's C blocks are widened once for every
 * vector, and the G * C accumulators (at most eight) are independent
 * add chains that cover the rows' latency.
 */
template <int G, int C, typename Rows>
COMET_AVX2 inline void
accumulateTile(const float *w, int64_t w_stride, const Rows &rows,
               int64_t n_rows, int64_t i, float *acc, int64_t acc_stride)
{
    static_assert(G * C <= 8, "at most eight accumulators");
    __m256 a[G * C];
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
#pragma GCC unroll 4
        for (int c = 0; c < C; ++c)
            a[g * C + c] = _mm256_loadu_ps(acc + g * acc_stride + i + 8 * c);
    }
    for (int64_t r = 0; r < n_rows; ++r) {
        __m256 block[C];
#pragma GCC unroll 4
        for (int c = 0; c < C; ++c)
            block[c] = rows.block(r, i + 8 * c);
#pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            const __m256 wr = _mm256_set1_ps(w[g * w_stride + r]);
#pragma GCC unroll 4
            for (int c = 0; c < C; ++c)
                a[g * C + c] = _mm256_add_ps(a[g * C + c],
                                             _mm256_mul_ps(wr, block[c]));
        }
    }
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
#pragma GCC unroll 4
        for (int c = 0; c < C; ++c)
            _mm256_storeu_ps(acc + g * acc_stride + i + 8 * c, a[g * C + c]);
    }
}

/** The weighted accumulation of @p G vectors over the whole 8-value
 * blocks [0, @p full): four blocks per pass for one or two vectors,
 * fewer for more, then single blocks. The ragged tail goes to the
 * scalar backend (elementwise, so the split does not change any
 * value). */
template <int G, typename Rows>
COMET_AVX2 inline void
accumulateImpl(const float *w, int64_t w_stride, const Rows &rows,
               int64_t n_rows, int64_t full, float *acc, int64_t acc_stride)
{
    constexpr int C = G <= 2 ? 4 : (G <= 4 ? 2 : 1);
    int64_t i = 0;
    for (; full - i >= 8 * C; i += 8 * C)
        accumulateTile<G, C>(w, w_stride, rows, n_rows, i, acc, acc_stride);
    if constexpr (C > 1) {
        for (; full - i >= 8; i += 8)
            accumulateTile<G, 1>(w, w_stride, rows, n_rows, i, acc,
                                 acc_stride);
    }
}

/** accumulateImpl<n_w>, for 1 <= @p n_w <= kRowVectorBlock. */
template <int G = 1, typename Rows>
COMET_AVX2 inline void
accumulateBlock(const float *w, int64_t w_stride, int64_t n_w,
                const Rows &rows, int64_t n_rows, int64_t full, float *acc,
                int64_t acc_stride)
{
    if constexpr (G < kRowVectorBlock) {
        if (n_w > G)
            return accumulateBlock<G + 1>(w, w_stride, n_w, rows, n_rows,
                                          full, acc, acc_stride);
    }
    accumulateImpl<G>(w, w_stride, rows, n_rows, full, acc, acc_stride);
}

/** The weighted accumulation of any number of vectors,
 * kRowVectorBlock at a time, over the whole 8-value blocks. */
template <typename Rows>
COMET_AVX2 inline void
accumulateAny(const float *w, int64_t w_stride, int64_t n_w,
              const Rows &rows, int64_t n_rows, int64_t full, float *acc,
              int64_t acc_stride)
{
    for (int64_t g = 0; g < n_w; g += kRowVectorBlock)
        accumulateBlock(w + g * w_stride, w_stride,
                        std::min(n_w - g, kRowVectorBlock), rows, n_rows,
                        full, acc + g * acc_stride, acc_stride);
}

} // namespace

COMET_AVX2 void
unpackInt4(const uint8_t *packed, int64_t n, int8_t *out)
{
    const __m256i lo_mask = _mm256_set1_epi8(0x0f);
    int64_t v = 0;
    for (; n - v >= 64; v += 64) {
        const __m256i bytes = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(packed + v / 2));
        const __m256i lo =
            signExtend4(_mm256_and_si256(bytes, lo_mask));
        const __m256i hi = signExtend4(_mm256_and_si256(
            _mm256_srli_epi16(bytes, 4), lo_mask));
        const __m256i il = _mm256_unpacklo_epi8(lo, hi);
        const __m256i ih = _mm256_unpackhi_epi8(lo, hi);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + v),
                            seqLo(il, ih));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + v + 32),
                            seqHi(il, ih));
    }
    // One 16-byte step for a 32..63-value remainder (e.g. a KV head
    // slice), with the same per-byte arithmetic in one 128-bit lane.
    if (n - v >= 32) {
        const __m256i bytes = _mm256_castsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(packed + v / 2)));
        const __m256i lo = signExtend4(_mm256_and_si256(bytes, lo_mask));
        const __m256i hi = signExtend4(
            _mm256_and_si256(_mm256_srli_epi16(bytes, 4), lo_mask));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + v),
                         _mm256_castsi256_si128(
                             _mm256_unpacklo_epi8(lo, hi)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + v + 16),
                         _mm256_castsi256_si128(
                             _mm256_unpackhi_epi8(lo, hi)));
        v += 32;
    }
    scalar::unpackInt4(packed + v / 2, n - v, out + v);
}

COMET_AVX2 void
packInt4(const int8_t *values, int64_t n, uint8_t *packed)
{
    const __m256i lo16 = _mm256_set1_epi16(0x000f);
    const __m256i hi16 = _mm256_set1_epi16(0x00f0);
    const __m256i max4 = _mm256_set1_epi8(7);
    const __m256i min4 = _mm256_set1_epi8(-8);
    int64_t v = 0;
    for (; n - v >= 64; v += 64) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(values + v));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(values + v + 32));
        const __m256i bad = _mm256_or_si256(
            _mm256_or_si256(_mm256_cmpgt_epi8(a, max4),
                            _mm256_cmpgt_epi8(min4, a)),
            _mm256_or_si256(_mm256_cmpgt_epi8(b, max4),
                            _mm256_cmpgt_epi8(min4, b)));
        COMET_CHECK_MSG(_mm256_movemask_epi8(bad) == 0,
                        "INT4 pack value outside [-8, 7]");
        // Each 16-bit lane holds [odd value | even value]; fold the
        // odd value's low nibble into the even byte's high nibble.
        const __m256i ra = _mm256_or_si256(
            _mm256_and_si256(a, lo16),
            _mm256_and_si256(_mm256_srli_epi16(a, 4), hi16));
        const __m256i rb = _mm256_or_si256(
            _mm256_and_si256(b, lo16),
            _mm256_and_si256(_mm256_srli_epi16(b, 4), hi16));
        // packus interleaves 128-bit lanes; permute restores order.
        const __m256i bytes = _mm256_permute4x64_epi64(
            _mm256_packus_epi16(ra, rb), 0xd8);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(packed + v / 2), bytes);
    }
    scalar::packInt4(values + v, n - v, packed + v / 2);
}

COMET_AVX2 void
locationSwitchWords(const uint8_t *in, int64_t n_words, uint8_t *out)
{
    const __m256i mask16 = _mm256_set1_epi32(0x0000ffff);
    const __m256i mask8 = _mm256_set1_epi32(0x00ff00ff);
    const __m256i mask4 = _mm256_set1_epi32(0x0f0f0f0f);
    int64_t w = 0;
    for (; n_words - w >= 8; w += 8) {
        const __m256i word = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + 4 * w));
        __m256i lo = _mm256_and_si256(word, mask16);
        __m256i hi = _mm256_srli_epi32(word, 16);
        lo = _mm256_and_si256(
            _mm256_or_si256(lo, _mm256_slli_epi32(lo, 8)), mask8);
        lo = _mm256_and_si256(
            _mm256_or_si256(lo, _mm256_slli_epi32(lo, 4)), mask4);
        hi = _mm256_and_si256(
            _mm256_or_si256(hi, _mm256_slli_epi32(hi, 8)), mask8);
        hi = _mm256_and_si256(
            _mm256_or_si256(hi, _mm256_slli_epi32(hi, 4)), mask4);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + 4 * w),
            _mm256_or_si256(lo, _mm256_slli_epi32(hi, 4)));
    }
    scalar::locationSwitchWords(in + 4 * w, n_words - w, out + 4 * w);
}

COMET_AVX2 void
interleaveUnits(const uint8_t *in, int64_t n_units, uint8_t *out)
{
    // Per 8-byte unit: swap byte pairs (2,3) <-> (4,5).
    const __m256i pattern = _mm256_setr_epi8(
        0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15, 0, 1, 4,
        5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15);
    int64_t u = 0;
    for (; n_units - u >= 4; u += 4) {
        const __m256i bytes = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + 8 * u));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 8 * u),
                            _mm256_shuffle_epi8(bytes, pattern));
    }
    scalar::interleaveUnits(in + 8 * u, n_units - u, out + 8 * u);
}

COMET_AVX2 void
fastWidenW4A8(const uint8_t *prepared, int64_t n_values, int8_t *out)
{
    const __m256i hi_mask = _mm256_set1_epi8(
        static_cast<char>(0xf0));
    int64_t v = 0;
    for (; n_values - v >= 64; v += 64) {
        const __m256i bytes = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prepared + v / 2));
        // lo half of each register word: nibble to the high bits of
        // its byte (the 16x zero extension); hi half: already there.
        const __m256i lo = _mm256_and_si256(
            _mm256_slli_epi16(bytes, 4), hi_mask);
        const __m256i hi = _mm256_and_si256(bytes, hi_mask);
        // Per 8-byte unit the output is [lo(unit), hi(unit)]:
        // interleave at 64-bit granularity, then restore unit order.
        const __m256i il = _mm256_unpacklo_epi64(lo, hi);
        const __m256i ih = _mm256_unpackhi_epi64(lo, hi);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + v),
                            seqLo(il, ih));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + v + 32),
                            seqHi(il, ih));
    }
    scalar::fastWidenW4A8(prepared + v / 2, n_values - v, out + v);
}

COMET_AVX2 int32_t
dotInt8(const int8_t *a, const int8_t *b, int64_t n)
{
    __m256i acc = _mm256_setzero_si256();
    int64_t i = 0;
    for (; n - i >= 32; i += 32) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        acc = _mm256_add_epi32(acc, madd32x8(av, bv));
    }
    return hsumEpi32(acc) + scalar::dotInt8(a + i, b + i, n - i);
}

COMET_AVX2 int32_t
dotInt4(const uint8_t *a, const uint8_t *b, int64_t n_values)
{
    const __m256i lo_mask = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    int64_t v = 0;
    for (; n_values - v >= 64; v += 64) {
        const __m256i ab = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + v / 2));
        const __m256i bb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + v / 2));
        const __m256i a_lo =
            signExtend4(_mm256_and_si256(ab, lo_mask));
        const __m256i a_hi = signExtend4(
            _mm256_and_si256(_mm256_srli_epi16(ab, 4), lo_mask));
        const __m256i b_lo =
            signExtend4(_mm256_and_si256(bb, lo_mask));
        const __m256i b_hi = signExtend4(
            _mm256_and_si256(_mm256_srli_epi16(bb, 4), lo_mask));
        acc = _mm256_add_epi32(acc, madd32x8(a_lo, b_lo));
        acc = _mm256_add_epi32(acc, madd32x8(a_hi, b_hi));
    }
    return hsumEpi32(acc) +
           scalar::dotInt4(a + v / 2, b + v / 2, n_values - v);
}

COMET_AVX2 void
widenColumnBlock(const int8_t *columns, int64_t stride, int64_t n_values,
                 int16_t *out)
{
    int64_t v = 0;
    for (; n_values - v >= 16; v += 16) {
        // Column c's 16 values as eight 32-bit pairs, then an 8 x 8
        // transpose of the pairs: output row p holds pair p of every
        // column.
        __m256i r[kColumnBlock];
#pragma GCC unroll 8
        for (int c = 0; c < kColumnBlock; ++c)
            r[c] = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(columns + c * stride + v)));
        __m256i t[kColumnBlock];
#pragma GCC unroll 4
        for (int c = 0; c < kColumnBlock; c += 2) {
            t[c] = _mm256_unpacklo_epi32(r[c], r[c + 1]);
            t[c + 1] = _mm256_unpackhi_epi32(r[c], r[c + 1]);
        }
        // u[q] (q < 4) holds pairs q and q + 4 of columns 0-3; u[q + 4]
        // the same pairs of columns 4-7.
        __m256i u[kColumnBlock];
#pragma GCC unroll 2
        for (int h = 0; h < kColumnBlock; h += 4) {
            u[h] = _mm256_unpacklo_epi64(t[h], t[h + 2]);
            u[h + 1] = _mm256_unpackhi_epi64(t[h], t[h + 2]);
            u[h + 2] = _mm256_unpacklo_epi64(t[h + 1], t[h + 3]);
            u[h + 3] = _mm256_unpackhi_epi64(t[h + 1], t[h + 3]);
        }
        __m256i *dst = reinterpret_cast<__m256i *>(out + v * kColumnBlock);
#pragma GCC unroll 4
        for (int q = 0; q < 4; ++q) {
            _mm256_storeu_si256(
                dst + q, _mm256_permute2x128_si256(u[q], u[q + 4], 0x20));
            _mm256_storeu_si256(
                dst + q + 4, _mm256_permute2x128_si256(u[q], u[q + 4], 0x31));
        }
    }
    if (v < n_values)
        scalar::widenColumnBlock(columns + v, stride, n_values - v,
                                 out + v * kColumnBlock);
}

COMET_AVX2 void
dotColumnBlock(const int16_t *a, const int16_t *w, int64_t n_tiles,
               int64_t tile_values, int32_t *out)
{
    // One multiply-add per value pair covers all eight columns: the
    // row's pair is broadcast against the block's pair row, so the
    // accumulator's lanes are the columns and no reduction is needed.
    for (int64_t t = 0; t < n_tiles; ++t) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int64_t v = t * tile_values; v < (t + 1) * tile_values;
             v += 4) {
            const __m256i *w_pairs =
                reinterpret_cast<const __m256i *>(w + v * kColumnBlock);
            acc0 = _mm256_add_epi32(
                acc0, _mm256_madd_epi16(broadcastPair(a + v),
                                        _mm256_loadu_si256(w_pairs)));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_madd_epi16(broadcastPair(a + v + 2),
                                        _mm256_loadu_si256(w_pairs + 1)));
        }
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + t * kColumnBlock),
            _mm256_add_epi32(acc0, acc1));
    }
}

COMET_AVX2 void
scaleColumnBlock(const int32_t *dots, const float *a_scales,
                 const float *w_scales, int64_t w_stride, int64_t n_tiles,
                 float *out)
{
    __m256 sum = _mm256_setzero_ps();
    for (int64_t t = 0; t < n_tiles; ++t) {
        const __m256 dot = _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dots + t * kColumnBlock)));
        sum = _mm256_add_ps(
            sum, _mm256_mul_ps(_mm256_mul_ps(dot, _mm256_set1_ps(a_scales[t])),
                               _mm256_loadu_ps(w_scales + t * w_stride)));
    }
    _mm256_storeu_ps(out, sum);
}

COMET_AVX2 void
minMaxUpdate(const float *x, int64_t n, float *mins, float *maxs)
{
    int64_t i = 0;
    for (; n - i >= 8; i += 8) {
        const __m256 xv = _mm256_loadu_ps(x + i);
        _mm256_storeu_ps(
            mins + i,
            _mm256_min_ps(xv, _mm256_loadu_ps(mins + i)));
        _mm256_storeu_ps(
            maxs + i,
            _mm256_max_ps(xv, _mm256_loadu_ps(maxs + i)));
    }
    scalar::minMaxUpdate(x + i, n - i, mins + i, maxs + i);
}

COMET_AVX2 void
quantizeAffine(const float *x, const float *scales,
               const int32_t *zero_points, int64_t n, int32_t qmin,
               int32_t qmax, int8_t *out)
{
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256i qmin_v = _mm256_set1_epi32(qmin);
    const __m256i qmax_v = _mm256_set1_epi32(qmax);
    // Byte 0 of every 32-bit lane, gathered into the low 8 bytes: the
    // modular narrowing of the scalar static_cast<int8_t>.
    const __m256i low_bytes = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 4,
        8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    int64_t i = 0;
    for (; n - i >= 8; i += 8) {
        const __m256 t = _mm256_div_ps(_mm256_loadu_ps(x + i),
                                       _mm256_loadu_ps(scales + i));
        // Round half away from zero: add copysign(0.5, t), truncate —
        // exactly the scalar (t >= 0 ? t + 0.5f : t - 0.5f) cast.
        const __m256 rounded = _mm256_add_ps(
            t, _mm256_or_ps(_mm256_and_ps(t, sign_mask), half));
        __m256i q = _mm256_add_epi32(
            _mm256_cvttps_epi32(rounded),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(zero_points + i)));
        q = _mm256_min_epi32(_mm256_max_epi32(q, qmin_v), qmax_v);
        const __m256i bytes = _mm256_permutevar8x32_epi32(
            _mm256_shuffle_epi8(q, low_bytes), join);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i),
                         _mm256_castsi256_si128(bytes));
    }
    scalar::quantizeAffine(x + i, scales + i, zero_points + i, n - i,
                           qmin, qmax, out + i);
}

COMET_AVX2 void
dequantAffine(const int8_t *q, const float *scales,
              const int32_t *zero_points, int64_t n, float *out)
{
    int64_t i = 0;
    for (; n - i >= 8; i += 8) {
        const __m128i q8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(q + i));
        const __m256i q32 = _mm256_cvtepi8_epi32(q8);
        const __m256i zp = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(zero_points + i));
        const __m256 widened =
            _mm256_cvtepi32_ps(_mm256_sub_epi32(q32, zp));
        _mm256_storeu_ps(
            out + i,
            _mm256_mul_ps(widened, _mm256_loadu_ps(scales + i)));
    }
    scalar::dequantAffine(q + i, scales + i, zero_points + i, n - i,
                          out + i);
}

COMET_AVX2 void
dotRowsF32(const float *x, int64_t x_stride, int64_t n_x, QuantRows rows,
           int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    if (rows.packed)
        dotRowsAny(x, x_stride, n_x, NibbleRows{rows.data, rows.stride},
                   n_rows, n, out, out_stride);
    else
        dotRowsAny(x, x_stride, n_x, Int8Rows{rows.data, rows.stride},
                   n_rows, n, out, out_stride);
}

COMET_AVX2 void
gemvF32(const float *x, const float *rows, int64_t stride, int64_t n_rows,
        int64_t n, float *out)
{
    dotRowsImpl<1>(x, 0, FloatRows{rows, stride}, n_rows, n, out, 0);
}

COMET_AVX2 void
accumulateRowsF32(const float *w, int64_t w_stride, int64_t n_w,
                  QuantRows rows, int64_t n_rows, int64_t n, float *acc,
                  int64_t acc_stride)
{
    const int64_t full = n - n % 8;
    if (rows.packed)
        accumulateAny(w, w_stride, n_w, NibbleRows{rows.data, rows.stride},
                      n_rows, full, acc, acc_stride);
    else
        accumulateAny(w, w_stride, n_w, Int8Rows{rows.data, rows.stride},
                      n_rows, full, acc, acc_stride);
    if (full == n)
        return;
    QuantRows tail = rows;
    tail.data += rows.packed ? full / 2 : full;
    scalar::accumulateRowsF32(w, w_stride, n_w, tail, n_rows, n - full,
                              acc + full, acc_stride);
}

COMET_AVX2 void
expF32(const float *x, int64_t n, float *out)
{
    const __m256 lo = _mm256_set1_ps(kExpLo);
    const __m256 hi = _mm256_set1_ps(kExpHi);
    int64_t i = 0;
    for (; n - i >= 8; i += 8) {
        const __m256 xv = _mm256_loadu_ps(x + i);
        // min_ps returns hi for a NaN lane; the blend below puts the
        // input NaN back, as the scalar backend returns it.
        const __m256 v = _mm256_min_ps(xv, hi);
        const __m256 k = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(v, _mm256_set1_ps(kExpLog2e)),
            _mm256_set1_ps(0.5f)));
        const __m256 r = _mm256_sub_ps(
            _mm256_sub_ps(v, _mm256_mul_ps(k, _mm256_set1_ps(kExpLn2Hi))),
            _mm256_mul_ps(k, _mm256_set1_ps(kExpLn2Lo)));
        __m256 p = _mm256_set1_ps(kExpPoly[0]);
        for (int j = 1; j < 6; ++j)
            p = _mm256_add_ps(_mm256_mul_ps(p, r),
                              _mm256_set1_ps(kExpPoly[j]));
        p = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0f));
        const __m256i bits = _mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvttps_epi32(k),
                             _mm256_set1_epi32(127)),
            23);
        __m256 e = _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
        e = _mm256_andnot_ps(_mm256_cmp_ps(xv, lo, _CMP_LT_OQ), e);
        e = _mm256_blendv_ps(e, xv, _mm256_cmp_ps(xv, xv, _CMP_UNORD_Q));
        _mm256_storeu_ps(out + i, e);
    }
    scalar::expF32(x + i, n - i, out + i);
}

} // namespace avx2
} // namespace detail
} // namespace simd
} // namespace comet

#endif // COMET_SIMD_X86
