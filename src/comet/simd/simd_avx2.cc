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
 * Ragged tails fall through to the scalar backend.
 */
#include "comet/simd/simd_internal.h"

#if COMET_SIMD_X86

#include <immintrin.h>

#include <algorithm>

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

/** The 16 values of 8 packed INT4 bytes, sign-extended to 16 bits:
 * all low nibbles, then all high nibbles. That order is a fixed
 * permutation of the logical one, so a dot product of two operands
 * widened alike is unchanged. */
COMET_AVX2 inline __m256i
widenInt4x16(const uint8_t *packed)
{
    const __m128i lo_mask = _mm_set1_epi8(0x0f);
    const __m128i eight = _mm_set1_epi8(8);
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(packed));
    const __m128i nibbles = _mm_and_si128(
        _mm_unpacklo_epi64(bytes, _mm_srli_epi16(bytes, 4)), lo_mask);
    return _mm256_cvtepi8_epi16(
        _mm_sub_epi8(_mm_xor_si128(nibbles, eight), eight));
}

/** The 16 values at @p values, sign-extended to 16 bits. */
COMET_AVX2 inline __m256i
widenInt8x16(const int8_t *values)
{
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(values)));
}

/** Lane i of the result is the sum of the eight lanes of @p v[i]. */
COMET_AVX2 inline __m256i
hsum8Epi32(const __m256i v[8])
{
    // Two hadd rounds leave, per 128-bit half, the sums of v[0..3]
    // (and of v[4..7]) over that half's lanes; adding the halves
    // finishes every sum.
    const __m256i s0123 =
        _mm256_hadd_epi32(_mm256_hadd_epi32(v[0], v[1]),
                          _mm256_hadd_epi32(v[2], v[3]));
    const __m256i s4567 =
        _mm256_hadd_epi32(_mm256_hadd_epi32(v[4], v[5]),
                          _mm256_hadd_epi32(v[6], v[7]));
    return _mm256_add_epi32(
        _mm256_permute2x128_si256(s0123, s4567, 0x20),
        _mm256_permute2x128_si256(s0123, s4567, 0x31));
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
dotSegments(MixedSpan a, MixedSpan b, const uint8_t *int8_segments,
            int64_t n_segments, int64_t segment_values, int32_t *out)
{
    // Segments go in groups of eight: each accumulates 16 values per
    // step into eight INT32 lanes, and one transposed reduction turns
    // the group's eight accumulators into its eight dots.
    for (int64_t s0 = 0; s0 < n_segments; s0 += 8) {
        const int64_t group = std::min<int64_t>(8, n_segments - s0);
        __m256i acc[8];
        for (int64_t g = 0; g < 8; ++g) {
            acc[g] = _mm256_setzero_si256();
            if (g >= group)
                continue;
            const int64_t begin = (s0 + g) * segment_values;
            const int64_t end = begin + segment_values;
            if (int8_segments[s0 + g] != 0) {
                for (int64_t v = begin; v < end; v += 16) {
                    acc[g] = _mm256_add_epi32(
                        acc[g],
                        _mm256_madd_epi16(widenInt8x16(a.int8 + v),
                                          widenInt8x16(b.int8 + v)));
                }
            } else {
                for (int64_t v = begin; v < end; v += 16) {
                    acc[g] = _mm256_add_epi32(
                        acc[g],
                        _mm256_madd_epi16(widenInt4x16(a.int4 + v / 2),
                                          widenInt4x16(b.int4 + v / 2)));
                }
            }
        }
        alignas(32) int32_t sums[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(sums),
                           hsum8Epi32(acc));
        std::copy(sums, sums + group, out + s0);
    }
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
    int64_t i = 0;
    alignas(32) int32_t lanes[8];
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
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), q);
        for (int k = 0; k < 8; ++k)
            out[i + k] = static_cast<int8_t>(lanes[k]);
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

} // namespace avx2
} // namespace detail
} // namespace simd
} // namespace comet

#endif // COMET_SIMD_X86
