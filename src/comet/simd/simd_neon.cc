/**
 * @file
 * AArch64 NEON backend. NEON (Advanced SIMD) is baseline on AArch64,
 * so the whole file is guarded on the target architecture and no
 * runtime feature probe is needed beyond "we compiled for AArch64".
 *
 * Bit-identity with the scalar backend is load-bearing; see
 * simd_avx2.cc for the contract. Notably minMaxUpdate uses explicit
 * compare+select instead of vminq/vmaxq so NaN handling matches the
 * scalar ternaries, and quantizeAffine narrows with the modular
 * (non-saturating) vmovn to match the scalar static_cast.
 */
#include "comet/simd/simd_internal.h"

#if COMET_SIMD_AARCH64

#include <arm_neon.h>

#include <algorithm>
#include <cstring>

#include "comet/common/status.h"

namespace comet {
namespace simd {
namespace detail {
namespace neon {

namespace {

/** Sign-extends the 4-bit values held in each byte's low nibble. */
inline int8x16_t
signExtend4(uint8x16_t nibbles)
{
    const int8x16_t eight = vdupq_n_s8(8);
    return vsubq_s8(
        veorq_s8(vreinterpretq_s8_u8(nibbles), eight), eight);
}

/** Widening multiply-accumulate of 16 INT8 lanes into int32x4. */
inline int32x4_t
madd16x8(int32x4_t acc, int8x16_t a, int8x16_t b)
{
    const int16x8_t lo = vmull_s8(vget_low_s8(a), vget_low_s8(b));
    const int16x8_t hi = vmull_s8(vget_high_s8(a), vget_high_s8(b));
    return vpadalq_s16(vpadalq_s16(acc, lo), hi);
}

/** Eight float lanes of the fixed-order dot: l0..l3 and l4..l7. */
struct Lanes8 {
    float32x4_t lo;
    float32x4_t hi;
};

/** The fixed reduction tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). */
inline float
hsumTree(Lanes8 v)
{
    const float32x4_t pairs = vpaddq_f32(v.lo, v.hi);
    const float32x4_t quads = vpaddq_f32(pairs, pairs);
    return vgetq_lane_f32(quads, 0) + vgetq_lane_f32(quads, 1);
}

inline Lanes8
addProduct(Lanes8 acc, Lanes8 a, Lanes8 b)
{
    return {vaddq_f32(acc.lo, vmulq_f32(a.lo, b.lo)),
            vaddq_f32(acc.hi, vmulq_f32(a.hi, b.hi))};
}

/** Row readers: block(r, i) is values [i, i + 8) of row r as floats;
 * tail(r, i, count) reads count < 8 values and zero-fills the rest.
 * @{ */
struct NibbleRows {
    const uint8_t *data;
    int64_t stride;

    static Lanes8
    widen(uint32_t word)
    {
        // Value k sits in bits [4k, 4k + 4): shift it to the top of
        // its lane, then sign-extend it back down.
        const int32x4_t lo_shift = {28, 24, 20, 16};
        const int32x4_t hi_shift = {12, 8, 4, 0};
        const uint32x4_t w = vdupq_n_u32(word);
        return {vcvtq_f32_s32(vshrq_n_s32(
                    vreinterpretq_s32_u32(vshlq_u32(w, lo_shift)), 28)),
                vcvtq_f32_s32(vshrq_n_s32(
                    vreinterpretq_s32_u32(vshlq_u32(w, hi_shift)), 28))};
    }

    Lanes8
    block(int64_t r, int64_t i) const
    {
        uint32_t word;
        std::memcpy(&word, data + r * stride + i / 2, sizeof(word));
        return widen(word);
    }

    Lanes8
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

    static Lanes8
    widen(const int8_t *values)
    {
        const int16x8_t v16 = vmovl_s8(vld1_s8(values));
        return {vcvtq_f32_s32(vmovl_s16(vget_low_s16(v16))),
                vcvtq_f32_s32(vmovl_s16(vget_high_s16(v16)))};
    }

    Lanes8
    block(int64_t r, int64_t i) const
    {
        return widen(
            reinterpret_cast<const int8_t *>(data + r * stride + i));
    }

    Lanes8
    tail(int64_t r, int64_t i, int64_t count) const
    {
        int8_t values[8] = {};
        std::memcpy(values, data + r * stride + i,
                    static_cast<size_t>(count));
        return widen(values);
    }
};

struct FloatRows {
    const float *data;
    int64_t stride;

    Lanes8
    block(int64_t r, int64_t i) const
    {
        const float *p = data + r * stride + i;
        return {vld1q_f32(p), vld1q_f32(p + 4)};
    }

    Lanes8
    tail(int64_t r, int64_t i, int64_t count) const
    {
        float values[8] = {};
        std::memcpy(values, data + r * stride + i,
                    static_cast<size_t>(count) * sizeof(float));
        return {vld1q_f32(values), vld1q_f32(values + 4)};
    }
};
/** @} */

/** The fixed-order dots of @p G vectors against the @p R rows from
 * @p r0: per 8-value block, each row is widened once and multiplied by
 * every vector. A ragged tail adds zero products to the unused lanes
 * (@p x_tail holds each vector's tail, zero-padded), which leaves them
 * unchanged (a lane that starts at +0.0f never holds -0.0f). */
template <int G, int R, typename Rows>
void
dotTile(const float *x, int64_t x_stride, const float *x_tail,
        const Rows &rows, int64_t r0, int64_t n, float *out,
        int64_t out_stride)
{
    const int64_t full = n - n % 8;
    Lanes8 acc[R * G];
    for (int j = 0; j < R * G; ++j)
        acc[j] = {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)};
    for (int64_t i = 0; i < full; i += 8) {
        for (int r = 0; r < R; ++r) {
            const Lanes8 row = rows.block(r0 + r, i);
            for (int g = 0; g < G; ++g) {
                const float *xg = x + g * x_stride + i;
                acc[g * R + r] = addProduct(
                    acc[g * R + r], {vld1q_f32(xg), vld1q_f32(xg + 4)}, row);
            }
        }
    }
    if (full < n) {
        for (int r = 0; r < R; ++r) {
            const Lanes8 row = rows.tail(r0 + r, full, n - full);
            for (int g = 0; g < G; ++g) {
                const float *xg = x_tail + 8 * g;
                acc[g * R + r] = addProduct(
                    acc[g * R + r], {vld1q_f32(xg), vld1q_f32(xg + 4)}, row);
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        for (int g = 0; g < G; ++g)
            out[g * out_stride + r0 + r] = hsumTree(acc[g * R + r]);
    }
}

/** The fixed-order dots of @p G vectors against @p n_rows rows, in
 * tiles of 8 / G rows and then one row at a time. */
template <int G, typename Rows>
void
dotRowsImpl(const float *x, int64_t x_stride, const Rows &rows,
            int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    constexpr int R = 8 / G;
    const int64_t full = n - n % 8;
    float x_tail[8 * G] = {};
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
void
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
void
dotRowsAny(const float *x, int64_t x_stride, int64_t n_x, const Rows &rows,
           int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    for (int64_t g = 0; g < n_x; g += kRowVectorBlock)
        dotRowsBlock(x + g * x_stride, x_stride,
                     std::min(n_x - g, kRowVectorBlock), rows, n_rows, n,
                     out + g * out_stride, out_stride);
}

/** acc_g[i, i + 8) += w_g[r] * row_r[i, i + 8) over the whole 8-value
 * blocks for @p G vectors, rows in order: each row block is widened
 * once for every vector. */
template <int G, typename Rows>
void
accumulateImpl(const float *w, int64_t w_stride, const Rows &rows,
               int64_t n_rows, int64_t full, float *acc, int64_t acc_stride)
{
    for (int64_t i = 0; i < full; i += 8) {
        Lanes8 a[G];
        for (int g = 0; g < G; ++g) {
            const float *acc_g = acc + g * acc_stride + i;
            a[g] = {vld1q_f32(acc_g), vld1q_f32(acc_g + 4)};
        }
        for (int64_t r = 0; r < n_rows; ++r) {
            const Lanes8 row = rows.block(r, i);
            for (int g = 0; g < G; ++g) {
                const float32x4_t wr = vdupq_n_f32(w[g * w_stride + r]);
                a[g] = addProduct(a[g], {wr, wr}, row);
            }
        }
        for (int g = 0; g < G; ++g) {
            float *acc_g = acc + g * acc_stride + i;
            vst1q_f32(acc_g, a[g].lo);
            vst1q_f32(acc_g + 4, a[g].hi);
        }
    }
}

/** accumulateImpl<n_w>, for 1 <= @p n_w <= kRowVectorBlock. */
template <int G = 1, typename Rows>
void
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
void
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

void
unpackInt4(const uint8_t *packed, int64_t n, int8_t *out)
{
    const uint8x16_t lo_mask = vdupq_n_u8(0x0f);
    int64_t v = 0;
    for (; n - v >= 32; v += 32) {
        const uint8x16_t bytes = vld1q_u8(packed + v / 2);
        const int8x16_t lo = signExtend4(vandq_u8(bytes, lo_mask));
        const int8x16_t hi = signExtend4(vshrq_n_u8(bytes, 4));
        vst1q_s8(out + v, vzip1q_s8(lo, hi));
        vst1q_s8(out + v + 16, vzip2q_s8(lo, hi));
    }
    scalar::unpackInt4(packed + v / 2, n - v, out + v);
}

void
packInt4(const int8_t *values, int64_t n, uint8_t *packed)
{
    const int8x16_t max4 = vdupq_n_s8(7);
    const int8x16_t min4 = vdupq_n_s8(-8);
    const uint8x16_t lo_mask = vdupq_n_u8(0x0f);
    int64_t v = 0;
    for (; n - v >= 32; v += 32) {
        const int8x16_t a = vld1q_s8(values + v);
        const int8x16_t b = vld1q_s8(values + v + 16);
        const uint8x16_t bad = vorrq_u8(
            vorrq_u8(vcgtq_s8(a, max4), vcgtq_s8(min4, a)),
            vorrq_u8(vcgtq_s8(b, max4), vcgtq_s8(min4, b)));
        COMET_CHECK_MSG(vmaxvq_u8(bad) == 0,
                        "INT4 pack value outside [-8, 7]");
        const uint8x16_t even = vreinterpretq_u8_s8(vuzp1q_s8(a, b));
        const uint8x16_t odd = vreinterpretq_u8_s8(vuzp2q_s8(a, b));
        vst1q_u8(packed + v / 2,
                 vorrq_u8(vandq_u8(even, lo_mask),
                          vshlq_n_u8(odd, 4)));
    }
    scalar::packInt4(values + v, n - v, packed + v / 2);
}

void
locationSwitchWords(const uint8_t *in, int64_t n_words, uint8_t *out)
{
    const uint32x4_t mask16 = vdupq_n_u32(0x0000ffffu);
    const uint32x4_t mask8 = vdupq_n_u32(0x00ff00ffu);
    const uint32x4_t mask4 = vdupq_n_u32(0x0f0f0f0fu);
    int64_t w = 0;
    for (; n_words - w >= 4; w += 4) {
        const uint32x4_t word =
            vreinterpretq_u32_u8(vld1q_u8(in + 4 * w));
        uint32x4_t lo = vandq_u32(word, mask16);
        uint32x4_t hi = vshrq_n_u32(word, 16);
        lo = vandq_u32(vorrq_u32(lo, vshlq_n_u32(lo, 8)), mask8);
        lo = vandq_u32(vorrq_u32(lo, vshlq_n_u32(lo, 4)), mask4);
        hi = vandq_u32(vorrq_u32(hi, vshlq_n_u32(hi, 8)), mask8);
        hi = vandq_u32(vorrq_u32(hi, vshlq_n_u32(hi, 4)), mask4);
        vst1q_u8(out + 4 * w,
                 vreinterpretq_u8_u32(
                     vorrq_u32(lo, vshlq_n_u32(hi, 4))));
    }
    scalar::locationSwitchWords(in + 4 * w, n_words - w, out + 4 * w);
}

void
interleaveUnits(const uint8_t *in, int64_t n_units, uint8_t *out)
{
    // Per 8-byte unit: swap byte pairs (2,3) <-> (4,5).
    const uint8x16_t pattern = {0, 1, 4,  5,  2,  3,  6,  7,
                                8, 9, 12, 13, 10, 11, 14, 15};
    int64_t u = 0;
    for (; n_units - u >= 2; u += 2) {
        const uint8x16_t bytes = vld1q_u8(in + 8 * u);
        vst1q_u8(out + 8 * u, vqtbl1q_u8(bytes, pattern));
    }
    scalar::interleaveUnits(in + 8 * u, n_units - u, out + 8 * u);
}

void
fastWidenW4A8(const uint8_t *prepared, int64_t n_values, int8_t *out)
{
    const uint8x16_t hi_mask = vdupq_n_u8(0xf0);
    int64_t v = 0;
    for (; n_values - v >= 32; v += 32) {
        const uint8x16_t bytes = vld1q_u8(prepared + v / 2);
        const uint64x2_t lo = vreinterpretq_u64_u8(
            vshlq_n_u8(vandq_u8(bytes, vdupq_n_u8(0x0f)), 4));
        const uint64x2_t hi =
            vreinterpretq_u64_u8(vandq_u8(bytes, hi_mask));
        // Per 16-value unit (one 64-bit lane of input) the output is
        // [lo(unit), hi(unit)]: zip at 64-bit granularity.
        vst1q_s8(out + v, vreinterpretq_s8_u64(vzip1q_u64(lo, hi)));
        vst1q_s8(out + v + 16,
                 vreinterpretq_s8_u64(vzip2q_u64(lo, hi)));
    }
    scalar::fastWidenW4A8(prepared + v / 2, n_values - v, out + v);
}

int32_t
dotInt8(const int8_t *a, const int8_t *b, int64_t n)
{
    int32x4_t acc = vdupq_n_s32(0);
    int64_t i = 0;
    for (; n - i >= 16; i += 16) {
        acc = madd16x8(acc, vld1q_s8(a + i), vld1q_s8(b + i));
    }
    return vaddvq_s32(acc) + scalar::dotInt8(a + i, b + i, n - i);
}

int32_t
dotInt4(const uint8_t *a, const uint8_t *b, int64_t n_values)
{
    const uint8x16_t lo_mask = vdupq_n_u8(0x0f);
    int32x4_t acc = vdupq_n_s32(0);
    int64_t v = 0;
    for (; n_values - v >= 32; v += 32) {
        const uint8x16_t ab = vld1q_u8(a + v / 2);
        const uint8x16_t bb = vld1q_u8(b + v / 2);
        acc = madd16x8(acc, signExtend4(vandq_u8(ab, lo_mask)),
                       signExtend4(vandq_u8(bb, lo_mask)));
        acc = madd16x8(acc, signExtend4(vshrq_n_u8(ab, 4)),
                       signExtend4(vshrq_n_u8(bb, 4)));
    }
    return vaddvq_s32(acc) +
           scalar::dotInt4(a + v / 2, b + v / 2, n_values - v);
}

void
widenColumnBlock(const int8_t *columns, int64_t stride, int64_t n_values,
                 int16_t *out)
{
    int64_t v = 0;
    for (; n_values - v >= 8; v += 8) {
        // Column c's 8 values as four 32-bit pairs; a 4 x 4 transpose
        // of the pairs per half-block gives pair p of every column.
        int32x4_t r[kColumnBlock];
        for (int c = 0; c < kColumnBlock; ++c)
            r[c] = vreinterpretq_s32_s16(
                vmovl_s8(vld1_s8(columns + c * stride + v)));
        int32_t *dst = reinterpret_cast<int32_t *>(out + v * kColumnBlock);
        for (int h = 0; h < kColumnBlock; h += 4) {
            const int64x2_t t0 =
                vreinterpretq_s64_s32(vtrn1q_s32(r[h], r[h + 1]));
            const int64x2_t t1 =
                vreinterpretq_s64_s32(vtrn2q_s32(r[h], r[h + 1]));
            const int64x2_t t2 =
                vreinterpretq_s64_s32(vtrn1q_s32(r[h + 2], r[h + 3]));
            const int64x2_t t3 =
                vreinterpretq_s64_s32(vtrn2q_s32(r[h + 2], r[h + 3]));
            vst1q_s32(dst + 0 * kColumnBlock + h,
                      vreinterpretq_s32_s64(vtrn1q_s64(t0, t2)));
            vst1q_s32(dst + 1 * kColumnBlock + h,
                      vreinterpretq_s32_s64(vtrn1q_s64(t1, t3)));
            vst1q_s32(dst + 2 * kColumnBlock + h,
                      vreinterpretq_s32_s64(vtrn2q_s64(t0, t2)));
            vst1q_s32(dst + 3 * kColumnBlock + h,
                      vreinterpretq_s32_s64(vtrn2q_s64(t1, t3)));
        }
    }
    if (v < n_values)
        scalar::widenColumnBlock(columns + v, stride, n_values - v,
                                 out + v * kColumnBlock);
}

void
dotColumnBlock(const int16_t *a, const int16_t *w, int64_t n_tiles,
               int64_t tile_values, int32_t *out)
{
    // Per value pair, vld2q splits the block's pair row into the eight
    // columns' even and odd values; each multiplies its broadcast row
    // value into two four-column accumulators.
    for (int64_t t = 0; t < n_tiles; ++t) {
        int32x4_t lo = vdupq_n_s32(0);
        int32x4_t hi = vdupq_n_s32(0);
        for (int64_t v = t * tile_values; v < (t + 1) * tile_values;
             v += 2) {
            const int16x8x2_t pair = vld2q_s16(w + v * kColumnBlock);
            lo = vmlal_n_s16(lo, vget_low_s16(pair.val[0]), a[v]);
            hi = vmlal_high_n_s16(hi, pair.val[0], a[v]);
            lo = vmlal_n_s16(lo, vget_low_s16(pair.val[1]), a[v + 1]);
            hi = vmlal_high_n_s16(hi, pair.val[1], a[v + 1]);
        }
        vst1q_s32(out + t * kColumnBlock, lo);
        vst1q_s32(out + t * kColumnBlock + 4, hi);
    }
}

void
scaleColumnBlock(const int32_t *dots, const float *a_scales,
                 const float *w_scales, int64_t w_stride, int64_t n_tiles,
                 float *out)
{
    float32x4_t lo = vdupq_n_f32(0.0f);
    float32x4_t hi = vdupq_n_f32(0.0f);
    for (int64_t t = 0; t < n_tiles; ++t) {
        const int32_t *d = dots + t * kColumnBlock;
        const float *w = w_scales + t * w_stride;
        lo = vaddq_f32(lo, vmulq_f32(vmulq_n_f32(vcvtq_f32_s32(vld1q_s32(d)),
                                                 a_scales[t]),
                                     vld1q_f32(w)));
        hi = vaddq_f32(hi,
                       vmulq_f32(vmulq_n_f32(vcvtq_f32_s32(vld1q_s32(d + 4)),
                                             a_scales[t]),
                                 vld1q_f32(w + 4)));
    }
    vst1q_f32(out, lo);
    vst1q_f32(out + 4, hi);
}

void
minMaxUpdate(const float *x, int64_t n, float *mins, float *maxs)
{
    int64_t i = 0;
    for (; n - i >= 4; i += 4) {
        const float32x4_t xv = vld1q_f32(x + i);
        const float32x4_t mn = vld1q_f32(mins + i);
        const float32x4_t mx = vld1q_f32(maxs + i);
        // Compare+select (not vminq/vmaxq) so NaN lanes resolve the
        // way the scalar ternaries do: keep the running value.
        vst1q_f32(mins + i, vbslq_f32(vcltq_f32(xv, mn), xv, mn));
        vst1q_f32(maxs + i, vbslq_f32(vcgtq_f32(xv, mx), xv, mx));
    }
    scalar::minMaxUpdate(x + i, n - i, mins + i, maxs + i);
}

void
quantizeAffine(const float *x, const float *scales,
               const int32_t *zero_points, int64_t n, int32_t qmin,
               int32_t qmax, int8_t *out)
{
    const uint32x4_t sign_mask = vdupq_n_u32(0x80000000u);
    const uint32x4_t half_bits =
        vreinterpretq_u32_f32(vdupq_n_f32(0.5f));
    const int32x4_t qmin_v = vdupq_n_s32(qmin);
    const int32x4_t qmax_v = vdupq_n_s32(qmax);
    int64_t i = 0;
    for (; n - i >= 8; i += 8) {
        int32x4_t q[2];
        for (int half = 0; half < 2; ++half) {
            const int64_t base = i + 4 * half;
            const float32x4_t t = vdivq_f32(vld1q_f32(x + base),
                                            vld1q_f32(scales + base));
            // Round half away from zero: add copysign(0.5, t), then
            // truncate — exactly the scalar rounding.
            const float32x4_t rounded = vaddq_f32(
                t, vreinterpretq_f32_u32(vorrq_u32(
                       vandq_u32(vreinterpretq_u32_f32(t), sign_mask),
                       half_bits)));
            int32x4_t qv = vaddq_s32(vcvtq_s32_f32(rounded),
                                     vld1q_s32(zero_points + base));
            q[half] =
                vminq_s32(vmaxq_s32(qv, qmin_v), qmax_v);
        }
        // Modular narrow (vmovn) matches the scalar static_cast.
        vst1_s8(out + i,
                vmovn_s16(vcombine_s16(vmovn_s32(q[0]),
                                       vmovn_s32(q[1]))));
    }
    scalar::quantizeAffine(x + i, scales + i, zero_points + i, n - i,
                           qmin, qmax, out + i);
}

void
dequantAffine(const int8_t *q, const float *scales,
              const int32_t *zero_points, int64_t n, float *out)
{
    int64_t i = 0;
    for (; n - i >= 8; i += 8) {
        const int16x8_t q16 = vmovl_s8(vld1_s8(q + i));
        const int32x4_t lo = vsubq_s32(vmovl_s16(vget_low_s16(q16)),
                                       vld1q_s32(zero_points + i));
        const int32x4_t hi =
            vsubq_s32(vmovl_s16(vget_high_s16(q16)),
                      vld1q_s32(zero_points + i + 4));
        vst1q_f32(out + i, vmulq_f32(vcvtq_f32_s32(lo),
                                     vld1q_f32(scales + i)));
        vst1q_f32(out + i + 4, vmulq_f32(vcvtq_f32_s32(hi),
                                         vld1q_f32(scales + i + 4)));
    }
    scalar::dequantAffine(q + i, scales + i, zero_points + i, n - i,
                          out + i);
}

void
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

void
gemvF32(const float *x, const float *rows, int64_t stride, int64_t n_rows,
        int64_t n, float *out)
{
    dotRowsImpl<1>(x, 0, FloatRows{rows, stride}, n_rows, n, out, 0);
}

void
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

void
expF32(const float *x, int64_t n, float *out)
{
    const float32x4_t lo = vdupq_n_f32(kExpLo);
    const float32x4_t hi = vdupq_n_f32(kExpHi);
    int64_t i = 0;
    for (; n - i >= 4; i += 4) {
        const float32x4_t xv = vld1q_f32(x + i);
        const float32x4_t v = vbslq_f32(vcgtq_f32(xv, hi), hi, xv);
        const float32x4_t k = vrndmq_f32(vaddq_f32(
            vmulq_f32(v, vdupq_n_f32(kExpLog2e)), vdupq_n_f32(0.5f)));
        const float32x4_t r = vsubq_f32(
            vsubq_f32(v, vmulq_f32(k, vdupq_n_f32(kExpLn2Hi))),
            vmulq_f32(k, vdupq_n_f32(kExpLn2Lo)));
        float32x4_t p = vdupq_n_f32(kExpPoly[0]);
        for (int j = 1; j < 6; ++j)
            p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(kExpPoly[j]));
        p = vaddq_f32(vaddq_f32(vmulq_f32(p, vmulq_f32(r, r)), r),
                      vdupq_n_f32(1.0f));
        const int32x4_t bits = vshlq_n_s32(
            vaddq_s32(vcvtq_s32_f32(k), vdupq_n_s32(127)), 23);
        float32x4_t e = vmulq_f32(p, vreinterpretq_f32_s32(bits));
        e = vbslq_f32(vcltq_f32(xv, lo), vdupq_n_f32(0.0f), e);
        // A NaN lane returns its input, as the scalar backend does.
        e = vbslq_f32(vceqq_f32(xv, xv), e, xv);
        vst1q_f32(out + i, e);
    }
    scalar::expF32(x + i, n - i, out + i);
}

} // namespace neon
} // namespace detail
} // namespace simd
} // namespace comet

#endif // COMET_SIMD_AARCH64
