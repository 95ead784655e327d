/**
 * @file
 * Portable scalar backend: the reference semantics every SIMD backend
 * must reproduce bit-for-bit. The loops here are the original
 * per-element emulation loops, hoisted to span level.
 */
#include "comet/simd/simd_internal.h"

#include <cmath>
#include <cstring>

#include "comet/common/status.h"

namespace comet {
namespace simd {
namespace detail {
namespace scalar {

namespace {

/** Sign-extends a 4-bit two's-complement nibble. */
inline int8_t
signExtend4(uint32_t nibble)
{
    return static_cast<int8_t>(nibble >= 8
                                   ? static_cast<int>(nibble) - 16
                                   : static_cast<int>(nibble));
}

/** Loads a little-endian 32-bit register word from bytes. */
inline uint32_t
loadWordLe(const uint8_t *p)
{
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap32(word);
#endif
    return word;
}

/** Stores a 32-bit register word as little-endian bytes. */
inline void
storeWordLe(uint8_t *p, uint32_t word)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap32(word);
#endif
    std::memcpy(p, &word, sizeof(word));
}

/** Value @p i of a raw quantized row, as float. */
inline float
quantValue(const uint8_t *row, bool packed, int64_t i)
{
    if (!packed)
        return static_cast<float>(static_cast<int8_t>(row[i]));
    const uint32_t byte = row[i / 2];
    return static_cast<float>(
        signExtend4(i % 2 == 0 ? byte & 0x0f : byte >> 4));
}

/** The fixed-order dot product (simd.h): eight lanes, value i into
 * lane i % 8, then the fixed reduction tree. */
template <typename Value>
float
laneDot(const float *x, int64_t n, Value value)
{
    float lanes[8] = {};
    for (int64_t i = 0; i < n; ++i)
        lanes[i % 8] += x[i] * value(i);
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

} // namespace

void
unpackInt4(const uint8_t *packed, int64_t n, int8_t *out)
{
    for (int64_t i = 0; i < n; i += 2) {
        const uint8_t byte = packed[i / 2];
        out[i] = signExtend4(byte & 0x0f);
        out[i + 1] = signExtend4(static_cast<uint32_t>(byte) >> 4);
    }
}

void
packInt4(const int8_t *values, int64_t n, uint8_t *packed)
{
    for (int64_t i = 0; i < n; i += 2) {
        const int8_t lo = values[i], hi = values[i + 1];
        COMET_CHECK_MSG(lo >= -8 && lo <= 7 && hi >= -8 && hi <= 7,
                        "INT4 pack value outside [-8, 7]");
        packed[i / 2] = static_cast<uint8_t>(
            (static_cast<uint8_t>(lo) & 0x0f) |
            (static_cast<uint8_t>(hi) << 4));
    }
}

void
locationSwitchWords(const uint8_t *in, int64_t n_words, uint8_t *out)
{
    for (int64_t w = 0; w < n_words; ++w) {
        const uint32_t word = loadWordLe(in + 4 * w);
        // Spread the low/high 16-bit halves so logical nibbles 0..3
        // land in even slots and 4..7 in odd slots (see convert.cc).
        uint32_t lo = word & 0xffffu;
        uint32_t hi = word >> 16;
        lo = (lo | (lo << 8)) & 0x00ff00ffu;
        lo = (lo | (lo << 4)) & 0x0f0f0f0fu;
        hi = (hi | (hi << 8)) & 0x00ff00ffu;
        hi = (hi | (hi << 4)) & 0x0f0f0f0fu;
        storeWordLe(out + 4 * w, lo | (hi << 4));
    }
}

void
interleaveUnits(const uint8_t *in, int64_t n_units, uint8_t *out)
{
    for (int64_t u = 0; u < n_units; ++u) {
        const uint8_t *src = in + 8 * u;
        uint8_t unit[8] = {src[0], src[1], src[4], src[5],
                           src[2], src[3], src[6], src[7]};
        std::memcpy(out + 8 * u, unit, 8);
    }
}

void
fastWidenW4A8(const uint8_t *prepared, int64_t n_values, int8_t *out)
{
    for (int64_t v = 0; v < n_values; v += 16) {
        const uint8_t *src = prepared + v / 2;
        const uint32_t w0 = loadWordLe(src);
        const uint32_t w1 = loadWordLe(src + 4);
        uint8_t *dst = reinterpret_cast<uint8_t *>(out + v);
        storeWordLe(dst, (w0 << 4) & 0xf0f0f0f0u);
        storeWordLe(dst + 4, (w1 << 4) & 0xf0f0f0f0u);
        storeWordLe(dst + 8, w0 & 0xf0f0f0f0u);
        storeWordLe(dst + 12, w1 & 0xf0f0f0f0u);
    }
}

int32_t
dotInt8(const int8_t *a, const int8_t *b, int64_t n)
{
    int32_t acc = 0;
    for (int64_t i = 0; i < n; ++i) {
        acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    }
    return acc;
}

int32_t
dotInt4(const uint8_t *a, const uint8_t *b, int64_t n_values)
{
    int32_t acc = 0;
    for (int64_t i = 0; i < n_values; i += 2) {
        const uint8_t ab = a[i / 2], bb = b[i / 2];
        acc += static_cast<int32_t>(signExtend4(ab & 0x0f)) *
               static_cast<int32_t>(signExtend4(bb & 0x0f));
        acc += static_cast<int32_t>(
                   signExtend4(static_cast<uint32_t>(ab) >> 4)) *
               static_cast<int32_t>(
                   signExtend4(static_cast<uint32_t>(bb) >> 4));
    }
    return acc;
}

void
widenKernelBlock(const uint8_t *packed, const uint8_t *x16_tiles,
                 int64_t n_tiles, int64_t tile_values, int16_t *out)
{
    constexpr int64_t kStep = kKernelStepBytes;
    for (int64_t t = 0; t < n_tiles; ++t) {
        const bool x16 = x16_tiles[t] != 0;
        for (int64_t s = t * tile_values / 8; s < (t + 1) * tile_values / 8;
             ++s) {
            const uint8_t *src = packed + s * kStep;
            int16_t *dst = out + s * 2 * kStep;
            for (int64_t i = 0; i < kStep; ++i) {
                // The fast conversion puts each nibble in the high bits
                // of an INT8 byte (shl + and, and): 16x its value.
                const uint32_t byte = src[i];
                dst[i] = x16 ? static_cast<int8_t>((byte << 4) & 0xf0u)
                             : signExtend4(byte & 0x0f);
                dst[kStep + i] = x16 ? static_cast<int8_t>(byte & 0xf0u)
                                     : signExtend4(byte >> 4);
            }
        }
    }
}

void
dotColumnBlock(const int16_t *a, const int16_t *w, int64_t n_tiles,
               int64_t tile_values, int32_t *out)
{
    for (int64_t t = 0; t < n_tiles; ++t) {
        for (int64_t c = 0; c < kColumnBlock; ++c) {
            int32_t acc = 0;
            for (int64_t v = t * tile_values; v < (t + 1) * tile_values;
                 ++v)
                acc += static_cast<int32_t>(a[v]) *
                       static_cast<int32_t>(
                           w[((v / 2) * kColumnBlock + c) * 2 + v % 2]);
            out[t * kColumnBlock + c] = acc;
        }
    }
}

void
dotColumnBlockRows(const int16_t *a, int64_t a_stride, int64_t n_rows,
                   const int16_t *w, int64_t n_tiles, int64_t tile_values,
                   int32_t *out, int64_t out_stride)
{
    for (int64_t r = 0; r < n_rows; ++r)
        dotColumnBlock(a + r * a_stride, w, n_tiles, tile_values,
                       out + r * out_stride);
}

void
scaleColumnBlockRows(const int32_t *dots, int64_t dots_stride,
                     const float *a_scales, int64_t a_stride, int64_t n_rows,
                     const float *w_scales, int64_t w_stride, int64_t n_tiles,
                     float *out, int64_t out_stride)
{
    for (int64_t r = 0; r < n_rows; ++r) {
        for (int64_t c = 0; c < kColumnBlock; ++c) {
            float sum = 0.0f;
            for (int64_t t = 0; t < n_tiles; ++t)
                sum += static_cast<float>(
                           dots[r * dots_stride + t * kColumnBlock + c]) *
                       a_scales[r * a_stride + t] * w_scales[t * w_stride + c];
            out[r * out_stride + c] = sum;
        }
    }
}

void
minMaxUpdate(const float *x, int64_t n, float *mins, float *maxs)
{
    for (int64_t i = 0; i < n; ++i) {
        mins[i] = x[i] < mins[i] ? x[i] : mins[i];
        maxs[i] = x[i] > maxs[i] ? x[i] : maxs[i];
    }
}

void
quantizeAffine(const float *x, const float *scales,
               const int32_t *zero_points, int64_t n, int32_t qmin,
               int32_t qmax, int8_t *out)
{
    for (int64_t i = 0; i < n; ++i) {
        // Round half away from zero — the QuantParams::quantize
        // rounding, reproduced operation for operation.
        const float t = x[i] / scales[i];
        int32_t q = static_cast<int32_t>(t >= 0 ? t + 0.5f : t - 0.5f) +
                    zero_points[i];
        q = q < qmin ? qmin : q;
        q = q > qmax ? qmax : q;
        out[i] = static_cast<int8_t>(q);
    }
}

void
dequantAffine(const int8_t *q, const float *scales,
              const int32_t *zero_points, int64_t n, float *out)
{
    for (int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<float>(static_cast<int32_t>(q[i]) -
                                    zero_points[i]) *
                 scales[i];
    }
}

void
dotRowsF32(const float *x, int64_t x_stride, int64_t n_x, QuantRows rows,
           int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    for (int64_t r = 0; r < n_rows; ++r) {
        const uint8_t *row = rows.data + r * rows.stride;
        for (int64_t g = 0; g < n_x; ++g) {
            out[g * out_stride + r] =
                laneDot(x + g * x_stride, n, [&](int64_t i) {
                    return quantValue(row, rows.packed, i);
                });
        }
    }
}

void
gemvF32(const float *x, const float *rows, int64_t stride, int64_t n_rows,
        int64_t n, float *out)
{
    for (int64_t r = 0; r < n_rows; ++r) {
        const float *row = rows + r * stride;
        out[r] = laneDot(x, n, [&](int64_t i) { return row[i]; });
    }
}

void
accumulateRowsF32(const float *w, int64_t w_stride, int64_t n_w,
                  QuantRows rows, int64_t n_rows, int64_t n, float *acc,
                  int64_t acc_stride)
{
    for (int64_t r = 0; r < n_rows; ++r) {
        const uint8_t *row = rows.data + r * rows.stride;
        for (int64_t g = 0; g < n_w; ++g) {
            const float wr = w[g * w_stride + r];
            float *acc_g = acc + g * acc_stride;
            for (int64_t i = 0; i < n; ++i)
                acc_g[i] += wr * quantValue(row, rows.packed, i);
        }
    }
}

void
expF32(const float *x, int64_t n, float *out)
{
    for (int64_t i = 0; i < n; ++i) {
        float v = x[i];
        if (std::isnan(v)) {
            out[i] = v;
            continue;
        }
        if (v < kExpLo) {
            out[i] = 0.0f;
            continue;
        }
        v = v > kExpHi ? kExpHi : v;
        const float k = std::floor(v * kExpLog2e + 0.5f);
        const float r = (v - k * kExpLn2Hi) - k * kExpLn2Lo;
        float p = kExpPoly[0];
        for (int j = 1; j < 6; ++j)
            p = p * r + kExpPoly[j];
        p = (p * (r * r) + r) + 1.0f;
        const uint32_t bits = static_cast<uint32_t>(
                                  static_cast<int32_t>(k) + 127)
                              << 23;
        float pow2;
        std::memcpy(&pow2, &bits, sizeof(pow2));
        out[i] = p * pow2;
    }
}

} // namespace scalar
} // namespace detail
} // namespace simd
} // namespace comet
