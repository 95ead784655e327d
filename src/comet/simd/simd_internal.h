/**
 * @file
 * Internal backend declarations for comet::simd. Each backend
 * implements the same signatures as the public API; simd.cc owns the
 * dispatch. Not installed as public API — include simd.h instead.
 */
#pragma once

#include <cstdint>

#include "comet/simd/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define COMET_SIMD_X86 1
#else
#define COMET_SIMD_X86 0
#endif

namespace comet {
namespace simd {
namespace detail {

/** Declares one backend's kernel set. @{ */
#define COMET_SIMD_DECLARE_BACKEND(ns)                                     \
    namespace ns {                                                         \
    void unpackInt4(const uint8_t *packed, int64_t n, int8_t *out);        \
    void packInt4(const int8_t *values, int64_t n, uint8_t *packed);       \
    void locationSwitchWords(const uint8_t *in, int64_t n_words,           \
                             uint8_t *out);                                \
    void interleaveUnits(const uint8_t *in, int64_t n_units,               \
                         uint8_t *out);                                    \
    void fastWidenW4A8(const uint8_t *prepared, int64_t n_values,          \
                       int8_t *out);                                       \
    int32_t dotInt8(const int8_t *a, const int8_t *b, int64_t n);          \
    int32_t dotInt4(const uint8_t *a, const uint8_t *b,                    \
                    int64_t n_values);                                     \
    void widenKernelBlock(const uint8_t *packed, const uint8_t *x16_tiles, \
                          int64_t n_tiles, int64_t tile_values,            \
                          int16_t *out);                                   \
    void dotColumnBlockRows(const int16_t *a, int64_t a_stride,            \
                            int64_t n_rows, const int16_t *w,              \
                            int64_t n_tiles, int64_t tile_values,          \
                            int32_t *out, int64_t out_stride);             \
    void scaleColumnBlockRows(const int32_t *dots, int64_t dots_stride,    \
                              const float *a_scales, int64_t a_stride,     \
                              int64_t n_rows, const float *w_scales,       \
                              int64_t w_stride, int64_t n_tiles,           \
                              float *out, int64_t out_stride);             \
    void minMaxUpdate(const float *x, int64_t n, float *mins,              \
                      float *maxs);                                        \
    void quantizeAffine(const float *x, const float *scales,               \
                        const int32_t *zero_points, int64_t n,             \
                        int32_t qmin, int32_t qmax, int8_t *out);          \
    void dequantAffine(const int8_t *q, const float *scales,               \
                       const int32_t *zero_points, int64_t n,              \
                       float *out);                                        \
    void dotRowsF32(const float *x, int64_t x_stride, int64_t n_x,         \
                    QuantRows rows, int64_t n_rows, int64_t n,             \
                    float *out, int64_t out_stride);                       \
    void gemvF32(const float *x, const float *rows, int64_t stride,        \
                 int64_t n_rows, int64_t n, float *out);                   \
    void accumulateRowsF32(const float *w, int64_t w_stride, int64_t n_w,  \
                           QuantRows rows, int64_t n_rows, int64_t n,      \
                           float *acc, int64_t acc_stride);                \
    void expF32(const float *x, int64_t n, float *out);                    \
    }

COMET_SIMD_DECLARE_BACKEND(scalar)
#if COMET_SIMD_X86
COMET_SIMD_DECLARE_BACKEND(avx2)
#endif

#undef COMET_SIMD_DECLARE_BACKEND
/** @} */

namespace scalar {
/** simd::dotColumnBlockRows at one row, element by element: the
 * reference every backend's dotColumnBlockRows is tested against. */
void dotColumnBlock(const int16_t *a, const int16_t *w, int64_t n_tiles,
                    int64_t tile_values, int32_t *out);
} // namespace scalar

/** Constants of expF32 (Cephes expf), shared so every backend runs
 * the same operations on the same values. @{ */
constexpr float kExpLo = -87.0f; ///< below: the result is +0.0f
constexpr float kExpHi = 88.0f;  ///< above: evaluated at kExpHi
constexpr float kExpLog2e = 1.44269504088896341f;
constexpr float kExpLn2Hi = 0.693359375f;
constexpr float kExpLn2Lo = -2.12194440e-4f;
constexpr float kExpPoly[6] = {1.9875691500e-4f, 1.3981999507e-3f,
                               8.3334519073e-3f, 4.1665795894e-2f,
                               1.6666665459e-1f, 5.0000001201e-1f};
/** @} */

/** True when the running CPU supports AVX2 (false off x86). */
bool avx2Supported();

} // namespace detail
} // namespace simd
} // namespace comet
