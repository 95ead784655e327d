/**
 * @file
 * Mode management and dispatch for comet::simd. The active backend is
 * resolved once per process from `COMET_SIMD` and every public routine
 * forwards through a switch; argument-shape invariants are checked
 * here so backends can assume well-formed spans.
 */
#include "comet/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "comet/common/status.h"
#include "comet/simd/simd_internal.h"

#if COMET_SIMD_X86 && defined(__GNUC__)
#define COMET_SIMD_HAVE_CPU_SUPPORTS 1
#else
#define COMET_SIMD_HAVE_CPU_SUPPORTS 0
#endif

namespace comet {
namespace simd {

namespace detail {

bool
avx2Supported()
{
#if COMET_SIMD_HAVE_CPU_SUPPORTS
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

} // namespace detail

namespace {

constexpr Mode kModeUnset = static_cast<Mode>(-1);

std::atomic<Mode> g_mode{kModeUnset};

Mode
bestSupportedMode()
{
    return detail::avx2Supported() ? Mode::kAvx2 : Mode::kScalar;
}

Mode
resolveFromEnv()
{
    const char *env = std::getenv("COMET_SIMD");
    if (env == nullptr || env[0] == '\0') return bestSupportedMode();
    return parseMode(env);
}

/** The active mode, resolving from the environment on first use. */
inline Mode
mode()
{
    Mode m = g_mode.load(std::memory_order_relaxed);
    if (m == kModeUnset) {
        m = resolveFromEnv();
        g_mode.store(m, std::memory_order_relaxed);
    }
    return m;
}

} // namespace

const char *
modeName(Mode m)
{
    switch (m) {
    case Mode::kScalar: return "scalar";
    case Mode::kAvx2: return "avx2";
    }
    return "unknown";
}

bool
modeSupported(Mode m)
{
    switch (m) {
    case Mode::kScalar: return true;
    case Mode::kAvx2: return detail::avx2Supported();
    }
    return false;
}

std::vector<Mode>
supportedModes()
{
    std::vector<Mode> modes{Mode::kScalar};
    if (modeSupported(Mode::kAvx2)) modes.push_back(Mode::kAvx2);
    return modes;
}

Mode
activeMode()
{
    return mode();
}

void
setMode(Mode m)
{
    COMET_CHECK_MSG(modeSupported(m),
                    "COMET_SIMD mode not supported on this machine");
    g_mode.store(m, std::memory_order_relaxed);
}

Mode
parseMode(const char *name)
{
    COMET_CHECK(name != nullptr);
    if (std::strcmp(name, "auto") == 0) return bestSupportedMode();
    for (Mode m : {Mode::kScalar, Mode::kAvx2}) {
        if (std::strcmp(name, modeName(m)) == 0) {
            COMET_CHECK_MSG(
                modeSupported(m),
                "COMET_SIMD requests a backend this machine lacks");
            return m;
        }
    }
    COMET_CHECK_MSG(false, "unknown COMET_SIMD value");
    return Mode::kScalar; // unreachable
}

// Dispatch: one switch per routine. The kAvx2 case only exists on x86,
// where the backend compiles; setMode/parseMode guarantee the active
// mode is always a compiled-in backend.
#if COMET_SIMD_X86
#define COMET_SIMD_AVX2_CASE(call)                                    \
    case Mode::kAvx2: return detail::avx2::call
#else
#define COMET_SIMD_AVX2_CASE(call)                                    \
    case Mode::kAvx2: break
#endif

#define COMET_SIMD_DISPATCH(call)                                     \
    switch (mode()) {                                                 \
        COMET_SIMD_AVX2_CASE(call);                                   \
    default: break;                                                   \
    }                                                                 \
    return detail::scalar::call

void
unpackInt4(const uint8_t *packed, int64_t n, int8_t *out)
{
    COMET_CHECK(n >= 0 && n % 2 == 0);
    COMET_SIMD_DISPATCH(unpackInt4(packed, n, out));
}

void
packInt4(const int8_t *values, int64_t n, uint8_t *packed)
{
    COMET_CHECK(n >= 0 && n % 2 == 0);
    COMET_SIMD_DISPATCH(packInt4(values, n, packed));
}

void
locationSwitchWords(const uint8_t *in, int64_t n_words, uint8_t *out)
{
    COMET_CHECK(n_words >= 0);
    COMET_SIMD_DISPATCH(locationSwitchWords(in, n_words, out));
}

void
interleaveUnits(const uint8_t *in, int64_t n_units, uint8_t *out)
{
    COMET_CHECK(n_units >= 0);
    COMET_SIMD_DISPATCH(interleaveUnits(in, n_units, out));
}

void
fastWidenW4A8(const uint8_t *prepared, int64_t n_values, int8_t *out)
{
    COMET_CHECK(n_values >= 0 && n_values % 16 == 0);
    COMET_SIMD_DISPATCH(fastWidenW4A8(prepared, n_values, out));
}

int32_t
dotInt8(const int8_t *a, const int8_t *b, int64_t n)
{
    COMET_CHECK(n >= 0);
    COMET_SIMD_DISPATCH(dotInt8(a, b, n));
}

int32_t
dotInt4(const uint8_t *a, const uint8_t *b, int64_t n_values)
{
    COMET_CHECK(n_values >= 0 && n_values % 2 == 0);
    COMET_SIMD_DISPATCH(dotInt4(a, b, n_values));
}

void
widenKernelBlock(const uint8_t *packed, const uint8_t *x16_tiles,
                 int64_t n_tiles, int64_t tile_values, int16_t *out)
{
    COMET_CHECK(n_tiles >= 0 && tile_values > 0 && tile_values % 8 == 0);
    COMET_SIMD_DISPATCH(
        widenKernelBlock(packed, x16_tiles, n_tiles, tile_values, out));
}

void
dotColumnBlockRows(const int16_t *a, int64_t a_stride, int64_t n_rows,
                   const int16_t *w, int64_t n_tiles, int64_t tile_values,
                   int32_t *out, int64_t out_stride)
{
    COMET_CHECK(n_rows >= 1 && n_rows <= kColumnBlockRows);
    COMET_CHECK(n_tiles >= 0 && tile_values > 0 && tile_values % 16 == 0);
    COMET_SIMD_DISPATCH(dotColumnBlockRows(a, a_stride, n_rows, w, n_tiles,
                                           tile_values, out, out_stride));
}

void
scaleColumnBlockRows(const int32_t *dots, int64_t dots_stride,
                     const float *a_scales, int64_t a_stride, int64_t n_rows,
                     const float *w_scales, int64_t w_stride, int64_t n_tiles,
                     float *out, int64_t out_stride)
{
    COMET_CHECK(n_rows >= 1 && n_rows <= kColumnBlockRows);
    COMET_CHECK(n_tiles >= 0 && (n_tiles <= 1 || w_stride >= kColumnBlock));
    COMET_SIMD_DISPATCH(scaleColumnBlockRows(dots, dots_stride, a_scales,
                                             a_stride, n_rows, w_scales,
                                             w_stride, n_tiles, out,
                                             out_stride));
}

void
minMaxUpdate(const float *x, int64_t n, float *mins, float *maxs)
{
    COMET_CHECK(n >= 0);
    COMET_SIMD_DISPATCH(minMaxUpdate(x, n, mins, maxs));
}

void
quantizeAffine(const float *x, const float *scales,
               const int32_t *zero_points, int64_t n, int32_t qmin,
               int32_t qmax, int8_t *out)
{
    COMET_CHECK(n >= 0 && qmin <= qmax);
    COMET_SIMD_DISPATCH(
        quantizeAffine(x, scales, zero_points, n, qmin, qmax, out));
}

void
dequantAffine(const int8_t *q, const float *scales,
              const int32_t *zero_points, int64_t n, float *out)
{
    COMET_CHECK(n >= 0);
    COMET_SIMD_DISPATCH(dequantAffine(q, scales, zero_points, n, out));
}

void
dotRowsF32(const float *x, int64_t x_stride, int64_t n_x, QuantRows rows,
           int64_t n_rows, int64_t n, float *out, int64_t out_stride)
{
    COMET_CHECK(n_rows >= 0 && n >= 0 && (!rows.packed || n % 2 == 0));
    COMET_CHECK(n_x >= 0 &&
                (n_x <= 1 || (x_stride >= n && out_stride >= n_rows)));
    COMET_SIMD_DISPATCH(
        dotRowsF32(x, x_stride, n_x, rows, n_rows, n, out, out_stride));
}

void
gemvF32(const float *x, const float *rows, int64_t stride, int64_t n_rows,
        int64_t n, float *out)
{
    COMET_CHECK(n_rows >= 0 && n >= 0 && stride >= n);
    COMET_SIMD_DISPATCH(gemvF32(x, rows, stride, n_rows, n, out));
}

void
accumulateRowsF32(const float *w, int64_t w_stride, int64_t n_w,
                  QuantRows rows, int64_t n_rows, int64_t n, float *acc,
                  int64_t acc_stride)
{
    COMET_CHECK(n_rows >= 0 && n >= 0 && (!rows.packed || n % 2 == 0));
    COMET_CHECK(n_w >= 0 &&
                (n_w <= 1 || (w_stride >= n_rows && acc_stride >= n)));
    COMET_SIMD_DISPATCH(accumulateRowsF32(w, w_stride, n_w, rows, n_rows, n,
                                          acc, acc_stride));
}

void
expF32(const float *x, int64_t n, float *out)
{
    COMET_CHECK(n >= 0);
    COMET_SIMD_DISPATCH(expF32(x, n, out));
}

} // namespace simd
} // namespace comet
