/**
 * @file
 * Runtime-dispatched SIMD substrate for the emulated sub-byte hot
 * paths.
 *
 * Every sweep, soak and figure bench in this repo bottoms out in the
 * scalar INT4/INT8 emulation loops (nibble pack/unpack, fast
 * conversion, interleaving, KV quant/dequant, dp4a accumulation, the
 * column-blocked W4Ax widening, dots and epilogue) and the float loops of
 * the real decoder (attention over raw KV values, the LM head).
 * This module lifts those inner loops to span-level routines with
 * two backends:
 *
 *  - *scalar*: the always-available portable fallback, byte-for-byte
 *    the same arithmetic the original per-element loops performed,
 *    and the backend every non-x86 host runs;
 *  - *avx2*: x86-64 AVX2 implementations (compiled with per-function
 *    target attributes, selected only when the CPU reports support).
 *
 * The backend is picked once per process: the `COMET_SIMD`
 * environment variable accepts `scalar`, `avx2` or `auto` (the
 * default — best supported backend). Tests and benches can override
 * it with setMode().
 *
 * **Bit-identity guarantee:** every routine produces bit-identical
 * output across all backends. Integer routines are exact by
 * construction; the elementwise float routines (quantize/dequantize/
 * min-max, the weighted row accumulation, the W4Ax epilogue, exp)
 * perform the same IEEE operations lane-wise that the scalar code
 * performs element-wise, and
 * the float dot products (the fused attention's scores, the LM head)
 * fix their summation order: eight lanes and one reduction tree,
 * multiplies and adds never fused. Results match to the last bit. The
 * equivalence suite (test_simd.cc) locks this in for every dispatched
 * routine under every supported mode.
 *
 * Data layout conventions match tensor/packed.h: packed INT4 spans
 * are little-endian nibble order (value i of a byte pair occupies the
 * low nibble), and 32-bit "register words" are little-endian byte
 * order in memory.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace comet {
namespace simd {

/** Selectable SIMD backends. */
enum class Mode {
    kScalar = 0, ///< portable fallback, always available
    kAvx2,       ///< x86-64 AVX2
};

/** Stable lower-case name of a mode ("scalar", "avx2"). */
const char *modeName(Mode mode);

/** True when @p mode can run on this machine. kScalar always can. */
bool modeSupported(Mode mode);

/** All modes supported on this machine, kScalar first. */
std::vector<Mode> supportedModes();

/**
 * The mode all dispatched routines currently use. Resolved once from
 * `COMET_SIMD` (unset or `auto` picks the best supported backend) on
 * first use, unless overridden via setMode().
 */
Mode activeMode();

/**
 * Overrides the active mode (tests and benches). Aborts if @p mode is
 * not supported on this machine. Not thread-safe against concurrently
 * running dispatched routines; switch modes only between kernels.
 */
void setMode(Mode mode);

/**
 * Parses a `COMET_SIMD` value ("scalar", "avx2", "auto") to a
 * concrete supported mode. Aborts on an unknown name or an explicitly
 * requested backend the machine cannot run.
 */
Mode parseMode(const char *name);

/**
 * Unpacks @p n packed INT4 values (little-endian nibble order,
 * @p n even) into sign-extended INT8 values.
 */
void unpackInt4(const uint8_t *packed, int64_t n, int8_t *out);

/**
 * Packs @p n INT8 values (each in [-8, 7], @p n even) into n/2 bytes
 * of little-endian nibble storage. Aborts on out-of-range values —
 * silently masking them would corrupt neighboring lanes.
 */
void packInt4(const int8_t *values, int64_t n, uint8_t *packed);

/**
 * Applies the per-register location switch (convert.h) to
 * @p n_words packed-INT4 register words stored little-endian at
 * @p in, writing to @p out. In-place (@p in == @p out) is allowed.
 */
void locationSwitchWords(const uint8_t *in, int64_t n_words,
                         uint8_t *out);

/**
 * Applies the 16-value weight interleave (interleave.h) to
 * @p n_units units of 8 packed bytes each: within every unit, byte
 * pairs (2,3) and (4,5) swap. Self-inverse. @p in and @p out must not
 * partially overlap (@p in == @p out is allowed).
 */
void interleaveUnits(const uint8_t *in, int64_t n_units, uint8_t *out);

/**
 * Fast-widens a prepared (interleaved + location-switched) packed
 * INT4 span to INT8 in logical activation order: for every 16-value
 * unit (8 input bytes, words w0 and w1), emits the 16 bytes
 * [lo(w0), lo(w1), hi(w0), hi(w1)] where lo/hi are the two
 * fastInt4ToInt8() register halves. Output bytes equal
 * kFastConvMultiplier (16x) the true INT4 values, exactly as
 * convert.h documents. @p n_values must be a multiple of 16.
 */
void fastWidenW4A8(const uint8_t *prepared, int64_t n_values,
                   int8_t *out);

/** Dot product of two INT8 spans accumulated in INT32 (the dp4a
 * inner loop, span-level). Exact for any @p n >= 0. */
int32_t dotInt8(const int8_t *a, const int8_t *b, int64_t n);

/**
 * Dot product of two packed INT4 spans (@p n_values values, even,
 * little-endian nibble order) accumulated in INT32 — the dp8a4 inner
 * loop, span-level.
 */
int32_t dotInt4(const uint8_t *a, const uint8_t *b, int64_t n_values);

/**
 * Columns in one block of the column-block layout, the W4Ax kernel's
 * widened weight operand: for a block of kColumnBlock output columns
 * over a span of values, value v of column c sits at
 * [((v / 2) * kColumnBlock + c) * 2 + v % 2] — per pair of values,
 * the block's columns side by side.
 */
constexpr int64_t kColumnBlock = 8;

/**
 * Bytes of the W4Ax kernel layout per 8-value step of a column block:
 * the step's 8 x kColumnBlock INT4 values, two to a byte.
 */
constexpr int64_t kKernelStepBytes = 4 * kColumnBlock;

/**
 * Widens one column block of INT4 weights from the W4Ax kernel layout
 * into the column-block layout, over @p n_tiles k-tiles of
 * @p tile_values values each. The kernel layout is the column-block
 * layout packed as nibbles: per 8-value step s, int16 elements
 * [64 s, 64 s + 32) (pair rows 0-1 of the step) are the low nibbles
 * of bytes [32 s, 32 s + 32) and elements [64 s + 32, 64 s + 64)
 * (pair rows 2-3) their high nibbles, so one 32-byte register yields
 * the four pair-row registers dotColumnBlockRows() reads for the step.
 * Tile t's nibbles are sign-extended when x16_tiles[t] is 0, and
 * otherwise take the fast conversion (convert.h): shl + and for the
 * low nibbles, and for the high ones, giving kFastConvMultiplier (16)
 * times the INT4 value. @p tile_values must be a positive multiple
 * of 8.
 */
void widenKernelBlock(const uint8_t *packed, const uint8_t *x16_tiles,
                      int64_t n_tiles, int64_t tile_values, int16_t *out);

/**
 * Activation rows one dotColumnBlockRows() call takes: the SIMD
 * backends load each pair row of the widened block once for all of
 * them (on AVX2, four weight registers per eight values and one
 * accumulator per row leave half of the sixteen registers for the
 * broadcasts and products).
 */
constexpr int64_t kColumnBlockRows = 4;

/**
 * The W4Ax inner loop for @p n_rows (1 to kColumnBlockRows) activation
 * rows against one block of kColumnBlock output columns, over
 * @p n_tiles k-tiles of @p tile_values values each. Row r, widened to
 * int16, is a_r = a + r * a_stride and its dots go to
 * out_r = out + r * out_stride; @p w is the block in the column-block
 * layout over the same values. For every row, tile t and column c,
 *
 *     out_r[t * kColumnBlock + c] =
 *         sum over v in [t * tile_values, (t + 1) * tile_values) of
 *             a_r[v] * w[((v / 2) * kColumnBlock + c) * 2 + v % 2]
 *
 * in INT32, whatever rows share the call. Exact when every operand
 * lies in [-128, 128] and @p tile_values <= 2^17 — widened INT4 and
 * INT8 values, the fast conversion's x16 included. @p tile_values must
 * be a positive multiple of 16. The W4Ax kernel's register-level reuse
 * of one widened weight block across an m-tile's rows.
 */
void dotColumnBlockRows(const int16_t *a, int64_t a_stride, int64_t n_rows,
                        const int16_t *w, int64_t n_tiles,
                        int64_t tile_values, int32_t *out,
                        int64_t out_stride);

/**
 * The W4Ax epilogue of @p n_rows (1 to kColumnBlockRows) rows against
 * one column block: from the per-k-tile dots dotColumnBlockRows()
 * writes, row r's dots_r = dots + r * dots_stride, activation scales
 * a_r = a_scales + r * a_stride and output out_r = out + r * out_stride,
 * for every column c < kColumnBlock,
 *
 *     out_r[c] = sum over t = 0, 1, ... n_tiles - 1 of
 *         float(dots_r[t * kColumnBlock + c]) * a_r[t] *
 *             w_scales[t * w_stride + c]
 *
 * starting from +0.0f, each term's multiplies rounded left to right
 * before its add (no fused multiply-add). The rows are independent
 * chains, so the SIMD backends interleave them to hide the add
 * latency; each row's bits do not depend on the rows beside it.
 */
void scaleColumnBlockRows(const int32_t *dots, int64_t dots_stride,
                          const float *a_scales, int64_t a_stride,
                          int64_t n_rows, const float *w_scales,
                          int64_t w_stride, int64_t n_tiles, float *out,
                          int64_t out_stride);

/**
 * Running per-element min/max update: mins[i] = min(mins[i], x[i])
 * and maxs[i] = max(maxs[i], x[i]) for i in [0, n). The channel-wise
 * KV quantization range pass, vectorized across channels.
 */
void minMaxUpdate(const float *x, int64_t n, float *mins, float *maxs);

/**
 * Per-element affine quantization with clamping:
 * out[i] = clamp(roundHalfAwayFromZero(x[i] / scales[i]) +
 *                zero_points[i], qmin, qmax),
 * bit-identical to QuantParams::quantize followed by std::clamp.
 */
void quantizeAffine(const float *x, const float *scales,
                    const int32_t *zero_points, int64_t n,
                    int32_t qmin, int32_t qmax, int8_t *out);

/**
 * Per-element affine dequantization:
 * out[i] = float(q[i] - zero_points[i]) * scales[i], bit-identical
 * to QuantParams::dequantize.
 */
void dequantAffine(const int8_t *q, const float *scales,
                   const int32_t *zero_points, int64_t n, float *out);

/**
 * Rows of raw quantized values, read as floats without their
 * quantization parameters: row r starts at data + r * stride bytes
 * and holds two INT4 values per byte (little-endian nibble order)
 * when @p packed, else one INT8 value per byte.
 */
struct QuantRows {
    const uint8_t *data = nullptr;
    int64_t stride = 0; ///< bytes from one row to the next
    bool packed = false;
};

/**
 * Vectors one widening of a raw row serves in dotRowsF32 and
 * accumulateRowsF32: the SIMD backends widen each row block once for
 * up to this many vectors, and once per such batch beyond it.
 */
constexpr int64_t kRowVectorBlock = 8;

/**
 * The float dot products of the fused attention and the LM head, in
 * one fixed order: for out[r] = sum_i x[i] * row_r[i], value i's
 * product (multiply, then round) is added to lane i % 8, lanes
 * starting at +0.0f and taking their terms in ascending i, and the
 * eight lanes then reduce as ((l0 + l1) + (l2 + l3)) +
 * ((l4 + l5) + (l6 + l7)). No multiply-add is fused, so every backend
 * returns the same bits.
 *
 * dotRowsF32 reads @p n_rows rows of raw quantized values (@p n even
 * when packed) against @p n_x vectors, vector g at x + g * x_stride,
 * and writes out[g * out_stride + r] = x_g . row_r: the query heads
 * that share a kv head, each row widened once for all of them. Each
 * dot is the one-vector dot above, so the result does not depend on
 * @p n_x. gemvF32 reads float rows starting @p stride floats apart
 * against one vector.
 * @{
 */
void dotRowsF32(const float *x, int64_t x_stride, int64_t n_x,
                QuantRows rows, int64_t n_rows, int64_t n, float *out,
                int64_t out_stride);
void gemvF32(const float *x, const float *rows, int64_t stride,
             int64_t n_rows, int64_t n, float *out);
/** @} */

/**
 * Weighted accumulation of raw quantized rows into @p n_w
 * accumulators: for g < n_w,
 * acc_g[i] = acc_g[i] + w_g[r] * row_r[i] for rows r = 0 .. n_rows - 1
 * in that order, where w_g = w + g * w_stride and
 * acc_g = acc + g * acc_stride, each product rounded before its add
 * (the attention value sums of the query heads sharing a kv head, each
 * raw row widened once for all of them). Elementwise, so every backend
 * returns the same bits. @p n is even when packed.
 */
void accumulateRowsF32(const float *w, int64_t w_stride, int64_t n_w,
                       QuantRows rows, int64_t n_rows, int64_t n,
                       float *acc, int64_t acc_stride);

/**
 * out[i] = e^x[i] in float by one fixed sequence of IEEE operations
 * (Cephes expf: x = k ln 2 + r with k = floor(x log2 e + 1/2), a
 * degree-7 polynomial in r, times 2^k), within 2 ulp of the exact
 * value on [-87, 88]. Inputs below -87 give +0.0f; inputs above 88
 * are evaluated at 88. Every backend returns the same bits.
 */
void expF32(const float *x, int64_t n, float *out);

} // namespace simd
} // namespace comet
