/**
 * @file
 * FP4 (E2M1) support and fast FP4->INT8 conversion (paper Section 4.3,
 * last paragraph), kept beside the tests: no serving path, kernel or
 * bench runs it.
 *
 * The paper notes its conversion design "is also adaptable for
 * efficient FP4-to-INT8 conversion on next-generation GPUs such as
 * H100": the sign and mantissa bits stay in place while the exponent
 * bits become shift amounts. This header implements the E2M1 format
 * and that conversion for real:
 *
 *  - E2M1 encodes sign (1 bit), exponent (2 bits, bias 1), mantissa
 *    (1 bit). Representable magnitudes: 0, 0.5, 1, 1.5, 2, 3, 4, 6.
 *  - Doubling every representable value yields an integer
 *    (0,1,2,3,4,6,8,12), so FP4 widens *exactly* to INT8 as
 *    2x(value); the factor 2 folds into the scale just like the x16
 *    factor of the INT4 zero-extension trick.
 */
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "comet/common/status.h"
#include "comet/kernel/convert.h"
#include "comet/kernel/int4_pack.h"

namespace comet {

/** Multiplier introduced by the exact FP4->INT8 widening. */
inline constexpr int32_t kFp4ConvMultiplier = 2;

/** Largest representable E2M1 magnitude. */
inline constexpr float kFp4Max = 6.0f;

/** The eight non-negative E2M1 magnitudes, indexed by (exp << 1) |
 * mantissa. */
inline constexpr float kFp4Magnitudes[8] = {0.0f, 0.5f, 1.0f, 1.5f,
                                            2.0f, 3.0f, 4.0f, 6.0f};

/** Decodes one 4-bit E2M1 code (low nibble) to its float value. */
inline float
decodeFp4(uint8_t code)
{
    COMET_CHECK(code <= 0xf);
    const float magnitude = kFp4Magnitudes[code & 0x7];
    return (code & 0x8) ? -magnitude : magnitude;
}

/** Encodes @p value to the nearest representable E2M1 code
 * (round-to-nearest magnitude, saturating at +-6). */
inline uint8_t
encodeFp4(float value)
{
    const uint8_t sign = value < 0.0f ? 0x8 : 0x0;
    const float magnitude = std::fabs(value);
    // Nearest representable magnitude; ties round to the larger one
    // (matches round-half-away for this monotone table).
    uint8_t best = 0;
    float best_err = magnitude; // distance to 0
    for (uint8_t i = 1; i < 8; ++i) {
        const float err = std::fabs(magnitude - kFp4Magnitudes[i]);
        if (err < best_err ||
            (err == best_err && kFp4Magnitudes[i] < kFp4Magnitudes[best])) {
            best = i;
            best_err = err;
        }
    }
    return sign | best;
}

/**
 * Widens one E2M1 code to a signed INT8 equal to exactly
 * kFp4ConvMultiplier * decodeFp4(code), using the paper's scheme:
 * place the mantissa (with implicit leading one for normals) and
 * shift by the exponent. The optional counter records the emulated
 * instructions (2-3: extract, shift, sign select).
 */
inline int8_t
fp4ToInt8(uint8_t code, InstructionCounter *counter = nullptr)
{
    COMET_CHECK(code <= 0xf);
    const auto count = [counter](int64_t n) {
        if (counter != nullptr)
            counter->add(n);
    };
    const uint8_t exponent = (code >> 1) & 0x3; // extract: shr + and
    const uint8_t mantissa = code & 0x1;
    count(2);

    // 2x the decoded magnitude as an integer. Subnormal (e = 0):
    // 2 * m * 0.5 = m. Normal (e > 0): 2 * (2 + m) * 2^(e-1) / 2 =
    // (2 + m) << (e - 1) — the "exponent bits become shift amounts"
    // scheme the paper describes.
    int32_t magnitude;
    if (exponent == 0) {
        magnitude = mantissa;
    } else {
        magnitude = (2 + mantissa) << (exponent - 1); // or + shl
    }
    count(1);

    // Sign select (one predicated negate).
    const int32_t value = (code & 0x8) ? -magnitude : magnitude;
    count(1);
    return static_cast<int8_t>(value);
}

/** Packs eight E2M1 codes into a register word (code i -> bits
 * [4i, 4i+4)). */
inline uint32_t
packFp4x8(const std::array<uint8_t, 8> &codes)
{
    uint32_t word = 0;
    for (int i = 0; i < 8; ++i) {
        COMET_CHECK(codes[static_cast<size_t>(i)] <= 0xf);
        word |= static_cast<uint32_t>(codes[static_cast<size_t>(i)])
                << (4 * i);
    }
    return word;
}

/** Unpacks a register word into eight E2M1 codes. */
inline std::array<uint8_t, 8>
unpackFp4x8(uint32_t word)
{
    std::array<uint8_t, 8> codes{};
    for (int i = 0; i < 8; ++i)
        codes[static_cast<size_t>(i)] =
            static_cast<uint8_t>((word >> (4 * i)) & 0xf);
    return codes;
}

/**
 * Converts a packed FP4 register word (8 codes) into two packed INT8
 * register words holding 2x the decoded values, in order
 * (lo = codes 0..3, hi = codes 4..7).
 */
inline ConvertedPair
fp4RegisterToInt8(uint32_t word, InstructionCounter *counter = nullptr)
{
    const std::array<uint8_t, 8> codes = unpackFp4x8(word);
    std::array<int8_t, 4> lo{}, hi{};
    for (int i = 0; i < 4; ++i) {
        lo[static_cast<size_t>(i)] =
            fp4ToInt8(codes[static_cast<size_t>(i)], counter);
        hi[static_cast<size_t>(i)] =
            fp4ToInt8(codes[static_cast<size_t>(i + 4)], counter);
    }
    return ConvertedPair{packInt8x4(lo), packInt8x4(hi)};
}

} // namespace comet
