/**
 * @file
 * Unit tests for E2M1 FP4 and the FP4->INT8 conversion (paper
 * Section 4.3, H100 adaptation).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "comet/common/rng.h"
#include "comet/gpusim/gpu_spec.h"
#include "comet/kernel/int4_pack.h"
#include "fp4_convert.h"

namespace comet {
namespace {

TEST(Fp4, DecodesAllSixteenCodes)
{
    const float expected[8] = {0.0f, 0.5f, 1.0f, 1.5f,
                               2.0f, 3.0f, 4.0f, 6.0f};
    for (uint8_t code = 0; code < 8; ++code) {
        EXPECT_FLOAT_EQ(decodeFp4(code), expected[code]);
        EXPECT_FLOAT_EQ(decodeFp4(static_cast<uint8_t>(code | 0x8)),
                        -expected[code]);
    }
}

TEST(Fp4, EncodeRoundTripsRepresentableValues)
{
    for (uint8_t code = 0; code < 16; ++code) {
        // -0 encodes as +0; skip that alias.
        if (code == 0x8)
            continue;
        EXPECT_EQ(encodeFp4(decodeFp4(code)), code) << int(code);
    }
}

TEST(Fp4, EncodeRoundsToNearest)
{
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(0.2f)), 0.0f);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(0.3f)), 0.5f);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(1.2f)), 1.0f);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(2.4f)), 2.0f);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(2.6f)), 3.0f);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(-4.9f)), -4.0f);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(5.1f)), 6.0f);
}

TEST(Fp4, EncodeSaturates)
{
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(1000.0f)), kFp4Max);
    EXPECT_FLOAT_EQ(decodeFp4(encodeFp4(-1000.0f)), -kFp4Max);
}

TEST(Fp4, ConversionIsExactlyTwiceTheValue)
{
    for (uint8_t code = 0; code < 16; ++code) {
        EXPECT_EQ(static_cast<float>(fp4ToInt8(code)),
                  kFp4ConvMultiplier * decodeFp4(code))
            << int(code);
    }
}

TEST(Fp4, ConversionInstructionCountSmall)
{
    InstructionCounter counter;
    fp4ToInt8(0x7, &counter); // +6.0
    EXPECT_LE(counter.count(), 4);
}

TEST(Fp4, PackUnpackRoundTrip)
{
    Rng rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        std::array<uint8_t, 8> codes{};
        for (auto &code : codes)
            code = static_cast<uint8_t>(rng.uniformInt(16));
        EXPECT_EQ(unpackFp4x8(packFp4x8(codes)), codes);
    }
}

TEST(Fp4, RegisterConversionMatchesScalar)
{
    Rng rng(2);
    for (int trial = 0; trial < 50; ++trial) {
        std::array<uint8_t, 8> codes{};
        for (auto &code : codes)
            code = static_cast<uint8_t>(rng.uniformInt(16));
        const ConvertedPair pair =
            fp4RegisterToInt8(packFp4x8(codes));
        const auto lo = unpackInt8x4(pair.lo);
        const auto hi = unpackInt8x4(pair.hi);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(lo[static_cast<size_t>(i)],
                      fp4ToInt8(codes[static_cast<size_t>(i)]));
            EXPECT_EQ(hi[static_cast<size_t>(i)],
                      fp4ToInt8(codes[static_cast<size_t>(i + 4)]));
        }
    }
}

TEST(Fp4, QuantizeDequantizeErrorBounded)
{
    // FP4's relative step is at most 1/2 within its range; check a
    // fake-quant round trip against that bound.
    Rng rng(3);
    for (int trial = 0; trial < 500; ++trial) {
        const float x =
            static_cast<float>(rng.uniform(-kFp4Max, kFp4Max));
        const float q = decodeFp4(encodeFp4(x));
        EXPECT_LE(std::fabs(q - x), 0.5f + std::fabs(x) / 4.0f);
    }
}

TEST(Fp4DeathTest, BadCodeRejected)
{
    EXPECT_DEATH(decodeFp4(16), "CHECK failed");
    EXPECT_DEATH(fp4ToInt8(200), "CHECK failed");
}

TEST(H100Spec, HopperHasNoInt4TensorCores)
{
    const GpuSpec h100 = GpuSpec::h100Sxm80G();
    EXPECT_DOUBLE_EQ(h100.int4_tensor_ops, h100.int8_tensor_ops);
    EXPECT_GT(h100.hbm_bandwidth,
              GpuSpec::a100Sxm480G().hbm_bandwidth);
    EXPECT_EQ(h100.num_sms, 132);
}

} // namespace
} // namespace comet
