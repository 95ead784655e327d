/**
 * @file
 * Unit tests for the reference GEMMs.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "comet/common/rng.h"
#include "comet/kernel/gemm_ref.h"

namespace comet {
namespace {

TEST(GemmFloat, SmallKnownResult)
{
    Tensor x(2, 3), w(2, 3);
    // x = [[1,2,3],[4,5,6]]; w = [[1,0,0],[0,1,1]]
    for (int64_t c = 0; c < 3; ++c) {
        x.at(0, c) = static_cast<float>(c + 1);
        x.at(1, c) = static_cast<float>(c + 4);
    }
    w.at(0, 0) = 1.0f;
    w.at(1, 1) = 1.0f;
    w.at(1, 2) = 1.0f;
    const Tensor out = gemmFloat(x, w);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 5.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 4.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 11.0f);
}

TEST(GemmFloat, BitIdenticalToNaiveTripleLoopOnRaggedShapes)
{
    // Every output is one double sum in ascending k, whichever of the
    // four side-by-side columns (or the ragged column tail) it lands in.
    Rng rng(2);
    for (const int64_t m : {1, 3}) {
        for (const int64_t n : {1, 2, 3, 4, 5, 7, 8, 13}) {
            for (const int64_t k : {1, 2, 9, 64}) {
                Tensor x(m, k), w(n, k);
                for (int64_t i = 0; i < x.numel(); ++i)
                    x[i] = static_cast<float>(rng.gaussian(0, 1));
                for (int64_t i = 0; i < w.numel(); ++i)
                    w[i] = static_cast<float>(rng.gaussian(0, 3));
                Tensor want(m, n);
                for (int64_t r = 0; r < m; ++r) {
                    for (int64_t c = 0; c < n; ++c) {
                        double sum = 0.0;
                        for (int64_t j = 0; j < k; ++j)
                            sum += static_cast<double>(x.at(r, j)) * w.at(c, j);
                        want.at(r, c) = static_cast<float>(sum);
                    }
                }
                const Tensor got = gemmFloat(x, w);
                const auto bytes = sizeof(float) * static_cast<size_t>(m * n);
                ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
                    << "m " << m << " n " << n << " k " << k;
            }
        }
    }
}

TEST(GemmFloat, IdentityWeight)
{
    Rng rng(1);
    Tensor x(4, 8);
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0, 1));
    Tensor eye(8, 8);
    for (int64_t i = 0; i < 8; ++i)
        eye.at(i, i) = 1.0f;
    const Tensor out = gemmFloat(x, eye);
    EXPECT_LT(maxAbsError(out, x), 1e-6);
}

TEST(GemmFloatDeathTest, InnerDimMismatch)
{
    Tensor x(2, 3), w(2, 4);
    EXPECT_DEATH(gemmFloat(x, w), "inner dimensions");
}

TEST(GemmInt8, ApproximatesFloatGemm)
{
    Rng rng(2);
    Tensor x(8, 64), w(16, 64);
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0, 1));
    for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.gaussian(0, 0.1));
    const Tensor reference = gemmFloat(x, w);
    const Tensor out =
        gemmInt8(quantizeInt8PerRow(x), quantizeInt8PerRow(w));
    EXPECT_LT(relativeError(reference, out), 0.02);
}

TEST(GemmInt4, ApproximatesFloatGemmMoreCoarsely)
{
    Rng rng(3);
    Tensor x(8, 64), w(16, 64);
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0, 1));
    for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.gaussian(0, 0.1));
    const Tensor reference = gemmFloat(x, w);
    const Tensor out4 =
        gemmInt4(quantizeInt4PerRow(x), quantizeInt4PerRow(w));
    const Tensor out8 =
        gemmInt8(quantizeInt8PerRow(x), quantizeInt8PerRow(w));
    EXPECT_LT(relativeError(reference, out4), 0.25);
    EXPECT_LT(relativeError(reference, out8),
              relativeError(reference, out4));
}

TEST(GemmInt8, ExactOnGridValues)
{
    // Operands already on the integer grid multiply exactly.
    Tensor x(2, 4), w(2, 4);
    for (int64_t c = 0; c < 4; ++c) {
        x.at(0, c) = static_cast<float>(c - 2);
        x.at(1, c) = static_cast<float>(2 - c);
        w.at(0, c) = 1.0f;
        w.at(1, c) = static_cast<float>(c % 2);
    }
    const Tensor reference = gemmFloat(x, w);
    const Tensor out =
        gemmInt8(quantizeInt8PerRow(x), quantizeInt8PerRow(w));
    EXPECT_LT(maxAbsError(reference, out), 1e-4);
}

} // namespace
} // namespace comet
