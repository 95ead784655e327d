/**
 * @file
 * Emulated tensor-core matrix-multiply-accumulate tiles.
 *
 * These functions reproduce, on the CPU, the numerics of the A100 mma
 * paths the W4Ax kernel issues:
 *
 *  - mmaInt8: INT8 x INT8 -> INT32, the W8A8/W4A8 compute instruction
 *    (mma.m16n8k32 in the paper; here generic over the k extent).
 *  - mmaInt4: INT4 x INT4 -> INT32, the W4A4 compute instruction.
 *  - mmaW4A8Prepared: the full W4A8 path — packed INT4 weights in the
 *    prepared (interleaved + location-switched) layout are widened with
 *    the 2-instruction fast conversion and consumed by the INT8 path.
 *    The accumulator comes back scaled by kFastConvMultiplier (16);
 *    callers fold 1/16 into the scale exactly as the paper describes.
 *
 * All three operate on the packed register words via dp4a/dp8a4, so the
 * bit-level layout machinery is exercised end to end. W4AxGemm::run
 * does not execute tile by tile (it runs column blocks through
 * simd::dotColumnBlockRows); these tile ops are the building blocks of the
 * tile-walk oracle it is tested against.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/kernel/convert.h"
#include "comet/tensor/packed.h"

namespace comet {

/** An INT32 accumulator tile of logical extent m x n. */
class AccumTile
{
  public:
    AccumTile(int64_t m, int64_t n)
        : m_(m), n_(n), acc_(static_cast<size_t>(m * n), 0)
    {
        COMET_CHECK(m > 0 && n > 0);
    }

    int64_t m() const { return m_; }
    int64_t n() const { return n_; }

    int32_t &
    at(int64_t i, int64_t j)
    {
        COMET_CHECK(i >= 0 && i < m_ && j >= 0 && j < n_);
        return acc_[static_cast<size_t>(i * n_ + j)];
    }

    int32_t
    at(int64_t i, int64_t j) const
    {
        COMET_CHECK(i >= 0 && i < m_ && j >= 0 && j < n_);
        return acc_[static_cast<size_t>(i * n_ + j)];
    }

    void
    reset()
    {
        std::fill(acc_.begin(), acc_.end(), 0);
    }

  private:
    int64_t m_;
    int64_t n_;
    std::vector<int32_t> acc_;
};

/**
 * INT8 mma: acc[i][j] += dot(a[a_row0+i, k0:k0+k_len],
 *                            b[b_row0+j, k0:k0+k_len]).
 * Consumes packed 32-bit words through dp4a. @pre k0 and k_len are
 * multiples of 4.
 */
void mmaInt8(AccumTile &acc, const Int8Tensor &a, int64_t a_row0,
             const Int8Tensor &b, int64_t b_row0, int64_t k0,
             int64_t k_len);

/**
 * INT4 mma: same contraction with both operands packed INT4.
 * @pre k0 and k_len are multiples of 8.
 */
void mmaInt4(AccumTile &acc, const Int4Tensor &a, int64_t a_row0,
             const Int4Tensor &b, int64_t b_row0, int64_t k0,
             int64_t k_len);

/**
 * W4A8 mma with fast weight widening. @p w_prepared must be in the
 * prepareWeightsForW4A8() layout. The returned accumulator values are
 * kFastConvMultiplier times the true dot products.
 *
 * @pre k0 and k_len are multiples of kInterleaveUnit (16).
 * @param counter optional counter of emulated conversion instructions.
 */
void mmaW4A8Prepared(AccumTile &acc, const Int8Tensor &a, int64_t a_row0,
                     const Int4Tensor &w_prepared, int64_t w_row0,
                     int64_t k0, int64_t k_len,
                     InstructionCounter *counter = nullptr);

} // namespace comet
