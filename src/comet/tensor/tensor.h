/**
 * @file
 * A small dense float tensor for the COMET reproduction.
 *
 * The quantization algorithms and the tiny transformer only need
 * row-major float storage with 1-D/2-D/3-D indexing, so Tensor is
 * deliberately minimal: contiguous, owning, no strides, no broadcasting.
 * Quantized data lives in the packed types (see packed.h), never here.
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "comet/common/status.h"

namespace comet {

/** Shape of a dense tensor; dims are positive. */
class Shape
{
  public:
    Shape() = default;

    /** Constructs from an explicit dim list, e.g. Shape({rows, cols}). */
    Shape(std::initializer_list<int64_t> dims) : dims_(dims)
    {
        validate();
    }

    explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims))
    {
        validate();
    }

    /** Number of dims. */
    int rank() const { return static_cast<int>(dims_.size()); }

    /** Size of dim @p i. */
    int64_t
    dim(int i) const
    {
        COMET_CHECK(i >= 0 && i < rank());
        return dims_[static_cast<size_t>(i)];
    }

    /** Total number of elements (1 for a rank-0 shape). */
    int64_t numel() const;

    bool operator==(const Shape &other) const = default;

    /** Renders like "[4, 128]". */
    std::string toString() const;

  private:
    void
    validate() const
    {
        for (int64_t d : dims_)
            COMET_CHECK_MSG(d > 0, "tensor dims must be positive");
    }

    std::vector<int64_t> dims_;
};

/**
 * Owning, contiguous, row-major float tensor.
 *
 * Elements are zero-initialized on construction.
 */
class Tensor
{
  public:
    /** Creates an empty (rank-0, single element) tensor. */
    Tensor() : shape_({1}), data_(1, 0.0f) {}

    /** Creates a zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape)
        : shape_(std::move(shape)),
          data_(static_cast<size_t>(shape_.numel()), 0.0f)
    {
    }

    /** Convenience 2-D constructor. */
    Tensor(int64_t rows, int64_t cols) : Tensor(Shape({rows, cols})) {}

    const Shape &shape() const { return shape_; }
    int64_t numel() const { return shape_.numel(); }

    /** Raw contiguous storage. @{ */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    /** @} */

    /** Linear element access. @{ */
    float &
    operator[](int64_t i)
    {
        COMET_CHECK(i >= 0 && i < numel());
        return data_[static_cast<size_t>(i)];
    }

    float
    operator[](int64_t i) const
    {
        COMET_CHECK(i >= 0 && i < numel());
        return data_[static_cast<size_t>(i)];
    }
    /** @} */

    /** 2-D access; requires rank 2. @{ */
    float &
    at(int64_t r, int64_t c)
    {
        return data_[static_cast<size_t>(index2d(r, c))];
    }

    float
    at(int64_t r, int64_t c) const
    {
        return data_[static_cast<size_t>(index2d(r, c))];
    }
    /** @} */

    /** 3-D access; requires rank 3. @{ */
    float &
    at(int64_t i, int64_t j, int64_t k)
    {
        return data_[static_cast<size_t>(index3d(i, j, k))];
    }

    float
    at(int64_t i, int64_t j, int64_t k) const
    {
        return data_[static_cast<size_t>(index3d(i, j, k))];
    }
    /** @} */

    /** Number of rows/cols for a rank-2 tensor. @{ */
    int64_t
    rows() const
    {
        COMET_CHECK(shape_.rank() == 2);
        return shape_.dim(0);
    }

    int64_t
    cols() const
    {
        COMET_CHECK(shape_.rank() == 2);
        return shape_.dim(1);
    }
    /** @} */

    /** Sets every element to @p value. */
    void fill(float value);

    /** Largest absolute element (0 for all-zero tensors). */
    float absMax() const;

    /** Mean of squared elements. */
    double meanSquare() const;

  private:
    int64_t
    index2d(int64_t r, int64_t c) const
    {
        COMET_CHECK(shape_.rank() == 2);
        COMET_CHECK(r >= 0 && r < shape_.dim(0));
        COMET_CHECK(c >= 0 && c < shape_.dim(1));
        return r * shape_.dim(1) + c;
    }

    int64_t
    index3d(int64_t i, int64_t j, int64_t k) const
    {
        COMET_CHECK(shape_.rank() == 3);
        COMET_CHECK(i >= 0 && i < shape_.dim(0));
        COMET_CHECK(j >= 0 && j < shape_.dim(1));
        COMET_CHECK(k >= 0 && k < shape_.dim(2));
        return (i * shape_.dim(1) + j) * shape_.dim(2) + k;
    }

    Shape shape_;
    std::vector<float> data_;
};

/** Mean squared error between two same-shaped tensors. */
double meanSquaredError(const Tensor &a, const Tensor &b);

/** Maximum absolute difference between two same-shaped tensors. */
double maxAbsError(const Tensor &a, const Tensor &b);

/** Relative Frobenius error ||a-b|| / max(||a||, eps). */
double relativeError(const Tensor &a, const Tensor &b);

/** The rows of the 2-D tensors @p parts stacked in order.
 * @pre parts is non-empty and every part has the same column count. */
Tensor stackRows(const std::vector<const Tensor *> &parts);

} // namespace comet
