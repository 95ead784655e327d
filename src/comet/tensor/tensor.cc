#include "comet/tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace comet {

int64_t
Shape::numel() const
{
    int64_t n = 1;
    for (int64_t d : dims_)
        n *= d;
    return n;
}

std::string
Shape::toString() const
{
    std::string out = "[";
    for (size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(dims_[i]);
    }
    out += "]";
    return out;
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

float
Tensor::absMax() const
{
    float m = 0.0f;
    for (float x : data_)
        m = std::max(m, std::fabs(x));
    return m;
}

double
Tensor::meanSquare() const
{
    double sum = 0.0;
    for (float x : data_)
        sum += static_cast<double>(x) * x;
    return sum / static_cast<double>(data_.size());
}

double
meanSquaredError(const Tensor &a, const Tensor &b)
{
    COMET_CHECK(a.shape() == b.shape());
    double sum = 0.0;
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        sum += d * d;
    }
    return sum / static_cast<double>(n);
}

double
maxAbsError(const Tensor &a, const Tensor &b)
{
    COMET_CHECK(a.shape() == b.shape());
    double m = 0.0;
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
    return m;
}

double
relativeError(const Tensor &a, const Tensor &b)
{
    COMET_CHECK(a.shape() == b.shape());
    double num = 0.0, den = 0.0;
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        num += d * d;
        den += static_cast<double>(a[i]) * a[i];
    }
    return std::sqrt(num) / std::max(std::sqrt(den), 1e-12);
}

Tensor
stackRows(const std::vector<const Tensor *> &parts)
{
    COMET_CHECK(!parts.empty());
    int64_t rows = 0;
    for (const Tensor *part : parts) {
        COMET_CHECK(part->cols() == parts.front()->cols());
        rows += part->rows();
    }
    Tensor out(rows, parts.front()->cols());
    float *dst = out.data();
    for (const Tensor *part : parts)
        dst = std::copy(part->data(), part->data() + part->numel(), dst);
    return out;
}

} // namespace comet
