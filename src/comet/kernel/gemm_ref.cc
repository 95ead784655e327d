#include "comet/kernel/gemm_ref.h"

#include "comet/runtime/thread_pool.h"

namespace comet {

Tensor
gemmFloat(const Tensor &x, const Tensor &w)
{
    COMET_CHECK(x.shape().rank() == 2 && w.shape().rank() == 2);
    COMET_CHECK_MSG(x.cols() == w.cols(),
                    "inner dimensions must match (X [M,K], W [N,K])");
    const int64_t m_dim = x.rows(), n_dim = w.rows(), k_dim = x.cols();
    Tensor out(m_dim, n_dim);
    // Every output is one double sum in ascending k. Four output
    // columns run side by side: their sums are independent, so
    // interleaving them hides the add latency without changing any
    // sum's order. Output rows are independent, so results are
    // bit-identical for any pool size.
    parallelFor(0, m_dim, 1, [&](int64_t m_begin, int64_t m_end) {
        for (int64_t m = m_begin; m < m_end; ++m) {
            const float *xr = x.data() + m * k_dim;
            float *out_row = out.data() + m * n_dim;
            int64_t n = 0;
            for (; n + 4 <= n_dim; n += 4) {
                const float *w0 = w.data() + n * k_dim;
                const float *w1 = w0 + k_dim;
                const float *w2 = w1 + k_dim;
                const float *w3 = w2 + k_dim;
                double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                for (int64_t k = 0; k < k_dim; ++k) {
                    const auto xk = static_cast<double>(xr[k]);
                    s0 += xk * w0[k];
                    s1 += xk * w1[k];
                    s2 += xk * w2[k];
                    s3 += xk * w3[k];
                }
                out_row[n] = static_cast<float>(s0);
                out_row[n + 1] = static_cast<float>(s1);
                out_row[n + 2] = static_cast<float>(s2);
                out_row[n + 3] = static_cast<float>(s3);
            }
            for (; n < n_dim; ++n) {
                const float *wn = w.data() + n * k_dim;
                double sum = 0.0;
                for (int64_t k = 0; k < k_dim; ++k)
                    sum += static_cast<double>(xr[k]) * wn[k];
                out_row[n] = static_cast<float>(sum);
            }
        }
    });
    return out;
}

Tensor
gemmInt8(const QuantizedInt8 &a, const QuantizedInt8 &w)
{
    COMET_CHECK(a.data.cols() == w.data.cols());
    const int64_t m_dim = a.data.rows();
    const int64_t n_dim = w.data.rows();
    const int64_t k_dim = a.data.cols();
    Tensor out(m_dim, n_dim);
    parallelFor(0, m_dim, 1, [&](int64_t m_begin, int64_t m_end) {
        for (int64_t m = m_begin; m < m_end; ++m) {
            for (int64_t n = 0; n < n_dim; ++n) {
                int64_t acc = 0;
                for (int64_t k = 0; k < k_dim; ++k) {
                    acc += static_cast<int64_t>(a.data.get(m, k)) *
                           w.data.get(n, k);
                }
                out.at(m, n) =
                    static_cast<float>(acc) *
                    a.row_params[static_cast<size_t>(m)].scale *
                    w.row_params[static_cast<size_t>(n)].scale;
            }
        }
    });
    return out;
}

Tensor
gemmInt4(const QuantizedInt4 &a, const QuantizedInt4 &w)
{
    COMET_CHECK(a.data.cols() == w.data.cols());
    const int64_t m_dim = a.data.rows();
    const int64_t n_dim = w.data.rows();
    const int64_t k_dim = a.data.cols();
    Tensor out(m_dim, n_dim);
    parallelFor(0, m_dim, 1, [&](int64_t m_begin, int64_t m_end) {
        for (int64_t m = m_begin; m < m_end; ++m) {
            for (int64_t n = 0; n < n_dim; ++n) {
                int64_t acc = 0;
                for (int64_t k = 0; k < k_dim; ++k) {
                    acc += static_cast<int64_t>(a.data.get(m, k)) *
                           w.data.get(n, k);
                }
                out.at(m, n) =
                    static_cast<float>(acc) *
                    a.row_params[static_cast<size_t>(m)].scale *
                    w.row_params[static_cast<size_t>(n)].scale;
            }
        }
    });
    return out;
}

} // namespace comet
