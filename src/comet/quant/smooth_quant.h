/**
 * @file
 * SmoothQuant baseline (Xiao et al., ICML'23) — the paper's W8A8
 * weight-activation comparison point.
 *
 * SmoothQuant migrates quantization difficulty from activations to
 * weights with a per-channel equivalent transformation: activations are
 * divided by s_c and the corresponding weight column is multiplied by
 * s_c, where s_c = max|X_c|^alpha / max|W_c|^(1-alpha). Both sides are
 * then quantized to INT8 (per-token activations, per-channel weights);
 * the Table 1/2 harness (model/perplexity.cc) applies that per
 * activation site.
 */
#pragma once

#include <vector>

#include "comet/tensor/tensor.h"

namespace comet {

/**
 * SmoothQuant's per-input-channel smoothing divisors for one
 * activation site: s_c = max(a_c^alpha / w_c^(1-alpha), 1e-5), where
 * a_c = max(max_t |X[t, c]|, 1e-5) and w_c = max(max_n |W[n, c]|,
 * 1e-5) over every weight matrix the site feeds (q, k and v share one
 * input, as do gate and up).
 *
 * @param act_calibration  calibration activations [tokens, channels]
 * @param weights          the site's weight matrices [out, channels]
 * @param alpha            migration strength in [0, 1]
 */
std::vector<float>
smoothQuantFactors(const Tensor &act_calibration,
                   const std::vector<const Tensor *> &weights,
                   float alpha = 0.5f);

} // namespace comet
