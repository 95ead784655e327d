#include "comet/quant/smooth_quant.h"

#include <algorithm>
#include <cmath>

namespace comet {

std::vector<float>
smoothQuantFactors(const Tensor &act_calibration,
                   const std::vector<const Tensor *> &weights,
                   float alpha)
{
    COMET_CHECK(act_calibration.shape().rank() == 2);
    COMET_CHECK(alpha >= 0.0f && alpha <= 1.0f);
    const int64_t channels = act_calibration.cols();
    const auto channel_count = static_cast<size_t>(channels);

    std::vector<float> a_max(channel_count, 0.0f);
    for (int64_t t = 0; t < act_calibration.rows(); ++t) {
        for (int64_t c = 0; c < channels; ++c) {
            a_max[static_cast<size_t>(c)] =
                std::max(a_max[static_cast<size_t>(c)],
                         std::fabs(act_calibration.at(t, c)));
        }
    }
    std::vector<float> w_max(channel_count, 0.0f);
    for (const Tensor *weight : weights) {
        COMET_CHECK(weight->shape().rank() == 2);
        COMET_CHECK_MSG(weight->cols() == channels,
                        "activation channels must match weight "
                        "in_channels");
        for (int64_t n = 0; n < weight->rows(); ++n) {
            for (int64_t c = 0; c < channels; ++c) {
                w_max[static_cast<size_t>(c)] =
                    std::max(w_max[static_cast<size_t>(c)],
                             std::fabs(weight->at(n, c)));
            }
        }
    }

    std::vector<float> factors(channel_count);
    for (size_t c = 0; c < channel_count; ++c) {
        const float a = std::max(a_max[c], 1e-5f);
        const float w = std::max(w_max[c], 1e-5f);
        factors[c] = std::max(std::pow(a, alpha) /
                                  std::pow(w, 1.0f - alpha),
                              1e-5f);
    }
    return factors;
}

} // namespace comet
