#include "comet/model/tiny_transformer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "comet/model/synthetic.h"

namespace comet {

void
ropeRow(Tensor &x, int64_t row, int64_t heads, int64_t head_dim,
        int64_t pos)
{
    COMET_CHECK(head_dim % 2 == 0);
    std::vector<double> cos_sin(static_cast<size_t>(head_dim));
    ropeAngles(ropeInverseFrequencies(head_dim), pos, cos_sin.data());
    ropeRotate(x.data() + row * x.cols(), heads, head_dim, cos_sin.data());
}

std::vector<double>
ropeInverseFrequencies(int64_t head_dim)
{
    COMET_CHECK(head_dim % 2 == 0);
    std::vector<double> inv_freq(static_cast<size_t>(head_dim / 2));
    for (size_t d = 0; d < inv_freq.size(); ++d)
        inv_freq[d] = std::pow(10000.0, -2.0 * static_cast<double>(d) /
                                            static_cast<double>(head_dim));
    return inv_freq;
}

void
ropeAngles(const std::vector<double> &inv_freq, int64_t pos, double *cos_sin)
{
    for (size_t d = 0; d < inv_freq.size(); ++d) {
        const double theta = static_cast<double>(pos) * inv_freq[d];
        cos_sin[2 * d] = std::cos(theta);
        cos_sin[2 * d + 1] = std::sin(theta);
    }
}

void
ropeRotate(float *row, int64_t heads, int64_t head_dim, const double *cos_sin)
{
    // Every head rotates pair d by the same angle.
    for (int64_t d = 0; d < head_dim / 2; ++d) {
        const double c = cos_sin[2 * d], s = cos_sin[2 * d + 1];
        for (int64_t h = 0; h < heads; ++h) {
            float *pair = row + h * head_dim + 2 * d;
            const float x0 = pair[0];
            const float x1 = pair[1];
            pair[0] = static_cast<float>(x0 * c - x1 * s);
            pair[1] = static_cast<float>(x0 * s + x1 * c);
        }
    }
}

TinyTransformer
TinyTransformer::random(const TinyTransformerConfig &config)
{
    COMET_CHECK(config.hidden_size % config.num_heads == 0);
    COMET_CHECK(config.num_heads % config.num_kv_heads == 0);

    TinyTransformer model;
    model.config_ = config;
    Rng rng(config.seed);

    model.embedding_ = sampleWeights(config.vocab_size,
                                     config.hidden_size, rng);
    // Scale embeddings up so logits have useful dynamic range.
    for (int64_t i = 0; i < model.embedding_.numel(); ++i)
        model.embedding_[i] *= 4.0f;

    // Choose the planted outlier channels once for the whole model —
    // real LLM outlier channels are largely consistent across layers.
    const auto num_outliers = static_cast<int64_t>(std::llround(
        config.outlier_fraction *
        static_cast<double>(config.hidden_size)));
    std::vector<int64_t> ids(
        static_cast<size_t>(config.hidden_size));
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids);
    model.outlier_channels_.assign(ids.begin(),
                                   ids.begin() + num_outliers);
    std::sort(model.outlier_channels_.begin(),
              model.outlier_channels_.end());

    auto make_gain = [&](double layer_jitter) {
        std::vector<float> gain(
            static_cast<size_t>(config.hidden_size));
        for (auto &g : gain)
            g = static_cast<float>(rng.gaussian(1.0, 0.1));
        for (int64_t c : model.outlier_channels_) {
            gain[static_cast<size_t>(c)] = static_cast<float>(
                config.outlier_scale *
                rng.logNormal(layer_jitter, 0.25));
        }
        return gain;
    };

    const int64_t kv_dim = config.num_kv_heads * config.headDim();
    for (int64_t l = 0; l < config.num_layers; ++l) {
        LayerWeights layer;
        layer.wq = sampleWeights(config.hidden_size,
                                 config.hidden_size, rng);
        layer.wk = sampleWeights(kv_dim, config.hidden_size, rng);
        layer.wv = sampleWeights(kv_dim, config.hidden_size, rng);
        layer.wo = sampleWeights(config.hidden_size,
                                 config.hidden_size, rng);
        if (config.gated_mlp) {
            layer.w_gate = sampleWeights(config.intermediate_size,
                                         config.hidden_size, rng);
        }
        layer.w_up = sampleWeights(config.intermediate_size,
                                   config.hidden_size, rng);
        layer.w_down = sampleWeights(config.hidden_size,
                                     config.intermediate_size, rng);
        layer.attn_norm_gain = make_gain(0.0);
        layer.mlp_norm_gain = make_gain(0.1);
        model.layers_.push_back(std::move(layer));
    }
    model.final_norm_gain_.assign(
        static_cast<size_t>(config.hidden_size), 1.0f);
    return model;
}

Tensor
TinyTransformer::rmsNorm(const Tensor &x,
                         const std::vector<float> &gain) const
{
    const int64_t tokens = x.rows(), channels = x.cols();
    COMET_CHECK(static_cast<int64_t>(gain.size()) == channels);
    Tensor out(tokens, channels);
    for (int64_t t = 0; t < tokens; ++t) {
        const float *row = x.data() + t * channels;
        float *out_row = out.data() + t * channels;
        double ms = 0.0;
        for (int64_t c = 0; c < channels; ++c)
            ms += static_cast<double>(row[c]) * row[c];
        const double inv =
            1.0 / std::sqrt(ms / static_cast<double>(channels) + 1e-6);
        for (int64_t c = 0; c < channels; ++c) {
            out_row[c] = static_cast<float>(
                row[c] * inv * gain[static_cast<size_t>(c)]);
        }
    }
    return out;
}

TinyTransformer
TinyTransformer::transformedWeights(
    const std::function<Tensor(const LinearSite &, const Tensor &)>
        &transform) const
{
    TinyTransformer copy = *this;
    for (int64_t l = 0; l < config_.num_layers; ++l) {
        LayerWeights &layer = copy.layers_[static_cast<size_t>(l)];
        layer.wq = transform({l, WeightKind::kQ}, layer.wq);
        layer.wk = transform({l, WeightKind::kK}, layer.wk);
        layer.wv = transform({l, WeightKind::kV}, layer.wv);
        layer.wo = transform({l, WeightKind::kO}, layer.wo);
        if (config_.gated_mlp) {
            layer.w_gate =
                transform({l, WeightKind::kGate}, layer.w_gate);
        }
        layer.w_up = transform({l, WeightKind::kUp}, layer.w_up);
        layer.w_down = transform({l, WeightKind::kDown}, layer.w_down);
    }
    return copy;
}

const std::vector<float> &
TinyTransformer::attnNormGain(int64_t layer) const
{
    COMET_CHECK(layer >= 0 && layer < config_.num_layers);
    return layers_[static_cast<size_t>(layer)].attn_norm_gain;
}

const std::vector<float> &
TinyTransformer::mlpNormGain(int64_t layer) const
{
    COMET_CHECK(layer >= 0 && layer < config_.num_layers);
    return layers_[static_cast<size_t>(layer)].mlp_norm_gain;
}

const Tensor &
TinyTransformer::weight(const LinearSite &site) const
{
    COMET_CHECK(site.layer >= 0 && site.layer < config_.num_layers);
    const LayerWeights &layer =
        layers_[static_cast<size_t>(site.layer)];
    switch (site.kind) {
      case WeightKind::kQ: return layer.wq;
      case WeightKind::kK: return layer.wk;
      case WeightKind::kV: return layer.wv;
      case WeightKind::kO: return layer.wo;
      case WeightKind::kGate:
        COMET_CHECK_MSG(config_.gated_mlp,
                        "plain-MLP models have no gate projection");
        return layer.w_gate;
      case WeightKind::kUp: return layer.w_up;
      case WeightKind::kDown: return layer.w_down;
    }
    COMET_CHECK_MSG(false, "bad weight kind");
    return layers_.front().wq;
}

} // namespace comet
