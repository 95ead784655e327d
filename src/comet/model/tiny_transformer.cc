#include "comet/model/tiny_transformer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "comet/kernel/gemm_ref.h"
#include "comet/model/synthetic.h"

namespace comet {

namespace {

/** Applies rotary position embedding in place to [tokens, heads, dim]
 * laid out as a rank-2 [tokens, heads*dim] tensor. */
void
applyRope(Tensor &x, int64_t heads, int64_t head_dim)
{
    for (int64_t t = 0; t < x.rows(); ++t)
        ropeRow(x, t, heads, head_dim, t);
}

/** Numerically stable softmax over a row span, in double. */
void
softmaxInPlace(std::vector<double> &row)
{
    double max_val = row[0];
    for (double v : row)
        max_val = std::max(max_val, v);
    double sum = 0.0;
    for (double &v : row) {
        v = std::exp(v - max_val);
        sum += v;
    }
    for (double &v : row)
        v /= sum;
}

float
silu(float x)
{
    return static_cast<float>(x / (1.0 + std::exp(-x)));
}

} // namespace

void
ropeRow(Tensor &x, int64_t row, int64_t heads, int64_t head_dim,
        int64_t pos)
{
    COMET_CHECK(head_dim % 2 == 0);
    float *r = x.data() + row * x.cols();
    // Every head rotates pair d by the same angle: one cos/sin per pair.
    for (int64_t d = 0; d < head_dim / 2; ++d) {
        const double theta =
            static_cast<double>(pos) *
            std::pow(10000.0, -2.0 * static_cast<double>(d) /
                                  static_cast<double>(head_dim));
        const double c = std::cos(theta), s = std::sin(theta);
        for (int64_t h = 0; h < heads; ++h) {
            float *pair = r + h * head_dim + 2 * d;
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
        double ms = 0.0;
        for (int64_t c = 0; c < channels; ++c)
            ms += static_cast<double>(x.at(t, c)) * x.at(t, c);
        const double inv =
            1.0 / std::sqrt(ms / static_cast<double>(channels) + 1e-6);
        for (int64_t c = 0; c < channels; ++c) {
            out.at(t, c) = static_cast<float>(
                x.at(t, c) * inv * gain[static_cast<size_t>(c)]);
        }
    }
    return out;
}

Tensor
TinyTransformer::forward(const std::vector<int32_t> &tokens,
                         QuantSimulator *sim) const
{
    COMET_CHECK(!tokens.empty());
    const auto T = static_cast<int64_t>(tokens.size());
    const int64_t d = config_.hidden_size;
    const int64_t head_dim = config_.headDim();
    const int64_t heads = config_.num_heads;
    const int64_t kv_heads = config_.num_kv_heads;
    const int64_t group = heads / kv_heads;

    Tensor x(T, d);
    for (int64_t t = 0; t < T; ++t) {
        const int32_t id = tokens[static_cast<size_t>(t)];
        COMET_CHECK(id >= 0 && id < config_.vocab_size);
        for (int64_t c = 0; c < d; ++c)
            x.at(t, c) = embedding_.at(id, c);
    }

    for (int64_t l = 0; l < config_.num_layers; ++l) {
        const LayerWeights &layer =
            layers_[static_cast<size_t>(l)];

        // --- Attention block ---
        Tensor h = rmsNorm(x, layer.attn_norm_gain);
        if (sim != nullptr)
            h = sim->transformActivation({l, ActSite::kQkv}, h);
        Tensor q = gemmFloat(h, layer.wq);
        Tensor k = gemmFloat(h, layer.wk);
        Tensor v = gemmFloat(h, layer.wv);
        applyRope(q, heads, head_dim);
        applyRope(k, kv_heads, head_dim);
        if (sim != nullptr) {
            k = sim->transformKv(l, true, k);
            v = sim->transformKv(l, false, v);
        }

        Tensor attn_out(T, d);
        const double inv_sqrt =
            1.0 / std::sqrt(static_cast<double>(head_dim));
        std::vector<double> scores;
        for (int64_t head = 0; head < heads; ++head) {
            const int64_t kv_head = head / group;
            const int64_t q_base = head * head_dim;
            const int64_t kv_base = kv_head * head_dim;
            for (int64_t t = 0; t < T; ++t) {
                scores.assign(static_cast<size_t>(t + 1), 0.0);
                for (int64_t s = 0; s <= t; ++s) {
                    double dot = 0.0;
                    for (int64_t c = 0; c < head_dim; ++c) {
                        dot += static_cast<double>(
                                   q.at(t, q_base + c)) *
                               k.at(s, kv_base + c);
                    }
                    scores[static_cast<size_t>(s)] = dot * inv_sqrt;
                }
                softmaxInPlace(scores);
                for (int64_t c = 0; c < head_dim; ++c) {
                    double acc = 0.0;
                    for (int64_t s = 0; s <= t; ++s) {
                        acc += scores[static_cast<size_t>(s)] *
                               v.at(s, kv_base + c);
                    }
                    attn_out.at(t, q_base + c) =
                        static_cast<float>(acc);
                }
            }
        }
        if (sim != nullptr) {
            attn_out =
                sim->transformActivation({l, ActSite::kO}, attn_out);
        }
        Tensor o = gemmFloat(attn_out, layer.wo);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += o[i];

        // --- MLP block ---
        Tensor m = rmsNorm(x, layer.mlp_norm_gain);
        if (sim != nullptr)
            m = sim->transformActivation({l, ActSite::kMlp}, m);
        Tensor up = gemmFloat(m, layer.w_up);
        Tensor inter(T, config_.intermediate_size);
        if (config_.gated_mlp) {
            Tensor gate = gemmFloat(m, layer.w_gate);
            for (int64_t i = 0; i < inter.numel(); ++i)
                inter[i] = silu(gate[i]) * up[i];
        } else {
            // OPT-style plain MLP with ReLU.
            for (int64_t i = 0; i < inter.numel(); ++i)
                inter[i] = std::max(up[i], 0.0f);
        }
        if (sim != nullptr) {
            inter =
                sim->transformActivation({l, ActSite::kDown}, inter);
        }
        Tensor down = gemmFloat(inter, layer.w_down);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += down[i];
    }

    const Tensor normed = rmsNorm(x, final_norm_gain_);
    return gemmFloat(normed, embedding_); // tied LM head
}

std::pair<double, int64_t>
TinyTransformer::sequenceNll(const std::vector<int32_t> &tokens,
                             QuantSimulator *sim) const
{
    COMET_CHECK(tokens.size() >= 2);
    const Tensor logits = forward(tokens, sim);
    const auto T = static_cast<int64_t>(tokens.size());
    double nll = 0.0;
    std::vector<double> row(static_cast<size_t>(config_.vocab_size));
    for (int64_t t = 0; t + 1 < T; ++t) {
        for (int64_t v = 0; v < config_.vocab_size; ++v)
            row[static_cast<size_t>(v)] = logits.at(t, v);
        softmaxInPlace(row);
        const int32_t target = tokens[static_cast<size_t>(t + 1)];
        const double p = std::max(
            row[static_cast<size_t>(target)], 1e-12);
        nll -= std::log(p);
    }
    return {nll, T - 1};
}

std::vector<int32_t>
TinyTransformer::sampleSequence(int64_t length, Rng &rng) const
{
    COMET_CHECK(length >= 2);
    std::vector<int32_t> tokens;
    tokens.push_back(static_cast<int32_t>(
        rng.uniformInt(static_cast<uint64_t>(config_.vocab_size))));
    std::vector<double> row(static_cast<size_t>(config_.vocab_size));
    while (static_cast<int64_t>(tokens.size()) < length) {
        const Tensor logits = forward(tokens);
        const int64_t last =
            static_cast<int64_t>(tokens.size()) - 1;
        for (int64_t v = 0; v < config_.vocab_size; ++v)
            row[static_cast<size_t>(v)] = logits.at(last, v);
        softmaxInPlace(row);
        double u = rng.uniform();
        int32_t pick = 0;
        for (int64_t v = 0; v < config_.vocab_size; ++v) {
            u -= row[static_cast<size_t>(v)];
            if (u <= 0.0) {
                pick = static_cast<int32_t>(v);
                break;
            }
        }
        tokens.push_back(pick);
    }
    return tokens;
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
