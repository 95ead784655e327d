/**
 * @file
 * The whole-sequence float forward of the tiny transformer, kept as
 * the test oracle of QuantizedDecoder's float path.
 *
 * forwardReference runs every layer over the whole sequence at once:
 * rmsNorm, one float GEMM per projection, RoPE on all rows, then
 * causal attention per head and row with double scores and a
 * normalized double softmax, and the tied LM head over every row. The
 * QuantSimulator hooks fire at the decoder's sites: transformActivation
 * on each linear input and transformKv on the whole post-RoPE K and V.
 * The decoder's float path prefilling the same sequence with the same
 * simulator must return the same logits bit for bit.
 *
 * sequenceNllReference and sampleSequenceReference are the scoring and
 * temperature-1 sampling loops over it: one forward per sequence, and
 * one forward of the whole prefix per sampled token.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "comet/common/rng.h"
#include "comet/kernel/gemm_ref.h"
#include "comet/model/tiny_transformer.h"

namespace comet {

namespace forward_reference_detail {

/** Numerically stable softmax over a row, in double. */
inline void
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

inline float
silu(float x)
{
    return static_cast<float>(x / (1.0 + std::exp(-x)));
}

} // namespace forward_reference_detail

/** Logits [tokens, vocab] of the whole sequence (causal attention). */
inline Tensor
forwardReference(const TinyTransformer &model,
                 const std::vector<int32_t> &tokens,
                 QuantSimulator *sim = nullptr)
{
    using forward_reference_detail::silu;
    using forward_reference_detail::softmaxInPlace;
    const TinyTransformerConfig &config = model.config();
    COMET_CHECK(!tokens.empty());
    const auto T = static_cast<int64_t>(tokens.size());
    const int64_t d = config.hidden_size;
    const int64_t head_dim = config.headDim();
    const int64_t heads = config.num_heads;
    const int64_t kv_heads = config.num_kv_heads;
    const int64_t group = heads / kv_heads;

    Tensor x(T, d);
    for (int64_t t = 0; t < T; ++t) {
        const int32_t id = tokens[static_cast<size_t>(t)];
        COMET_CHECK(id >= 0 && id < config.vocab_size);
        for (int64_t c = 0; c < d; ++c)
            x.at(t, c) = model.embedding().at(id, c);
    }

    for (int64_t l = 0; l < config.num_layers; ++l) {
        const auto weight = [&](WeightKind kind) -> const Tensor & {
            return model.weight({l, kind});
        };

        // --- Attention block ---
        Tensor h = model.rmsNorm(x, model.attnNormGain(l));
        if (sim != nullptr)
            h = sim->transformActivation({l, ActSite::kQkv}, h);
        Tensor q = gemmFloat(h, weight(WeightKind::kQ));
        Tensor k = gemmFloat(h, weight(WeightKind::kK));
        Tensor v = gemmFloat(h, weight(WeightKind::kV));
        for (int64_t t = 0; t < T; ++t) {
            ropeRow(q, t, heads, head_dim, t);
            ropeRow(k, t, kv_heads, head_dim, t);
        }
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
        Tensor o = gemmFloat(attn_out, weight(WeightKind::kO));
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += o[i];

        // --- MLP block ---
        Tensor m = model.rmsNorm(x, model.mlpNormGain(l));
        if (sim != nullptr)
            m = sim->transformActivation({l, ActSite::kMlp}, m);
        Tensor up = gemmFloat(m, weight(WeightKind::kUp));
        Tensor inter(T, config.intermediate_size);
        if (config.gated_mlp) {
            Tensor gate = gemmFloat(m, weight(WeightKind::kGate));
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
        Tensor down = gemmFloat(inter, weight(WeightKind::kDown));
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += down[i];
    }

    const Tensor normed = model.rmsNorm(x, model.finalNormGain());
    return gemmFloat(normed, model.embedding()); // tied LM head
}

/** Sum of next-token negative log likelihoods over the sequence
 * (positions 1..T-1) and the number of predicted tokens. */
inline std::pair<double, int64_t>
sequenceNllReference(const TinyTransformer &model,
                     const std::vector<int32_t> &tokens,
                     QuantSimulator *sim = nullptr)
{
    COMET_CHECK(tokens.size() >= 2);
    const Tensor logits = forwardReference(model, tokens, sim);
    const auto T = static_cast<int64_t>(tokens.size());
    const int64_t vocab = model.config().vocab_size;
    double nll = 0.0;
    std::vector<double> row(static_cast<size_t>(vocab));
    for (int64_t t = 0; t + 1 < T; ++t) {
        for (int64_t v = 0; v < vocab; ++v)
            row[static_cast<size_t>(v)] = logits.at(t, v);
        forward_reference_detail::softmaxInPlace(row);
        const int32_t target = tokens[static_cast<size_t>(t + 1)];
        const double p = std::max(
            row[static_cast<size_t>(target)], 1e-12);
        nll -= std::log(p);
    }
    return {nll, T - 1};
}

/** Samples a sequence autoregressively (temperature 1) from a random
 * BOS token, one whole-prefix forward per token. */
inline std::vector<int32_t>
sampleSequenceReference(const TinyTransformer &model, int64_t length,
                        Rng &rng)
{
    COMET_CHECK(length >= 2);
    const int64_t vocab = model.config().vocab_size;
    std::vector<int32_t> tokens;
    tokens.push_back(static_cast<int32_t>(
        rng.uniformInt(static_cast<uint64_t>(vocab))));
    std::vector<double> row(static_cast<size_t>(vocab));
    while (static_cast<int64_t>(tokens.size()) < length) {
        const Tensor logits = forwardReference(model, tokens);
        const int64_t last = static_cast<int64_t>(tokens.size()) - 1;
        for (int64_t v = 0; v < vocab; ++v)
            row[static_cast<size_t>(v)] = logits.at(last, v);
        forward_reference_detail::softmaxInPlace(row);
        double u = rng.uniform();
        int32_t pick = 0;
        for (int64_t v = 0; v < vocab; ++v) {
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

} // namespace comet
