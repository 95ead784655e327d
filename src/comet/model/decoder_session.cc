#include "comet/model/decoder_session.h"

#include <algorithm>
#include <cmath>

#include "comet/kernel/gemm_ref.h"

namespace comet {

namespace {

float
silu(float x)
{
    return static_cast<float>(x / (1.0 + std::exp(-x)));
}

} // namespace

DecoderSession::DecoderSession(const TinyTransformer &model,
                               std::optional<KvQuantConfig> kv_quant)
    : model_(model), kv_quant_(kv_quant)
{
    const auto &config = model_.config();
    attn_config_.num_heads = config.num_heads;
    attn_config_.num_kv_heads = config.num_kv_heads;
    attn_config_.head_dim = config.headDim();
    attn_config_.chunk_tokens = 64;
    if (kv_quant_) {
        k_stores_.assign(static_cast<size_t>(config.num_layers),
                         KvStore(attn_config_.kvDim(), *kv_quant_));
        v_stores_ = k_stores_;
    } else {
        caches_.resize(static_cast<size_t>(config.num_layers));
        ensureCapacity(16);
    }
}

void
DecoderSession::ensureCapacity(int64_t tokens)
{
    if (tokens <= capacity_)
        return;
    int64_t new_capacity = std::max<int64_t>(capacity_, 16);
    while (new_capacity < tokens)
        new_capacity *= 2;
    const int64_t kv_dim = attn_config_.kvDim();
    for (LayerCache &cache : caches_) {
        Tensor k(new_capacity, kv_dim);
        Tensor v(new_capacity, kv_dim);
        std::copy(cache.k.data(), cache.k.data() + position_ * kv_dim,
                  k.data());
        std::copy(cache.v.data(), cache.v.data() + position_ * kv_dim,
                  v.data());
        cache.k = std::move(k);
        cache.v = std::move(v);
    }
    capacity_ = new_capacity;
}

std::vector<float>
DecoderSession::step(int32_t token)
{
    const auto &config = model_.config();
    COMET_CHECK(token >= 0 && token < config.vocab_size);
    if (!kv_quant_)
        ensureCapacity(position_ + 1);

    const int64_t d = config.hidden_size;
    const int64_t kv_dim = attn_config_.kvDim();

    Tensor x(1, d);
    for (int64_t c = 0; c < d; ++c)
        x.at(0, c) = model_.embedding().at(token, c);

    for (int64_t l = 0; l < config.num_layers; ++l) {
        // --- Attention block ---
        const Tensor h =
            model_.rmsNormRows(x, model_.attnNormGain(l));
        Tensor q = gemmFloat(h, model_.weight({l, WeightKind::kQ}));
        Tensor k_row =
            gemmFloat(h, model_.weight({l, WeightKind::kK}));
        const Tensor v_row =
            gemmFloat(h, model_.weight({l, WeightKind::kV}));
        ropeRow(q, 0, config.num_heads, config.headDim(), position_);
        ropeRow(k_row, 0, config.num_kv_heads, config.headDim(),
                position_);
        const std::vector<float> q_vec(q.data(), q.data() + d);

        // Append this token's K/V, then attend over [0, position_].
        std::vector<float> attn;
        if (kv_quant_) {
            // The packed store re-quantizes only its open group;
            // attention dequantizes each chunk as it streams.
            KvStore &k_store = k_stores_[static_cast<size_t>(l)];
            KvStore &v_store = v_stores_[static_cast<size_t>(l)];
            k_store.append(k_row.data());
            v_store.append(v_row.data());
            attn = decodeAttentionQuantized(attn_config_, q_vec, k_store,
                                            v_store);
        } else {
            LayerCache &cache = caches_[static_cast<size_t>(l)];
            std::copy(k_row.data(), k_row.data() + kv_dim,
                      cache.k.data() + position_ * kv_dim);
            std::copy(v_row.data(), v_row.data() + kv_dim,
                      cache.v.data() + position_ * kv_dim);
            attn = decodeAttentionOnline(attn_config_, q_vec, cache.k,
                                         cache.v, position_ + 1);
        }
        Tensor attn_row(1, d);
        for (int64_t c = 0; c < d; ++c)
            attn_row.at(0, c) = attn[static_cast<size_t>(c)];
        const Tensor o =
            gemmFloat(attn_row, model_.weight({l, WeightKind::kO}));
        for (int64_t c = 0; c < d; ++c)
            x.at(0, c) += o.at(0, c);

        // --- MLP block ---
        const Tensor m = model_.rmsNormRows(x, model_.mlpNormGain(l));
        const Tensor up =
            gemmFloat(m, model_.weight({l, WeightKind::kUp}));
        Tensor inter(1, config.intermediate_size);
        if (config.gated_mlp) {
            const Tensor gate =
                gemmFloat(m, model_.weight({l, WeightKind::kGate}));
            for (int64_t c = 0; c < config.intermediate_size; ++c)
                inter.at(0, c) = silu(gate.at(0, c)) * up.at(0, c);
        } else {
            for (int64_t c = 0; c < config.intermediate_size; ++c)
                inter.at(0, c) = std::max(up.at(0, c), 0.0f);
        }
        const Tensor down =
            gemmFloat(inter, model_.weight({l, WeightKind::kDown}));
        for (int64_t c = 0; c < d; ++c)
            x.at(0, c) += down.at(0, c);
    }

    const Tensor normed =
        model_.rmsNormRows(x, model_.finalNormGain());
    const Tensor logits = gemmFloat(normed, model_.embedding());
    ++position_;

    std::vector<float> out(static_cast<size_t>(config.vocab_size));
    for (int64_t v = 0; v < config.vocab_size; ++v)
        out[static_cast<size_t>(v)] = logits.at(0, v);
    return out;
}

std::vector<float>
DecoderSession::prefill(const std::vector<int32_t> &tokens)
{
    COMET_CHECK(!tokens.empty());
    std::vector<float> logits;
    for (int32_t token : tokens)
        logits = step(token);
    return logits;
}

std::vector<int32_t>
DecoderSession::generate(const std::vector<int32_t> &prompt,
                         int64_t new_tokens, Rng &rng)
{
    std::vector<int32_t> sequence = prompt;
    std::vector<float> logits = prefill(prompt);
    for (int64_t i = 0; i < new_tokens; ++i) {
        // Temperature-1 sampling over the softmax of the logits.
        double max_logit = logits[0];
        for (float v : logits)
            max_logit = std::max(max_logit, static_cast<double>(v));
        std::vector<double> probs(logits.size());
        double sum = 0.0;
        for (size_t v = 0; v < logits.size(); ++v) {
            probs[v] = std::exp(static_cast<double>(logits[v]) -
                                max_logit);
            sum += probs[v];
        }
        double u = rng.uniform() * sum;
        int32_t pick = 0;
        for (size_t v = 0; v < probs.size(); ++v) {
            u -= probs[v];
            if (u <= 0.0) {
                pick = static_cast<int32_t>(v);
                break;
            }
        }
        sequence.push_back(pick);
        logits = step(pick);
    }
    return sequence;
}

double
DecoderSession::kvCacheBytes() const
{
    const double bits =
        kv_quant_ ? static_cast<double>(kv_quant_->bits) : 16.0;
    return 2.0 * static_cast<double>(model_.config().num_layers) *
           static_cast<double>(attn_config_.kvDim()) *
           static_cast<double>(position_) * bits / 8.0;
}

} // namespace comet
