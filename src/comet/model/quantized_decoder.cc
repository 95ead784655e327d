#include "comet/model/quantized_decoder.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "comet/kernel/gemm_ref.h"
#include "comet/obs/trace_session.h"
#include "comet/runtime/thread_pool.h"
#include "comet/simd/simd.h"

namespace comet {

namespace {

float
silu(float x)
{
    return static_cast<float>(x / (1.0 + std::exp(-x)));
}

/** Columns [begin, begin + count) of @p t. */
Tensor
sliceColumns(const Tensor &t, int64_t begin, int64_t count)
{
    Tensor out(t.rows(), count);
    for (int64_t r = 0; r < t.rows(); ++r) {
        const float *src = t.data() + r * t.cols() + begin;
        std::copy(src, src + count, out.data() + r * count);
    }
    return out;
}

/** The weights a site's linear stacks, in output-row order. */
std::vector<const Tensor *>
siteWeights(const TinyTransformer &model, int64_t layer, ActSite site)
{
    std::vector<WeightKind> kinds;
    switch (site) {
    case ActSite::kQkv:
        kinds = {WeightKind::kQ, WeightKind::kK, WeightKind::kV};
        break;
    case ActSite::kO:
        kinds = {WeightKind::kO};
        break;
    case ActSite::kMlp:
        kinds = model.config().gated_mlp
                    ? std::vector{WeightKind::kGate, WeightKind::kUp}
                    : std::vector{WeightKind::kUp};
        break;
    case ActSite::kDown:
        kinds = {WeightKind::kDown};
        break;
    }
    std::vector<const Tensor *> parts;
    for (WeightKind kind : kinds)
        parts.push_back(&model.weight({layer, kind}));
    return parts;
}

} // namespace

std::vector<double>
softmaxDouble(const float *logits, int64_t n)
{
    COMET_CHECK(n > 0);
    std::vector<double> probs(logits, logits + n);
    double max_val = probs[0];
    for (double v : probs)
        max_val = std::max(max_val, v);
    double sum = 0.0;
    for (double &v : probs) {
        v = std::exp(v - max_val);
        sum += v;
    }
    for (double &v : probs)
        v /= sum;
    return probs;
}

int32_t
sampleToken(const std::vector<double> &probs, Rng &rng)
{
    double u = rng.uniform();
    for (size_t v = 0; v < probs.size(); ++v) {
        u -= probs[v];
        if (u <= 0.0)
            return static_cast<int32_t>(v);
    }
    return static_cast<int32_t>(probs.size() - 1);
}

Tensor
QuantizedDecoder::Linear::run(const Tensor &h) const
{
    if (const auto *p = std::get_if<Packed>(&form))
        return p->gemm.run(p->quantizer.quantize(h));
    return gemmFloat(h, std::get<Tensor>(form));
}

QuantizedDecoder::QuantizedDecoder(const TinyTransformer &model,
                                   std::optional<KvQuantConfig> kv_quant)
    : QuantizedDecoder(model, kv_quant, floatLinears(model))
{
}

QuantizedDecoder::QuantizedDecoder(const TinyTransformer &model,
                                   const CalibrationData &calibration,
                                   QuantizedDecoderConfig config)
    : QuantizedDecoder(model, config.kv,
                       packedLinears(model, calibration, config))
{
}

QuantizedDecoder::QuantizedDecoder(const TinyTransformer &model,
                                   std::optional<KvQuantConfig> kv_quant,
                                   std::vector<Linear> linears)
    : model_(model),
      linears_(std::make_shared<const std::vector<Linear>>(std::move(linears)))
{
    const auto &mc = model_.config();
    attn_config_.num_heads = mc.num_heads;
    attn_config_.num_kv_heads = mc.num_kv_heads;
    attn_config_.head_dim = mc.headDim();
    attn_config_.chunk_tokens = 64;
    rope_inv_freq_ = ropeInverseFrequencies(mc.headDim());
    if (kv_quant) {
        k_stores_.assign(static_cast<size_t>(mc.num_layers),
                         KvStore(attn_config_.kvDim(), *kv_quant));
        v_stores_ = k_stores_;
    } else {
        float_kv_.resize(static_cast<size_t>(mc.num_layers));
        reserveFloatKv(16);
    }
}

std::vector<QuantizedDecoder::Linear>
QuantizedDecoder::floatLinears(const TinyTransformer &model)
{
    std::vector<Linear> linears;
    for (int64_t l = 0; l < model.config().num_layers; ++l) {
        for (int s = 0; s < kNumActSites; ++s) {
            linears.push_back(Linear{stackRows(
                siteWeights(model, l, static_cast<ActSite>(s)))});
        }
    }
    return linears;
}

std::vector<QuantizedDecoder::Linear>
QuantizedDecoder::packedLinears(const TinyTransformer &model,
                                const CalibrationData &calibration,
                                const QuantizedDecoderConfig &config)
{
    W4AxGemmConfig gemm_config;
    gemm_config.tile_m = config.tile_m;
    gemm_config.tile_n = config.tile_n;
    gemm_config.tile_k = config.tile_k;
    gemm_config.threads = config.gemm_threads;

    // Calibrate one FMPQ quantizer per (layer, site), then pack every
    // weight in its feeding site's permuted block layout. The
    // calibration sweeps are independent per (layer, site) and fan
    // out across the runtime pool into index-addressed slots, so the
    // site order (and every quantizer) matches the sequential sweep
    // exactly.
    const int64_t num_sites = model.config().num_layers * kNumActSites;
    std::vector<std::optional<FmpqActivationQuantizer>> calibrated(
        static_cast<size_t>(num_sites));
    parallelFor(0, num_sites, 1, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            const int64_t l = i / kNumActSites;
            const auto act_site =
                static_cast<ActSite>(i % kNumActSites);
            calibrated[static_cast<size_t>(i)] =
                FmpqActivationQuantizer::calibrate(
                    calibration.activations(l, act_site), config.fmpq);
        }
    });
    // Projections sharing an activation site stack into one weight;
    // quantization is per output row, so the stacked packed weight is
    // the separate ones' rows in order.
    std::vector<Linear> linears;
    for (int64_t i = 0; i < num_sites; ++i) {
        FmpqActivationQuantizer &quantizer =
            *calibrated[static_cast<size_t>(i)];
        W4AxGemm gemm(quantizer.quantizeWeight(stackRows(siteWeights(
                          model, i / kNumActSites,
                          static_cast<ActSite>(i % kNumActSites)))),
                      quantizer.blockPrecisions(), gemm_config);
        linears.push_back(
            Linear{Linear::Packed{std::move(quantizer), std::move(gemm)}});
    }
    return linears;
}

const QuantizedDecoder::Linear &
QuantizedDecoder::linear(int64_t layer, ActSite act_site) const
{
    return (*linears_)[static_cast<size_t>(layer * kNumActSites +
                                           static_cast<int>(act_site))];
}

double
QuantizedDecoder::w4a4ComputeFraction() const
{
    double sum = 0.0;
    for (const Linear &l : *linears_) {
        if (const auto *p = std::get_if<Linear::Packed>(&l.form))
            sum += p->quantizer.w4a4ComputeFraction();
    }
    return sum / static_cast<double>(linears_->size());
}

void
QuantizedDecoder::reserveFloatKv(int64_t tokens)
{
    if (float_kv_.empty() || tokens <= float_kv_.front().k.rows())
        return;
    int64_t capacity = std::max<int64_t>(float_kv_.front().k.rows(), 16);
    while (capacity < tokens)
        capacity *= 2;
    const int64_t kv_dim = attn_config_.kvDim();
    for (FloatKv &cache : float_kv_) {
        Tensor k(capacity, kv_dim);
        Tensor v(capacity, kv_dim);
        std::copy(cache.k.data(), cache.k.data() + position_ * kv_dim,
                  k.data());
        std::copy(cache.v.data(), cache.v.data() + position_ * kv_dim,
                  v.data());
        cache.k = std::move(k);
        cache.v = std::move(v);
    }
}

int64_t
QuantizedDecoder::kvCacheBytes() const
{
    // The float cache stands for FP16: 2 B per value, K and V.
    int64_t bytes = static_cast<int64_t>(float_kv_.size()) * 2 *
                    attn_config_.kvDim() * position_ * 2;
    for (size_t l = 0; l < k_stores_.size(); ++l)
        bytes += k_stores_[l].bytes() + v_stores_[l].bytes();
    return bytes;
}

std::vector<float>
QuantizedDecoder::step(int32_t token)
{
    return prefill({token});
}

Tensor
QuantizedDecoder::runLayers(const std::vector<int32_t> &tokens,
                            QuantSimulator *sim)
{
    const auto &mc = model_.config();
    COMET_CHECK(!tokens.empty());
    const auto rows = static_cast<int64_t>(tokens.size());
    const int64_t d = mc.hidden_size;
    const int64_t kv_dim = attn_config_.kvDim();

    Tensor x(rows, d);
    for (int64_t r = 0; r < rows; ++r) {
        const int32_t token = tokens[static_cast<size_t>(r)];
        COMET_CHECK(token >= 0 && token < mc.vocab_size);
        const float *embedding = model_.embedding().data() + token * d;
        std::copy(embedding, embedding + d, x.data() + r * d);
    }

    reserveFloatKv(position_ + rows);
    // Each row's RoPE angles, once per forward: q and k of every layer
    // turn by them.
    const int64_t hd = mc.headDim();
    std::vector<double> rope(static_cast<size_t>(rows * hd));
    for (int64_t r = 0; r < rows; ++r)
        ropeAngles(rope_inv_freq_, position_ + r, rope.data() + r * hd);
    for (int64_t l = 0; l < mc.num_layers; ++l) {
        const auto layer = static_cast<size_t>(l);

        // --- Attention block (one q|k|v GEMM over every row, then
        // causal attention over the call's rows) ---
        const Tensor qkv = [&] {
            COMET_SPAN("decoder/qkv");
            Tensor h = model_.rmsNorm(x, model_.attnNormGain(l));
            if (sim != nullptr)
                h = sim->transformActivation({l, ActSite::kQkv}, h);
            return linear(l, ActSite::kQkv).run(h);
        }();
        Tensor attn = [&] {
            COMET_SPAN("decoder/attention");
            Tensor q = sliceColumns(qkv, 0, d);
            Tensor k = sliceColumns(qkv, d, kv_dim);
            Tensor v = sliceColumns(qkv, d + kv_dim, kv_dim);
            for (int64_t r = 0; r < rows; ++r) {
                const double *angles = rope.data() + r * hd;
                ropeRotate(q.data() + r * d, mc.num_heads, hd, angles);
                ropeRotate(k.data() + r * kv_dim, mc.num_kv_heads, hd,
                           angles);
            }
            if (sim != nullptr) {
                k = sim->transformKv(l, true, k);
                v = sim->transformKv(l, false, v);
            }
            if (float_kv_.empty())
                return appendAttendQuantized(attn_config_, q, k, v,
                                             k_stores_[layer],
                                             v_stores_[layer]);
            // The float cache's rows never change once written, so the
            // call's rows go in first and row r attends the first
            // position + r + 1 of them.
            FloatKv &cache = float_kv_[layer];
            std::copy(k.data(), k.data() + rows * kv_dim,
                      cache.k.data() + position_ * kv_dim);
            std::copy(v.data(), v.data() + rows * kv_dim,
                      cache.v.data() + position_ * kv_dim);
            Tensor out(rows, d);
            std::vector<float> q_row(static_cast<size_t>(d));
            for (int64_t r = 0; r < rows; ++r) {
                std::copy(q.data() + r * d, q.data() + (r + 1) * d,
                          q_row.begin());
                const std::vector<float> row = decodeAttentionOnline(
                    attn_config_, q_row, cache.k, cache.v, position_ + r + 1);
                std::copy(row.begin(), row.end(), out.data() + r * d);
            }
            return out;
        }();
        {
            COMET_SPAN("decoder/o");
            if (sim != nullptr)
                attn = sim->transformActivation({l, ActSite::kO}, attn);
            const Tensor o = linear(l, ActSite::kO).run(attn);
            for (int64_t i = 0; i < x.numel(); ++i)
                x[i] += o[i];
        }

        // --- MLP block (one [gate|]up GEMM, then down) ---
        COMET_SPAN("decoder/mlp");
        const int64_t inter_dim = mc.intermediate_size;
        Tensor m = model_.rmsNorm(x, model_.mlpNormGain(l));
        if (sim != nullptr)
            m = sim->transformActivation({l, ActSite::kMlp}, m);
        const Tensor up = linear(l, ActSite::kMlp).run(m);
        Tensor inter(rows, inter_dim);
        for (int64_t r = 0; r < rows; ++r) {
            const float *src = up.data() + r * up.cols();
            float *dst = inter.data() + r * inter_dim;
            for (int64_t c = 0; c < inter_dim; ++c) {
                dst[c] = mc.gated_mlp ? silu(src[c]) * src[inter_dim + c]
                                      : std::max(src[c], 0.0f);
            }
        }
        if (sim != nullptr)
            inter = sim->transformActivation({l, ActSite::kDown}, inter);
        const Tensor down = linear(l, ActSite::kDown).run(inter);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += down[i];
    }
    position_ += rows;
    return x;
}

std::vector<float>
QuantizedDecoder::prefill(const std::vector<int32_t> &tokens,
                          QuantSimulator *sim)
{
    const Tensor x = runLayers(tokens, sim);
    const auto &mc = model_.config();
    const int64_t rows = x.rows();
    const int64_t d = mc.hidden_size;

    // Only the last row's logits are returned, so the final norm and
    // the LM head run on that row alone.
    COMET_SPAN("decoder/lm_head");
    Tensor last(1, d);
    std::copy(x.data() + (rows - 1) * d, x.data() + rows * d,
              last.data());
    const Tensor normed = model_.rmsNorm(last, model_.finalNormGain());
    // The LM head stays FP16 in every configuration (engine
    // convention). The float reference keeps gemmFloat's double sums
    // over the tied embedding; the packed path runs a float GEMV over
    // its rows in the fixed simd lane order. Each row's logit does not
    // depend on which rows share its call, so the fan-out (above
    // kMinPoolMacs) is bit-identical for any pool size.
    if (std::holds_alternative<Tensor>(linears_->front().form)) {
        const Tensor head = gemmFloat(normed, model_.embedding());
        return {head.data(), head.data() + mc.vocab_size};
    }
    std::vector<float> logits(static_cast<size_t>(mc.vocab_size));
    const auto gemv = [&](int64_t v_begin, int64_t v_end) {
        simd::gemvF32(normed.data(), model_.embedding().data() + v_begin * d,
                      d, v_end - v_begin, d, logits.data() + v_begin);
    };
    if (mc.vocab_size * d < kMinPoolMacs)
        gemv(0, mc.vocab_size);
    else
        parallelFor(0, mc.vocab_size, 64, gemv);
    return logits;
}

Tensor
QuantizedDecoder::prefillLogits(const std::vector<int32_t> &tokens,
                                QuantSimulator *sim)
{
    COMET_CHECK_MSG(std::holds_alternative<Tensor>(linears_->front().form),
                    "all-row logits need the float LM head");
    const Tensor x = runLayers(tokens, sim);
    COMET_SPAN("decoder/lm_head");
    return gemmFloat(model_.rmsNorm(x, model_.finalNormGain()),
                     model_.embedding());
}

std::vector<float>
QuantizedDecoder::generate(std::vector<int32_t> &tokens, int64_t length,
                           Rng &rng)
{
    std::vector<float> logits = prefill(tokens);
    while (static_cast<int64_t>(tokens.size()) < length) {
        tokens.push_back(sampleToken(
            softmaxDouble(logits.data(), static_cast<int64_t>(logits.size())),
            rng));
        logits = step(tokens.back());
    }
    return logits;
}

} // namespace comet
