#include "comet/model/quantized_decoder.h"

#include <algorithm>
#include <cmath>
#include <optional>

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

} // namespace

QuantizedDecoder::QuantizedDecoder(const TinyTransformer &model,
                                   const CalibrationData &calibration,
                                   QuantizedDecoderConfig config)
    : model_(model), config_(config)
{
    const auto &mc = model_.config();
    attn_config_.num_heads = mc.num_heads;
    attn_config_.num_kv_heads = mc.num_kv_heads;
    attn_config_.head_dim = mc.headDim();
    attn_config_.chunk_tokens = 64;
    k_stores_.assign(static_cast<size_t>(mc.num_layers),
                    KvStore(attn_config_.kvDim(), config_.kv));
    v_stores_ = k_stores_;

    W4AxGemmConfig gemm_config;
    gemm_config.tile_m = config_.tile_m;
    gemm_config.tile_n = config_.tile_n;
    gemm_config.tile_k = config_.tile_k;
    gemm_config.threads = config_.gemm_threads;

    // Calibrate one FMPQ quantizer per (layer, site), then pack every
    // weight in its feeding site's permuted block layout. The
    // calibration sweeps are independent per (layer, site) and fan
    // out across the runtime pool into index-addressed slots, so the
    // site order (and every quantizer) matches the sequential sweep
    // exactly.
    const int64_t num_sites = mc.num_layers * kNumActSites;
    std::vector<std::optional<FmpqActivationQuantizer>> calibrated(
        static_cast<size_t>(num_sites));
    parallelFor(0, num_sites, 1, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            const int64_t l = i / kNumActSites;
            const auto act_site =
                static_cast<ActSite>(i % kNumActSites);
            calibrated[static_cast<size_t>(i)] =
                FmpqActivationQuantizer::calibrate(
                    calibration.activations(l, act_site),
                    config_.fmpq);
        }
    });
    sites_.reserve(static_cast<size_t>(num_sites));
    for (int64_t i = 0; i < num_sites; ++i)
        sites_.push_back(
            SiteOps{std::move(*calibrated[static_cast<size_t>(i)])});
    // Projections sharing an activation site stack into one weight;
    // quantization is per output row, so the stacked packed weight is
    // the separate ones' rows in order.
    const auto gemm = [&](int64_t l, ActSite act_site,
                          std::vector<WeightKind> kinds) {
        const auto &quantizer = site(l, act_site);
        std::vector<const Tensor *> parts;
        for (WeightKind kind : kinds)
            parts.push_back(&model_.weight({l, kind}));
        return W4AxGemm(quantizer.quantizeWeight(stackRows(parts)),
                        quantizer.blockPrecisions(), gemm_config);
    };
    for (int64_t l = 0; l < mc.num_layers; ++l) {
        layers_.push_back(LayerOps{
            gemm(l, ActSite::kQkv,
                 {WeightKind::kQ, WeightKind::kK, WeightKind::kV}),
            gemm(l, ActSite::kO, {WeightKind::kO}),
            mc.gated_mlp
                ? gemm(l, ActSite::kMlp, {WeightKind::kGate, WeightKind::kUp})
                : gemm(l, ActSite::kMlp, {WeightKind::kUp}),
            gemm(l, ActSite::kDown, {WeightKind::kDown})});
    }
}

const FmpqActivationQuantizer &
QuantizedDecoder::site(int64_t layer, ActSite act_site) const
{
    return sites_[static_cast<size_t>(layer * kNumActSites +
                                      static_cast<int>(act_site))]
        .quantizer;
}

double
QuantizedDecoder::w4a4ComputeFraction() const
{
    double sum = 0.0;
    for (const SiteOps &ops : sites_)
        sum += ops.quantizer.w4a4ComputeFraction();
    return sum / static_cast<double>(sites_.size());
}

Tensor
QuantizedDecoder::runLinear(int64_t layer, ActSite act_site,
                            const W4AxGemm &gemm,
                            const Tensor &h) const
{
    return gemm.run(site(layer, act_site).quantize(h));
}

int64_t
QuantizedDecoder::kvCacheBytes() const
{
    int64_t bytes = 0;
    for (size_t l = 0; l < k_stores_.size(); ++l)
        bytes += k_stores_[l].bytes() + v_stores_[l].bytes();
    return bytes;
}

std::vector<float>
QuantizedDecoder::step(int32_t token)
{
    return prefill({token});
}

std::vector<float>
QuantizedDecoder::prefill(const std::vector<int32_t> &tokens)
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

    std::vector<float> q_row(static_cast<size_t>(d));
    for (int64_t l = 0; l < mc.num_layers; ++l) {
        KvStore &k_store = k_stores_[static_cast<size_t>(l)];
        KvStore &v_store = v_stores_[static_cast<size_t>(l)];
        const LayerOps &ops = layers_[static_cast<size_t>(l)];

        // --- Attention block (one packed q|k|v GEMM over every row,
        // then causal attention one row at a time) ---
        const Tensor qkv = [&] {
            COMET_SPAN("decoder/qkv");
            return runLinear(l, ActSite::kQkv, ops.qkv,
                             model_.rmsNormRows(x, model_.attnNormGain(l)));
        }();
        Tensor attn(rows, d);
        {
            COMET_SPAN("decoder/attention");
            Tensor q = sliceColumns(qkv, 0, d);
            Tensor k = sliceColumns(qkv, d, kv_dim);
            const Tensor v = sliceColumns(qkv, d + kv_dim, kv_dim);
            for (int64_t r = 0; r < rows; ++r) {
                const int64_t pos = position_ + r;
                ropeRow(q, r, mc.num_heads, mc.headDim(), pos);
                ropeRow(k, r, mc.num_kv_heads, mc.headDim(), pos);
                k_store.append(k.data() + r * kv_dim);
                v_store.append(v.data() + r * kv_dim);
                std::copy(q.data() + r * d, q.data() + (r + 1) * d,
                          q_row.begin());
                const std::vector<float> out = decodeAttentionQuantized(
                    attn_config_, q_row, k_store, v_store);
                std::copy(out.begin(), out.end(), attn.data() + r * d);
            }
        }
        {
            COMET_SPAN("decoder/o");
            const Tensor o = runLinear(l, ActSite::kO, ops.o, attn);
            for (int64_t i = 0; i < x.numel(); ++i)
                x[i] += o[i];
        }

        // --- MLP block (one packed [gate|]up GEMM, then down) ---
        COMET_SPAN("decoder/mlp");
        const Tensor m = model_.rmsNormRows(x, model_.mlpNormGain(l));
        const int64_t inter_dim = mc.intermediate_size;
        const Tensor up = runLinear(l, ActSite::kMlp, ops.mlp, m);
        Tensor inter(rows, inter_dim);
        for (int64_t r = 0; r < rows; ++r) {
            const float *src = up.data() + r * up.cols();
            float *dst = inter.data() + r * inter_dim;
            for (int64_t c = 0; c < inter_dim; ++c) {
                dst[c] = mc.gated_mlp ? silu(src[c]) * src[inter_dim + c]
                                      : std::max(src[c], 0.0f);
            }
        }
        const Tensor down = runLinear(l, ActSite::kDown, ops.down, inter);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += down[i];
    }
    position_ += rows;

    // Only the last row's logits are returned, so the final norm and
    // the LM head run on that row alone.
    COMET_SPAN("decoder/lm_head");
    Tensor last(1, d);
    std::copy(x.data() + (rows - 1) * d, x.data() + rows * d,
              last.data());
    const Tensor normed =
        model_.rmsNormRows(last, model_.finalNormGain());
    // The LM head stays FP16 in every configuration (engine
    // convention): a float GEMV over the tied embedding rows in the
    // fixed simd lane order. Each row's logit does not depend on which
    // rows share its call, so the fan-out (above kMinPoolMacs) is
    // bit-identical for any pool size.
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

} // namespace comet
