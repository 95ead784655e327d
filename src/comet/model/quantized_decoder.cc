#include "comet/model/quantized_decoder.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "comet/runtime/thread_pool.h"

namespace comet {

namespace {

float
silu(float x)
{
    return static_cast<float>(x / (1.0 + std::exp(-x)));
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
    for (int64_t l = 0; l < mc.num_layers; ++l) {
        LayerOps ops;
        const auto &qkv = site(l, ActSite::kQkv);
        for (WeightKind kind :
             {WeightKind::kQ, WeightKind::kK, WeightKind::kV}) {
            ops.attn.emplace_back(
                qkv.quantizeWeight(model_.weight({l, kind})),
                qkv.blockPrecisions(), gemm_config);
        }
        const auto &o_site = site(l, ActSite::kO);
        ops.o.emplace_back(
            o_site.quantizeWeight(model_.weight({l, WeightKind::kO})),
            o_site.blockPrecisions(), gemm_config);
        const auto &mlp_site = site(l, ActSite::kMlp);
        if (mc.gated_mlp) {
            ops.mlp.emplace_back(
                mlp_site.quantizeWeight(
                    model_.weight({l, WeightKind::kGate})),
                mlp_site.blockPrecisions(), gemm_config);
        }
        ops.mlp.emplace_back(
            mlp_site.quantizeWeight(
                model_.weight({l, WeightKind::kUp})),
            mlp_site.blockPrecisions(), gemm_config);
        const auto &down_site = site(l, ActSite::kDown);
        ops.down.emplace_back(
            down_site.quantizeWeight(
                model_.weight({l, WeightKind::kDown})),
            down_site.blockPrecisions(), gemm_config);
        layers_.push_back(std::move(ops));
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

        // --- Attention block (packed W4Ax projections over every
        // row, then causal attention one row at a time) ---
        const Tensor h =
            model_.rmsNormRows(x, model_.attnNormGain(l));
        Tensor q = runLinear(l, ActSite::kQkv, ops.attn[0], h);
        Tensor k = runLinear(l, ActSite::kQkv, ops.attn[1], h);
        const Tensor v = runLinear(l, ActSite::kQkv, ops.attn[2], h);
        Tensor attn(rows, d);
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
        const Tensor o = runLinear(l, ActSite::kO, ops.o[0], attn);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += o[i];

        // --- MLP block ---
        const Tensor m = model_.rmsNormRows(x, model_.mlpNormGain(l));
        Tensor inter(rows, mc.intermediate_size);
        if (mc.gated_mlp) {
            const Tensor gate =
                runLinear(l, ActSite::kMlp, ops.mlp[0], m);
            const Tensor up =
                runLinear(l, ActSite::kMlp, ops.mlp[1], m);
            for (int64_t i = 0; i < inter.numel(); ++i)
                inter[i] = silu(gate[i]) * up[i];
        } else {
            const Tensor up =
                runLinear(l, ActSite::kMlp, ops.mlp[0], m);
            for (int64_t i = 0; i < inter.numel(); ++i)
                inter[i] = std::max(up[i], 0.0f);
        }
        const Tensor down =
            runLinear(l, ActSite::kDown, ops.down[0], inter);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] += down[i];
    }
    position_ += rows;

    // Only the last row's logits are returned, so the final norm and
    // the LM head run on that row alone.
    Tensor last(1, d);
    std::copy(x.data() + (rows - 1) * d, x.data() + rows * d,
              last.data());
    const Tensor normed =
        model_.rmsNormRows(last, model_.finalNormGain());
    // The LM head stays FP16 in every configuration (engine
    // convention). Vocabulary rows are independent dot products; the
    // fan-out writes disjoint entries, bit-identical for any pool
    // size.
    std::vector<float> logits(static_cast<size_t>(mc.vocab_size));
    parallelFor(0, mc.vocab_size, 64, [&](int64_t v_begin,
                                          int64_t v_end) {
        for (int64_t v = v_begin; v < v_end; ++v) {
            const float *row = model_.embedding().data() + v * d;
            double sum = 0.0;
            for (int64_t c = 0; c < d; ++c)
                sum += static_cast<double>(normed[c]) * row[c];
            logits[static_cast<size_t>(v)] = static_cast<float>(sum);
        }
    });
    return logits;
}

} // namespace comet
