#include "comet/model/perplexity.h"

#include <algorithm>
#include <cmath>

#include "comet/model/quantized_decoder.h"
#include "comet/quant/qoq.h"
#include "comet/quant/rotation.h"
#include "comet/quant/smooth_quant.h"
#include "comet/quant/quantizer.h"
#include "comet/quant/weight_quant.h"

namespace comet {

namespace {

/** FMPQ block size for the tiny model. The paper uses k = 128 on
 * 4096+-channel models; scaling the ratio down to the tiny model's
 * 64-256-channel layers gives 16-channel blocks, preserving the
 * blocks-per-layer granularity the algorithm needs to isolate
 * outliers. */
constexpr int64_t kTinyBlockSize = 16;

/** Weight-quantizer group size for the tiny model. */
constexpr int64_t kTinyGroupSize = 16;

/** The activation site feeding each weight matrix. */
ActSite
actSiteOf(WeightKind kind)
{
    switch (kind) {
      case WeightKind::kQ:
      case WeightKind::kK:
      case WeightKind::kV:
        return ActSite::kQkv;
      case WeightKind::kO:
        return ActSite::kO;
      case WeightKind::kGate:
      case WeightKind::kUp:
        return ActSite::kMlp;
      case WeightKind::kDown:
        return ActSite::kDown;
    }
    COMET_CHECK_MSG(false, "bad weight kind");
    return ActSite::kQkv;
}

const std::vector<ActSite> kAllActSites = {
    ActSite::kQkv, ActSite::kO, ActSite::kMlp, ActSite::kDown};

} // namespace

const char *
quantSchemeName(QuantScheme scheme)
{
    switch (scheme) {
      case QuantScheme::kFp16: return "Full Precision";
      case QuantScheme::kSmoothQuantW8A8: return "SmoothQuant";
      case QuantScheme::kGptqW4A16: return "GPTQ";
      case QuantScheme::kAwqW4A16: return "AWQ";
      case QuantScheme::kOmniquantW4A16: return "Omniquant";
      case QuantScheme::kFmpqW4Ax: return "FMPQ";
      case QuantScheme::kOmniquantW4A4: return "Omniquant";
      case QuantScheme::kQoqW4A8Kv4: return "QoQ";
      case QuantScheme::kFmpqW4AxKv4: return "FMPQ";
      case QuantScheme::kQuarotW4A4: return "QuaRot-lite";
    }
    return "?";
}

const char *
quantSchemePrecision(QuantScheme scheme)
{
    switch (scheme) {
      case QuantScheme::kFp16: return "FP16";
      case QuantScheme::kSmoothQuantW8A8: return "W8A8";
      case QuantScheme::kGptqW4A16: return "W4A16";
      case QuantScheme::kAwqW4A16: return "W4A16";
      case QuantScheme::kOmniquantW4A16: return "W4A16";
      case QuantScheme::kFmpqW4Ax: return "W4Ax";
      case QuantScheme::kOmniquantW4A4: return "W4A4";
      case QuantScheme::kQoqW4A8Kv4: return "W4A8 KV4";
      case QuantScheme::kFmpqW4AxKv4: return "W4AxKV4";
      case QuantScheme::kQuarotW4A4: return "W4A4 (rot)";
    }
    return "?";
}

std::vector<QuantScheme>
table1Schemes()
{
    return {QuantScheme::kFp16,          QuantScheme::kSmoothQuantW8A8,
            QuantScheme::kGptqW4A16,     QuantScheme::kAwqW4A16,
            QuantScheme::kOmniquantW4A16, QuantScheme::kFmpqW4Ax,
            QuantScheme::kOmniquantW4A4,  QuantScheme::kQoqW4A8Kv4,
            QuantScheme::kFmpqW4AxKv4};
}

Dataset
sampleDataset(const TinyTransformer &teacher, int count, int64_t length,
              Rng &rng)
{
    COMET_CHECK(length >= 2);
    const QuantizedDecoder decoder(teacher);
    Dataset dataset;
    dataset.sequences.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        // A random BOS token, then temperature-1 samples.
        std::vector<int32_t> sequence{static_cast<int32_t>(rng.uniformInt(
            static_cast<uint64_t>(teacher.config().vocab_size)))};
        QuantizedDecoder(decoder).generate(sequence, length, rng);
        dataset.sequences.push_back(std::move(sequence));
    }
    return dataset;
}

CalibrationData
CalibrationData::collect(const TinyTransformer &model,
                         const Dataset &calibration,
                         int64_t max_rows_per_site)
{
    /** Records every intercepted activation, capped per site. */
    class Collector : public QuantSimulator
    {
      public:
        explicit Collector(int64_t cap) : cap_(cap) {}

        Tensor
        transformActivation(const ActivationSite &site,
                            const Tensor &x) override
        {
            auto &rows = rows_[{site.layer,
                                static_cast<int>(site.site)}];
            for (int64_t t = 0;
                 t < x.rows() &&
                 static_cast<int64_t>(rows.size()) < cap_;
                 ++t) {
                std::vector<float> row(
                    static_cast<size_t>(x.cols()));
                for (int64_t c = 0; c < x.cols(); ++c)
                    row[static_cast<size_t>(c)] = x.at(t, c);
                rows.push_back(std::move(row));
            }
            return x;
        }

        std::map<std::pair<int64_t, int>,
                 std::vector<std::vector<float>>>
            rows_;

      private:
        int64_t cap_;
    };

    Collector collector(max_rows_per_site);
    const QuantizedDecoder decoder(model);
    for (const auto &sequence : calibration.sequences)
        QuantizedDecoder(decoder).prefill(sequence, &collector);

    CalibrationData data;
    for (auto &[key, rows] : collector.rows_) {
        COMET_CHECK(!rows.empty());
        Tensor t(static_cast<int64_t>(rows.size()),
                 static_cast<int64_t>(rows.front().size()));
        for (int64_t r = 0; r < t.rows(); ++r) {
            for (int64_t c = 0; c < t.cols(); ++c) {
                t.at(r, c) =
                    rows[static_cast<size_t>(r)]
                        [static_cast<size_t>(c)];
            }
        }
        data.data_.emplace(key, std::move(t));
    }
    return data;
}

const Tensor &
CalibrationData::activations(int64_t layer, ActSite site) const
{
    const auto it = data_.find({layer, static_cast<int>(site)});
    COMET_CHECK_MSG(it != data_.end(),
                    "no calibration data for this site");
    return it->second;
}

Tensor
HookQuantSimulator::transformActivation(const ActivationSite &site,
                                        const Tensor &x)
{
    return act_hook_ ? act_hook_(site, x) : x;
}

Tensor
HookQuantSimulator::transformKv(int64_t, bool, const Tensor &kv)
{
    return kv_quantizer_ ? kv_quantizer_->fakeQuantize(kv) : kv;
}

namespace {

/** Weight-only transform wrappers. */
QuantizedModel
buildWeightOnly(const TinyTransformer &teacher, QuantScheme scheme,
                const CalibrationData &calibration)
{
    WeightQuantConfig config;
    config.bits = 4;
    config.group_size = kTinyGroupSize;
    auto transform = [&](const LinearSite &site, const Tensor &w) {
        const Tensor &acts =
            calibration.activations(site.layer, actSiteOf(site.kind));
        switch (scheme) {
          case QuantScheme::kGptqW4A16:
            return gptqQuantizeWeight(w, acts, config);
          case QuantScheme::kAwqW4A16:
            return awqQuantizeWeight(w, acts, config);
          default:
            return omniquantQuantizeWeightLet(w, acts, config);
        }
    };
    return {teacher.transformedWeights(transform), nullptr};
}

/** SmoothQuant W8A8: shared per-site smoothing factors migrate outlier
 * magnitude into the weights; both sides quantize to INT8. */
QuantizedModel
buildSmoothQuant(const TinyTransformer &teacher,
                 const CalibrationData &calibration)
{
    const auto &config = teacher.config();
    constexpr float kAlpha = 0.5f;

    // factors[layer][site][channel]
    std::map<std::pair<int64_t, int>, std::vector<float>> factors;
    for (int64_t l = 0; l < config.num_layers; ++l) {
        for (ActSite site : kAllActSites) {
            // Every matrix fed by the site shares its factors.
            std::vector<const Tensor *> weights;
            for (WeightKind kind :
                 {WeightKind::kQ, WeightKind::kK, WeightKind::kV,
                  WeightKind::kO, WeightKind::kGate, WeightKind::kUp,
                  WeightKind::kDown}) {
                if (actSiteOf(kind) != site)
                    continue;
                if (kind == WeightKind::kGate &&
                    !teacher.config().gated_mlp)
                    continue; // plain-MLP models have no gate
                weights.push_back(&teacher.weight({l, kind}));
            }
            factors[{l, static_cast<int>(site)}] = smoothQuantFactors(
                calibration.activations(l, site), weights, kAlpha);
        }
    }

    auto weight_transform = [&](const LinearSite &site,
                                const Tensor &w) {
        const auto &s =
            factors.at({site.layer,
                        static_cast<int>(actSiteOf(site.kind))});
        Tensor scaled(w.rows(), w.cols());
        for (int64_t n = 0; n < w.rows(); ++n) {
            for (int64_t c = 0; c < w.cols(); ++c) {
                scaled.at(n, c) =
                    w.at(n, c) * s[static_cast<size_t>(c)];
            }
        }
        return fakeQuantPerRow(scaled, 8);
    };

    auto sim = std::make_shared<HookQuantSimulator>();
    // The hook captures the factor table by value so the simulator
    // outlives this builder.
    sim->setActHook([factors](const ActivationSite &site,
                              const Tensor &x) {
        const auto &s = factors.at(
            {site.layer, static_cast<int>(site.site)});
        Tensor smoothed(x.rows(), x.cols());
        for (int64_t t = 0; t < x.rows(); ++t) {
            for (int64_t c = 0; c < x.cols(); ++c) {
                smoothed.at(t, c) =
                    x.at(t, c) / s[static_cast<size_t>(c)];
            }
        }
        return fakeQuantPerRow(smoothed, 8);
    });
    return {teacher.transformedWeights(weight_transform),
            std::move(sim)};
}

/** FMPQ schemes: OmniQuant-style W4 weights + per-site FMPQ
 * activations (+ optional KV4). */
QuantizedModel
buildFmpq(const TinyTransformer &teacher,
          const CalibrationData &calibration, bool quantize_kv,
          FmpqModelStats *stats)
{
    const auto &config = teacher.config();
    WeightQuantConfig w_config;
    w_config.bits = 4;
    w_config.group_size = kTinyGroupSize;

    FmpqConfig fmpq_config;
    fmpq_config.block_size = kTinyBlockSize;

    auto quantizers = std::make_shared<
        std::map<std::pair<int64_t, int>, FmpqActivationQuantizer>>();
    double int4_fraction_sum = 0.0;
    int64_t sites = 0;
    for (int64_t l = 0; l < config.num_layers; ++l) {
        for (ActSite site : kAllActSites) {
            auto quantizer = FmpqActivationQuantizer::calibrate(
                calibration.activations(l, site), fmpq_config);
            int4_fraction_sum += quantizer.int4BlockFraction();
            ++sites;
            quantizers->emplace(
                std::make_pair(l, static_cast<int>(site)),
                std::move(quantizer));
        }
    }
    if (stats != nullptr) {
        stats->int4_block_fraction =
            int4_fraction_sum / static_cast<double>(sites);
        stats->w4a4_compute_fraction = stats->int4_block_fraction;
    }

    auto sim = std::make_shared<HookQuantSimulator>();
    sim->setActHook([quantizers](const ActivationSite &site,
                                 const Tensor &x) {
        return quantizers
            ->at({site.layer, static_cast<int>(site.site)})
            .fakeQuantize(x);
    });
    if (quantize_kv)
        sim->setKvQuantizer(KvQuantConfig{4, 64, true});

    auto weight_transform = [&](const LinearSite &site,
                                const Tensor &w) {
        return omniquantQuantizeWeightLet(
            w, calibration.activations(site.layer,
                                       actSiteOf(site.kind)),
            w_config);
    };
    return {teacher.transformedWeights(weight_transform),
            std::move(sim)};
}

} // namespace

QuantizedModel
buildQuantizedModel(const TinyTransformer &teacher, QuantScheme scheme,
                    const CalibrationData &calibration,
                    FmpqModelStats *fmpq_stats)
{
    switch (scheme) {
      case QuantScheme::kFp16:
        return {teacher, nullptr};

      case QuantScheme::kSmoothQuantW8A8:
        return buildSmoothQuant(teacher, calibration);

      case QuantScheme::kGptqW4A16:
      case QuantScheme::kAwqW4A16:
      case QuantScheme::kOmniquantW4A16:
        return buildWeightOnly(teacher, scheme, calibration);

      case QuantScheme::kFmpqW4Ax:
        return buildFmpq(teacher, calibration, false, fmpq_stats);

      case QuantScheme::kFmpqW4AxKv4:
        return buildFmpq(teacher, calibration, true, fmpq_stats);

      case QuantScheme::kOmniquantW4A4: {
        WeightQuantConfig w_config;
        w_config.bits = 4;
        w_config.group_size = kTinyGroupSize;
        auto model = teacher.transformedWeights(
            [&](const LinearSite &, const Tensor &w) {
                return omniquantQuantizeWeight(w, w_config);
            });
        auto sim = std::make_shared<HookQuantSimulator>();
        sim->setActHook([](const ActivationSite &, const Tensor &x) {
            return fakeQuantPerRow(x, 4); // no outlier handling
        });
        return {std::move(model), std::move(sim)};
      }

      case QuantScheme::kQuarotW4A4: {
        RotatedQuantConfig rot_config;
        rot_config.weight_group_size = kTinyGroupSize;
        auto model = teacher.transformedWeights(
            [&](const LinearSite &, const Tensor &w) {
                return rotatedQuantizeWeight(w, rot_config);
            });
        auto sim = std::make_shared<HookQuantSimulator>();
        sim->setActHook([rot_config](const ActivationSite &,
                                     const Tensor &x) {
            return rotatedFakeQuantActivations(x, rot_config);
        });
        return {std::move(model), std::move(sim)};
      }

      case QuantScheme::kQoqW4A8Kv4: {
        QoqConfig qoq_config;
        qoq_config.group_size = kTinyGroupSize;
        auto model = teacher.transformedWeights(
            [&](const LinearSite &site, const Tensor &w) {
                return QoqLayer::calibrate(
                           w,
                           calibration.activations(
                               site.layer, actSiteOf(site.kind)),
                           qoq_config)
                    .quantizedWeight();
            });
        auto sim = std::make_shared<HookQuantSimulator>();
        sim->setActHook([](const ActivationSite &, const Tensor &x) {
            return fakeQuantPerRow(x, 8);
        });
        sim->setKvQuantizer(KvQuantConfig{4, 64, true});
        return {std::move(model), std::move(sim)};
      }
    }
    COMET_CHECK_MSG(false, "unknown quantization scheme");
    return {teacher, nullptr};
}

double
evaluatePerplexity(const TinyTransformer &model, QuantSimulator *sim,
                   const Dataset &dataset)
{
    // Each sequence is one prefill with the simulator, so its hooks
    // see the whole sequence; every row's logits score the next token.
    const QuantizedDecoder decoder(model);
    const int64_t vocab = model.config().vocab_size;
    double nll = 0.0;
    int64_t tokens = 0;
    for (const auto &sequence : dataset.sequences) {
        COMET_CHECK(sequence.size() >= 2);
        const Tensor logits =
            QuantizedDecoder(decoder).prefillLogits(sequence, sim);
        double sequence_nll = 0.0;
        for (size_t t = 0; t + 1 < sequence.size(); ++t) {
            const std::vector<double> probs = softmaxDouble(
                logits.data() + static_cast<int64_t>(t) * vocab, vocab);
            sequence_nll -= std::log(std::max(
                probs[static_cast<size_t>(sequence[t + 1])], 1e-12));
        }
        nll += sequence_nll;
        tokens += static_cast<int64_t>(sequence.size()) - 1;
    }
    COMET_CHECK(tokens > 0);
    return std::exp(nll / static_cast<double>(tokens));
}

} // namespace comet
