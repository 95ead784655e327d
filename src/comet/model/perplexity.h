/**
 * @file
 * The Table 1 accuracy harness: quantization schemes, calibration,
 * quantized-model construction and perplexity evaluation.
 *
 * For each scheme of Table 1 this builds (a) a weight-transformed copy
 * of the teacher model and (b) a runtime QuantSimulator that fake-
 * quantizes activations and the KV cache, then scores the pair by
 * perplexity on sequences sampled from the teacher. Absolute values
 * differ from WikiText2, but the ordering and relative degradation —
 * what the paper's Table 1 demonstrates — carry over.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comet/model/tiny_transformer.h"
#include "comet/quant/fmpq.h"
#include "comet/quant/kv_quant.h"

namespace comet {

/** The quantization configurations evaluated in Table 1. */
enum class QuantScheme {
    kFp16 = 0,
    kSmoothQuantW8A8,
    kGptqW4A16,
    kAwqW4A16,
    kOmniquantW4A16,
    kFmpqW4Ax,       ///< FMPQ activations, FP16 KV cache
    kOmniquantW4A4,  ///< aggressive full W4A4 (the cautionary row)
    kQoqW4A8Kv4,     ///< QServe's algorithm
    kFmpqW4AxKv4,    ///< the full COMET configuration
    /** Extra (not a Table 1 row): Hadamard-rotation W4A4 in the
     * QuaRot/SpinQuant style — the alternative outlier treatment the
     * paper's Section 2.2 discusses ([4], [32]). */
    kQuarotW4A4,
};

/** Display name matching the Table 1 row labels. */
const char *quantSchemeName(QuantScheme scheme);

/** Precision column of Table 1 for a scheme (e.g. "W4A16"). */
const char *quantSchemePrecision(QuantScheme scheme);

/** All schemes in Table 1 row order. */
std::vector<QuantScheme> table1Schemes();

/** A set of evaluation/calibration token sequences. */
struct Dataset {
    std::vector<std::vector<int32_t>> sequences;

    int64_t
    totalTokens() const
    {
        int64_t n = 0;
        for (const auto &s : sequences)
            n += static_cast<int64_t>(s.size());
        return n;
    }
};

/** Samples @p count sequences of @p length tokens from the teacher:
 * a uniform BOS token, then QuantizedDecoder::generate on its float
 * path. */
Dataset sampleDataset(const TinyTransformer &teacher, int count,
                      int64_t length, Rng &rng);

/**
 * Calibration activations collected from the teacher: one matrix
 * [tokens, channels] per (layer, activation site).
 */
class CalibrationData
{
  public:
    /** Prefills each calibration sequence through the teacher's
     * float decoder, recording every intercepted activation (rows
     * capped per site). */
    static CalibrationData collect(const TinyTransformer &model,
                                   const Dataset &calibration,
                                   int64_t max_rows_per_site = 256);

    /** The recorded activations feeding (layer, site). */
    const Tensor &activations(int64_t layer, ActSite site) const;

  private:
    std::map<std::pair<int64_t, int>, Tensor> data_;
};

/**
 * A flexible QuantSimulator driven by std::function hooks; all the
 * Table 1 runtime behaviours are instances of this.
 */
class HookQuantSimulator : public QuantSimulator
{
  public:
    using ActHook =
        std::function<Tensor(const ActivationSite &, const Tensor &)>;

    /** Installs the activation hook (identity when unset). */
    void setActHook(ActHook hook) { act_hook_ = std::move(hook); }

    /** Enables KV-cache fake quantization with the given config. */
    void
    setKvQuantizer(const KvQuantConfig &config)
    {
        kv_quantizer_ = std::make_unique<KvCacheQuantizer>(config);
    }

    Tensor transformActivation(const ActivationSite &site,
                               const Tensor &x) override;
    Tensor transformKv(int64_t layer, bool is_key,
                       const Tensor &kv) override;

  private:
    ActHook act_hook_;
    std::unique_ptr<KvCacheQuantizer> kv_quantizer_;
};

/** A quantized model: transformed weights plus runtime simulator. */
struct QuantizedModel {
    TinyTransformer model;
    std::shared_ptr<QuantSimulator> simulator; ///< null = none

    QuantSimulator *
    sim() const
    {
        return simulator.get();
    }
};

/** FMPQ deployment statistics aggregated over all activation sites
 * (the Section 6.2 "% of activations in 4-bit" claims). */
struct FmpqModelStats {
    double int4_block_fraction = 1.0;  ///< mean over sites
    double w4a4_compute_fraction = 1.0;
};

/**
 * Builds the quantized variant of the teacher for one scheme.
 *
 * @param teacher       the full-precision model
 * @param scheme        which Table 1 row
 * @param calibration   calibration activations (collected once)
 * @param fmpq_stats    optional out-param, filled for FMPQ schemes
 */
QuantizedModel buildQuantizedModel(const TinyTransformer &teacher,
                                   QuantScheme scheme,
                                   const CalibrationData &calibration,
                                   FmpqModelStats *fmpq_stats = nullptr);

/** Perplexity of a model (+ optional simulator) over a dataset: each
 * sequence is one float-decoder prefill with the simulator, scored
 * from every row's logits. */
double evaluatePerplexity(const TinyTransformer &model,
                          QuantSimulator *sim, const Dataset &dataset);

} // namespace comet
