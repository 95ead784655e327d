/**
 * @file
 * A small, real decoder-only transformer used for the accuracy
 * experiments (Tables 1 and 2).
 *
 * The paper evaluates quantization accuracy on LLaMA-family
 * checkpoints, which are not available in this environment. The
 * substitute is a from-scratch float transformer (RMSNorm, RoPE, GQA
 * attention, SwiGLU MLP, tied embeddings) whose RMSNorm gains carry
 * *planted outlier channels*, reproducing the activation statistics
 * that make LLM quantization hard (Section 3.1). A randomly
 * initialized "teacher" instance defines the data distribution
 * (sequences are sampled from it), and quantized variants are scored
 * by perplexity/accuracy on that data — preserving the paper's
 * *relative* quantization-quality ordering.
 *
 * The class holds the model, not a forward: the config, the tied
 * embedding, each layer's linear weights and norm gains, and the
 * helpers every forward shares (rmsNorm, ropeRow). The forward is
 * QuantizedDecoder's. Its float path runs the whole accuracy harness:
 * teacher sampling, calibration, perplexity and zero-shot scoring. A
 * whole-sequence restatement stays in tests/tiny_transformer_forward.h
 * as the oracle the decoder matches bit for bit.
 *
 * Quantization plugs into that forward in two ways:
 *  - offline weight transforms (transformedWeights), for weight-only
 *    methods and SmoothQuant/QoQ weight processing;
 *  - a runtime QuantSimulator passed to QuantizedDecoder::prefill,
 *    which intercepts the linear-layer inputs and the K/V rows, for
 *    activation and KV-cache fake quantization.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comet/common/rng.h"
#include "comet/tensor/tensor.h"

namespace comet {

/** Architecture and outlier-planting parameters. */
struct TinyTransformerConfig {
    int64_t vocab_size = 512;
    int64_t hidden_size = 256;
    int64_t num_heads = 4;
    int64_t num_kv_heads = 4;
    int64_t num_layers = 4;
    int64_t intermediate_size = 512;
    /** SwiGLU (LLaMA-style) when true; plain ReLU MLP (OPT-style)
     * when false — gate weights are absent in the plain variant. */
    bool gated_mlp = true;
    /** Fraction of hidden channels planted as outliers. */
    double outlier_fraction = 0.02;
    /** Gain of the planted outlier channels. */
    double outlier_scale = 25.0;
    uint64_t seed = 7;

    int64_t
    headDim() const
    {
        return hidden_size / num_heads;
    }
};

/**
 * Rotary position embedding, in place, on row @p row of a
 * [rows, heads * head_dim] tensor at absolute position @p pos: every
 * head's pair d turns by pos * ropeInverseFrequencies(head_dim)[d],
 * through ropeAngles and ropeRotate. The test oracle calls it per row;
 * the decoder computes each position's angles once per forward and
 * rotates q and k of every layer by them, the same double operations,
 * so their rotated Q/K rows are bit-identical. @pre head_dim is even.
 */
void ropeRow(Tensor &x, int64_t row, int64_t heads, int64_t head_dim,
             int64_t pos);

/** 10000^(-2d / head_dim) in double for each pair d < head_dim / 2. */
std::vector<double> ropeInverseFrequencies(int64_t head_dim);

/** cos_sin[2d] and cos_sin[2d + 1]: the cosine and sine of
 * pos * inv_freq[d], for every pair d of @p inv_freq. */
void ropeAngles(const std::vector<double> &inv_freq, int64_t pos,
                double *cos_sin);

/** Turns pair d of each of @p heads heads of @p row (heads * head_dim
 * floats) by the angle whose cosine and sine ropeAngles() wrote at
 * cos_sin[2d]. */
void ropeRotate(float *row, int64_t heads, int64_t head_dim,
                const double *cos_sin);

/** Activation interception points (one per shared linear input). */
enum class ActSite {
    kQkv = 0, ///< input of the Q/K/V projections
    kO,       ///< input of the output projection
    kMlp,     ///< input of the gate/up projections
    kDown,    ///< input of the down projection
};

/** Number of distinct ActSite values. */
inline constexpr int kNumActSites = 4;

/** Weight matrices of one decoder layer, for offline transforms. */
enum class WeightKind {
    kQ = 0,
    kK,
    kV,
    kO,
    kGate,
    kUp,
    kDown,
};

/** Identifies one linear layer instance in the model. */
struct LinearSite {
    int64_t layer = 0;
    WeightKind kind = WeightKind::kQ;
};

/** Identifies one activation interception point. */
struct ActivationSite {
    int64_t layer = 0;
    ActSite site = ActSite::kQkv;
};

/**
 * Runtime quantization hook. The default implementation is the
 * identity (full-precision inference); fake quantizers override the
 * relevant methods.
 */
class QuantSimulator
{
  public:
    virtual ~QuantSimulator() = default;

    /** Transforms a linear-layer input [tokens, channels] before the
     * matching GEMMs. */
    virtual Tensor
    transformActivation(const ActivationSite &, const Tensor &x)
    {
        return x;
    }

    /** Transforms a forward call's post-RoPE K or V rows [rows,
     * kv_channels] before they are appended to the KV cache (i.e.
     * what the cache would hold). */
    virtual Tensor
    transformKv(int64_t, bool, const Tensor &kv)
    {
        return kv;
    }
};

/**
 * The tiny transformer's weights. Instances are immutable after
 * construction; quantized variants are new instances produced by
 * transformedWeights().
 */
class TinyTransformer
{
  public:
    /** Builds a randomly initialized model with planted outliers. */
    static TinyTransformer random(const TinyTransformerConfig &config);

    const TinyTransformerConfig &config() const { return config_; }

    /** The planted outlier channel indices (hidden dimension). */
    const std::vector<int64_t> &
    outlierChannels() const
    {
        return outlier_channels_;
    }

    /**
     * Returns a copy of the model with every linear weight replaced by
     * @p transform(site, weight). Norm gains and embeddings are
     * unchanged (weight-only PTQ leaves them in high precision).
     */
    TinyTransformer transformedWeights(
        const std::function<Tensor(const LinearSite &, const Tensor &)>
            &transform) const;

    /** Read access to one linear weight (for calibrators). */
    const Tensor &weight(const LinearSite &site) const;

    /** The (tied) embedding / LM-head matrix [vocab, hidden]. */
    const Tensor &embedding() const { return embedding_; }

    /** Norm gains, for the decoder. @{ */
    const std::vector<float> &attnNormGain(int64_t layer) const;
    const std::vector<float> &mlpNormGain(int64_t layer) const;
    const std::vector<float> &
    finalNormGain() const
    {
        return final_norm_gain_;
    }
    /** @} */

    /** RMS-normalizes each row of x with the given gains: a serial
     * double sum of squares per row, in channel order. The decoder and
     * the test oracle share it, so their normalized rows are
     * bit-identical. */
    Tensor rmsNorm(const Tensor &x,
                   const std::vector<float> &gain) const;

  private:
    struct LayerWeights {
        Tensor wq, wk, wv, wo;
        Tensor w_gate, w_up, w_down;
        std::vector<float> attn_norm_gain;
        std::vector<float> mlp_norm_gain;
    };

    TinyTransformer() = default;

    TinyTransformerConfig config_;
    Tensor embedding_; ///< [vocab, hidden]; also the (tied) LM head
    std::vector<LayerWeights> layers_;
    std::vector<float> final_norm_gain_;
    std::vector<int64_t> outlier_channels_;
};

} // namespace comet
