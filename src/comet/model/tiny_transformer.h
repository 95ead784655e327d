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
 * Quantization plugs in two ways:
 *  - offline weight transforms (transformedWeights), for weight-only
 *    methods and SmoothQuant/QoQ weight processing;
 *  - a runtime QuantSimulator that intercepts linear-layer inputs and
 *    the KV tensors, for activation and KV-cache fake quantization.
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
 * [rows, heads * head_dim] tensor at absolute position @p pos. The
 * full forward pass and the incremental decoders share it, so their
 * rotated Q/K rows are bit-identical. @pre head_dim is even.
 */
void ropeRow(Tensor &x, int64_t row, int64_t heads, int64_t head_dim,
             int64_t pos);

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

    /** Transforms a K or V tensor [tokens, kv_channels] before it is
     * consumed by attention (i.e. what the KV cache would hold). */
    virtual Tensor
    transformKv(int64_t, bool, const Tensor &kv)
    {
        return kv;
    }
};

/**
 * The tiny transformer. Instances are immutable after construction;
 * quantized variants are new instances produced by
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
     * Full forward pass over a token sequence (causal attention);
     * returns logits [tokens, vocab].
     */
    Tensor forward(const std::vector<int32_t> &tokens,
                   QuantSimulator *sim = nullptr) const;

    /** Sum of next-token negative log likelihoods over the sequence
     * (positions 1..T-1) and the number of predicted tokens. */
    std::pair<double, int64_t>
    sequenceNll(const std::vector<int32_t> &tokens,
                QuantSimulator *sim = nullptr) const;

    /** Samples a sequence from the model autoregressively (temperature
     * 1), starting from a random BOS token. */
    std::vector<int32_t> sampleSequence(int64_t length, Rng &rng) const;

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

    /** Norm gains, for incremental decoders. @{ */
    const std::vector<float> &attnNormGain(int64_t layer) const;
    const std::vector<float> &mlpNormGain(int64_t layer) const;
    const std::vector<float> &
    finalNormGain() const
    {
        return final_norm_gain_;
    }
    /** @} */

    /** RMS-normalizes each row of x with the given gains (public for
     * incremental decoders that must match forward() exactly). */
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
