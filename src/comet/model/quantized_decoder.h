/**
 * @file
 * The incremental decoder: W4A4KV4 inference through the real packed
 * kernels, and the float reference it is judged against.
 *
 * Everything the paper's system does at serving time, executed for
 * real on the tiny model: every linear layer runs as a packed
 * mixed-precision W4Ax GEMM (FMPQ-calibrated per activation site,
 * INT4 weights in the interleaved layout, runtime per-token
 * activation quantization), and each layer's K and V live in an
 * append-only KvStore: channel-wise asymmetric INT4, two values per
 * byte, quantized as rows are appended (only the open token group is
 * re-derived). Attention reads the packed values directly and folds
 * each token group's scales and zero points into its float sums. Only
 * the norms, the nonlinearity, RoPE, the softmax and the FP16 LM head
 * (a fixed-order SIMD float GEMV) stay in float — exactly the
 * precision boundary of the paper's framework.
 *
 * One forward serves prefill and decode: prefill() runs every GEMM at
 * M = prompt length, RoPE by angles computed once per row and shared
 * by every layer, one causal store attention call per layer over all
 * the rows (appendAttendQuantized: the appends, then every row's
 * attention at once on the pool), and the LM head on the last row
 * only. step() is a one-token prefill. Every per-row operation is
 * row-independent, and each row attends the stores as they stood after
 * its own append, so a prompt prefilled at once gives bit-identical
 * logits to feeding it token by token.
 *
 * Projections that read the same activation site run as one GEMM:
 * q|k|v at the QKV site and gate|up at the MLP site, their weights
 * stacked along the output rows. Weights quantize per output row, so
 * the stacked packed weight holds the separate ones' bytes, and the
 * fused output's column slices equal the separate GEMMs' outputs bit
 * for bit, while each site's activation is quantized once. A decode
 * step runs four GEMMs per layer; prefill() records one span per stage
 * (decoder/qkv, decoder/attention, decoder/o, decoder/mlp,
 * decoder/lm_head) for the per-layer host split.
 *
 * The float reference runs on the same forward: each site's weights
 * stacked in float and run by gemmFloat (every output column its own
 * ascending-k double sum, so the stacked slices equal the separate
 * GEMMs bit for bit), the LM head a float GEMM over the tied
 * embedding, and K and V in a doubling float cache standing for FP16,
 * or in the same KvStores for float weights with a KV4 cache. The
 * decoder/... spans come from both.
 *
 * The float path with the float cache is the accuracy harness's one
 * forward (teacher sampling, calibration, perplexity, zero-shot
 * scoring). A QuantSimulator passed to prefill() fires at the sites of
 * the fake-quant baselines: transformActivation on each linear's input
 * (the q|k|v and [gate|]up rmsNorm outputs, the attention output, the
 * MLP intermediate) and transformKv on the call's whole post-RoPE K and
 * V rows before they are appended. A sequence prefilled in one call
 * therefore sees the whole-sequence semantics of the oracle in
 * tests/tiny_transformer_forward.h, and its logits equal the oracle's
 * bit for bit (tested, every scheme's simulator). Without a simulator
 * the hooks cost one null check per site and call.
 *
 * Verified (tests) against the fake-quantization reference: the
 * packed integer path and the dequantize-then-float-GEMM path agree
 * to float rounding.
 */
#pragma once

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "comet/attention/decode_attention.h"
#include "comet/common/rng.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/model/perplexity.h"
#include "comet/model/tiny_transformer.h"
#include "comet/quant/fmpq.h"
#include "comet/quant/kv_quant.h"

namespace comet {

/** Build options for the quantized decoder. */
struct QuantizedDecoderConfig {
    QuantizedDecoderConfig() { fmpq.block_size = 16; }

    FmpqConfig fmpq;
    KvQuantConfig kv{4, 32, true};
    /** Tile extents of the packed GEMMs (must satisfy the W4AxGemm
     * constraints against fmpq.block_size). */
    int64_t tile_m = 16;
    int64_t tile_n = 16;
    int64_t tile_k = 16;
    /** Parallelism of the packed GEMMs (W4AxGemmConfig::threads):
     * 0 = every runtime-pool slot, 1 = sequential. Results are
     * bit-identical either way. */
    int gemm_threads = 0;
};

/** Softmax of @p n logits in double: exp(l - max) over the row, then
 * divided by the sum. The distribution the harness samples from and
 * scores. */
std::vector<double> softmaxDouble(const float *logits, int64_t n);

/** The temperature-1 sampler: draws u = rng.uniform(), subtracts
 * probs[0], probs[1], ... in order and returns the first token at which
 * u reaches zero or below (the last token if rounding leaves u above
 * zero). */
int32_t sampleToken(const std::vector<double> &probs, Rng &rng);

/**
 * The incremental decoder. Its linears run packed (W4Ax GEMMs, the
 * W4A4KV4 path) or in float (the FP16 reference); K and V live in
 * per-layer KvStores, or in a float cache for the FP16 reference.
 * Copyable: a copy continues the sequence independently and shares the
 * immutable linears, so a decoder built once per model is copied per
 * sequence without re-stacking or copying weights.
 */
class QuantizedDecoder
{
  public:
    /**
     * The float reference: every linear is a float GEMM over the
     * model's weights and the LM head a float GEMM over the tied
     * embedding. Without @p kv_quant, K and V live in a float cache
     * standing for FP16; with it, in KvStores (float weights, KV4).
     * Invariant (tested): with the float cache, prefill() of a
     * sequence, with or without a simulator, returns the logits of the
     * whole-sequence oracle (tests/tiny_transformer_forward.h) with
     * the same simulator bit for bit.
     */
    explicit QuantizedDecoder(const TinyTransformer &model,
                              std::optional<KvQuantConfig> kv_quant =
                                  std::nullopt);

    /**
     * Quantizes @p model: calibrates one FMPQ quantizer per
     * activation site from @p calibration and packs every weight
     * matrix into its site's layout.
     */
    QuantizedDecoder(const TinyTransformer &model,
                     const CalibrationData &calibration,
                     QuantizedDecoderConfig config = {});

    int64_t position() const { return position_; }

    /** Mean W4A4 compute fraction across all sites (Section 6.2); 0
     * for the float reference. */
    double w4a4ComputeFraction() const;

    /** Feeds one token; returns next-token logits [vocab]. */
    std::vector<float> step(int32_t token);

    /**
     * Feeds a prompt in one batched forward; returns the logits after
     * its last token. @p sim, if set, transforms each linear input and
     * the call's K/V rows (see the file comment); the hooks are null
     * checks outside the per-row loops, so the packed path without one
     * does no extra work.
     */
    std::vector<float> prefill(const std::vector<int32_t> &tokens,
                               QuantSimulator *sim = nullptr);

    /**
     * prefill() returning the logits of every row [rows, vocab], for
     * scoring a whole sequence. Float path only: the packed LM head
     * runs on the last row alone.
     */
    Tensor prefillLogits(const std::vector<int32_t> &tokens,
                         QuantSimulator *sim = nullptr);

    /**
     * Sampled generation at temperature 1: feeds @p tokens, then
     * appends sampleToken(softmaxDouble(logits)) and feeds it until
     * @p tokens holds @p length tokens. Returns the next-token logits
     * after the last one.
     */
    std::vector<float> generate(std::vector<int32_t> &tokens,
                                int64_t length, Rng &rng);

    /** Bytes the KV cache holds, every layer, K and V: measured from
     * the KvStores' buffers (packed values plus per-group
     * parameters), or 2 B per value for the float cache (the FP16 it
     * stands for). */
    int64_t kvCacheBytes() const;

  private:
    /** One activation site's projections (q|k|v, o, [gate|]up or
     * down, stacked along the output rows) in one of two forms. */
    struct Linear {
        /** The site's FMPQ quantizer and its packed W4Ax GEMM. */
        struct Packed {
            FmpqActivationQuantizer quantizer;
            W4AxGemm gemm;
        };
        /** Packed, or the stacked float weight run by gemmFloat. */
        std::variant<Packed, Tensor> form;

        Tensor run(const Tensor &h) const;
    };

    /** One layer's float K and V: rows [0, position) of
     * [capacity, kv_dim], the capacity doubling as tokens arrive. */
    struct FloatKv {
        Tensor k{1, 1};
        Tensor v{1, 1};
    };

    /** Runs every layer over @p tokens at positions [position(),
     * position() + rows) and appends their K and V; returns the final
     * hidden rows [rows, hidden], before the final norm. */
    Tensor runLayers(const std::vector<int32_t> &tokens,
                     QuantSimulator *sim);

    /** Sets up attention and the KV caches around @p linears. */
    QuantizedDecoder(const TinyTransformer &model,
                     std::optional<KvQuantConfig> kv_quant,
                     std::vector<Linear> linears);

    /** Float linears for the reference, [layer * kNumActSites + site]. */
    static std::vector<Linear> floatLinears(const TinyTransformer &model);

    /** Calibrated, packed linears, [layer * kNumActSites + site]. */
    static std::vector<Linear>
    packedLinears(const TinyTransformer &model,
                  const CalibrationData &calibration,
                  const QuantizedDecoderConfig &config);

    const Linear &linear(int64_t layer, ActSite act_site) const;

    /** Grows the float caches (doubling) to hold @p tokens rows. */
    void reserveFloatKv(int64_t tokens);

    const TinyTransformer &model_;
    /** [layer * kNumActSites + site]; shared by copies. */
    std::shared_ptr<const std::vector<Linear>> linears_;
    AttentionConfig attn_config_;
    /** RoPE's per-pair inverse frequencies (ropeInverseFrequencies). */
    std::vector<double> rope_inv_freq_;
    std::vector<KvStore> k_stores_; ///< [layer], when KV is quantized
    std::vector<KvStore> v_stores_; ///< [layer], when KV is quantized
    std::vector<FloatKv> float_kv_; ///< [layer], otherwise
    int64_t position_ = 0;
};

} // namespace comet
