/**
 * @file
 * W4A4KV4 inference through the real packed kernels.
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
 * M = prompt length, then RoPE, the store append and attention row by
 * row, and the LM head on the last row only. step() is a one-token
 * prefill. Every per-row operation is row-independent, so a prompt
 * prefilled at once gives bit-identical logits to feeding it token by
 * token.
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
 * Verified (tests) against the fake-quantization reference: the
 * packed integer path and the dequantize-then-float-GEMM path agree
 * to float rounding.
 */
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "comet/attention/decode_attention.h"
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

/**
 * An incremental decoder whose linear layers execute as packed W4Ax
 * GEMMs over a nibble-packed KV4 cache. Copyable: a copy continues the
 * sequence independently.
 */
class QuantizedDecoder
{
  public:
    /**
     * Quantizes @p model: calibrates one FMPQ quantizer per
     * activation site from @p calibration and packs every weight
     * matrix into its site's layout.
     */
    QuantizedDecoder(const TinyTransformer &model,
                     const CalibrationData &calibration,
                     QuantizedDecoderConfig config = {});

    int64_t position() const { return position_; }

    /** Mean W4A4 compute fraction across all sites (Section 6.2). */
    double w4a4ComputeFraction() const;

    /** Feeds one token; returns next-token logits [vocab]. */
    std::vector<float> step(int32_t token);

    /** Feeds a prompt in one batched forward; returns the logits
     * after its last token. */
    std::vector<float> prefill(const std::vector<int32_t> &tokens);

    /** Bytes the KV stores hold (packed values plus per-group
     * parameters, every layer, K and V), measured from their
     * buffers. */
    int64_t kvCacheBytes() const;

  private:
    struct SiteOps {
        FmpqActivationQuantizer quantizer;
    };

    struct LayerOps {
        W4AxGemm qkv;  ///< q|k|v stacked (QKV-site layout)
        W4AxGemm o;    ///< o (O-site layout)
        W4AxGemm mlp;  ///< [gate|]up stacked (MLP-site layout)
        W4AxGemm down; ///< down (Down-site layout)
    };

    /** Quantizes the activation rows at @p site and runs @p gemm. */
    Tensor runLinear(int64_t layer, ActSite site,
                     const W4AxGemm &gemm, const Tensor &h) const;

    const FmpqActivationQuantizer &site(int64_t layer,
                                        ActSite act_site) const;

    const TinyTransformer &model_;
    QuantizedDecoderConfig config_;
    std::vector<SiteOps> sites_; ///< [layer * kNumActSites + site]
    std::vector<LayerOps> layers_;
    AttentionConfig attn_config_;
    std::vector<KvStore> k_stores_; ///< [layer]
    std::vector<KvStore> v_stores_; ///< [layer]
    int64_t position_ = 0;
};

} // namespace comet
