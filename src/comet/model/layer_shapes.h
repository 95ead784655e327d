/**
 * @file
 * GEMM shape enumeration for transformer layers.
 *
 * The kernel benches and the serving engine both need the exact linear
 * layer shapes of each model: QKV / output projections and the MLP
 * matrices, for prefill (M = batch * seq) and decode (M = batch).
 */
#pragma once

#include <string>
#include <vector>

#include "comet/gpusim/cost_model.h"
#include "comet/model/llm_config.h"

namespace comet {

/** One linear layer's GEMM, with a label for reporting. */
struct LayerGemm {
    std::string name;   ///< e.g. "qkv_proj"
    GemmShape shape;
};

/**
 * The per-decoder-layer GEMMs at the given batched token count
 * (M = tokens processed together: batch for decode, batch * seqlen for
 * prefill), as one GPU of a @p tensor_parallel group runs them.
 * Megatron sharding: the first projection of each block (qkv_proj,
 * gate_up_proj/up_proj) is column-parallel (N / tp), the second
 * (o_proj, down_proj) row-parallel (K / tp); each split extent is at
 * least 1.
 */
std::vector<LayerGemm> decoderLayerGemms(const LlmConfig &config,
                                         int64_t m_tokens,
                                         int tensor_parallel = 1);

/** The LM head GEMM (hidden -> vocab) at @p m_tokens tokens on one GPU
 * of a @p tensor_parallel group (column-parallel, like the first
 * projections of decoderLayerGemms). */
GemmShape lmHeadGemm(const LlmConfig &config, int64_t m_tokens,
                     int tensor_parallel = 1);

/** The weight-activation GEMM shapes used by the Figure 9 kernel
 * sweep: representative LLaMA projection shapes, labeled as in the
 * paper (e.g. "13.5Kx5K"). M is supplied by the bench per batch. */
std::vector<LayerGemm> figure9Shapes(int64_t m_tokens);

} // namespace comet
