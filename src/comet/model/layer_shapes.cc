#include "comet/model/layer_shapes.h"

#include <algorithm>

namespace comet {

namespace {

/** One GPU's share of a GEMM extent split across @p tensor_parallel
 * GPUs. */
int64_t
shardExtent(int64_t extent, int tensor_parallel)
{
    COMET_CHECK(tensor_parallel >= 1);
    return std::max<int64_t>(
        extent / static_cast<int64_t>(tensor_parallel), 1);
}

} // namespace

std::vector<LayerGemm>
decoderLayerGemms(const LlmConfig &config, int64_t m_tokens,
                  int tensor_parallel)
{
    COMET_CHECK(m_tokens > 0);
    const int64_t head_dim = config.headDim();
    const int tp = tensor_parallel;
    std::vector<LayerGemm> gemms;
    gemms.reserve(4);
    // Fused QKV projection: hidden -> (q + k + v) heads.
    const int64_t qkv_out =
        (config.num_heads + 2 * config.num_kv_heads) * head_dim;
    gemms.push_back({"qkv_proj",
                     {m_tokens, shardExtent(qkv_out, tp),
                      config.hidden_size}});
    gemms.push_back({"o_proj",
                     {m_tokens, config.hidden_size,
                      shardExtent(config.hidden_size, tp)}});
    if (config.gated_mlp) {
        // Fused gate+up projection.
        gemms.push_back(
            {"gate_up_proj",
             {m_tokens, shardExtent(2 * config.intermediate_size, tp),
              config.hidden_size}});
    } else {
        gemms.push_back(
            {"up_proj",
             {m_tokens, shardExtent(config.intermediate_size, tp),
              config.hidden_size}});
    }
    gemms.push_back({"down_proj",
                     {m_tokens, config.hidden_size,
                      shardExtent(config.intermediate_size, tp)}});
    return gemms;
}

GemmShape
lmHeadGemm(const LlmConfig &config, int64_t m_tokens,
           int tensor_parallel)
{
    return {m_tokens, shardExtent(config.vocab_size, tensor_parallel),
            config.hidden_size};
}

std::vector<LayerGemm>
figure9Shapes(int64_t m_tokens)
{
    // Representative LLaMA projection shapes (N x K), labeled the way
    // the paper's Figure 9 x-axis abbreviates them.
    return {
        {"4Kx4K", {m_tokens, 4096, 4096}},
        {"5Kx5K", {m_tokens, 5120, 5120}},
        {"13.5Kx5K", {m_tokens, 13824, 5120}},
        {"5Kx13.5K", {m_tokens, 5120, 13824}},
        {"8Kx8K", {m_tokens, 8192, 8192}},
        {"28Kx8K", {m_tokens, 28672, 8192}},
        {"8Kx28K", {m_tokens, 8192, 28672}},
        {"12Kx4K", {m_tokens, 12288, 4096}},
    };
}

} // namespace comet
