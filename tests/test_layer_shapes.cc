/**
 * @file
 * Unit tests for GEMM shape enumeration.
 */
#include <gtest/gtest.h>

#include "comet/model/layer_shapes.h"

namespace comet {
namespace {

TEST(LayerShapes, Llama3_8bDecodeShapes)
{
    const auto gemms = decoderLayerGemms(LlmConfig::llama3_8b(), 4);
    ASSERT_EQ(gemms.size(), 4u);
    // QKV: (32 + 2*8) * 128 = 6144 outputs.
    EXPECT_EQ(gemms[0].name, "qkv_proj");
    EXPECT_EQ(gemms[0].shape.m, 4);
    EXPECT_EQ(gemms[0].shape.n, 6144);
    EXPECT_EQ(gemms[0].shape.k, 4096);
    EXPECT_EQ(gemms[1].name, "o_proj");
    EXPECT_EQ(gemms[1].shape.n, 4096);
    EXPECT_EQ(gemms[2].name, "gate_up_proj");
    EXPECT_EQ(gemms[2].shape.n, 2 * 14336);
    EXPECT_EQ(gemms[3].name, "down_proj");
    EXPECT_EQ(gemms[3].shape.k, 14336);
}

TEST(LayerShapes, MhaModelQkvIsThreeHidden)
{
    const auto gemms = decoderLayerGemms(LlmConfig::llama1_13b(), 1);
    EXPECT_EQ(gemms[0].shape.n, 3 * 5120);
}

TEST(LayerShapes, OptHasNoGateProjection)
{
    const auto gemms = decoderLayerGemms(LlmConfig::opt_13b(), 1);
    ASSERT_EQ(gemms.size(), 4u);
    EXPECT_EQ(gemms[2].name, "up_proj");
    EXPECT_EQ(gemms[2].shape.n, 20480);
}

TEST(LayerShapes, MTokensPropagates)
{
    for (int64_t m : {1, 16, 1024}) {
        for (const auto &gemm :
             decoderLayerGemms(LlmConfig::mistral_7b(), m))
            EXPECT_EQ(gemm.shape.m, m);
    }
}

TEST(LayerShapes, TensorParallelShardsMegatronStyle)
{
    const LlmConfig model = LlmConfig::llama3_70b();
    const auto full = decoderLayerGemms(model, 8);
    const auto shard = decoderLayerGemms(model, 8, 4);
    ASSERT_EQ(shard.size(), full.size());
    // Column-parallel first projections split N; row-parallel second
    // projections split K.
    for (size_t i = 0; i < full.size(); ++i) {
        const bool column = full[i].name == "qkv_proj" ||
                            full[i].name == "gate_up_proj";
        EXPECT_EQ(shard[i].name, full[i].name);
        EXPECT_EQ(shard[i].shape.m, 8);
        EXPECT_EQ(shard[i].shape.n,
                  column ? full[i].shape.n / 4 : full[i].shape.n);
        EXPECT_EQ(shard[i].shape.k,
                  column ? full[i].shape.k : full[i].shape.k / 4);
    }
    EXPECT_EQ(lmHeadGemm(model, 8).n, model.vocab_size);
    const GemmShape head = lmHeadGemm(model, 8, 4);
    EXPECT_EQ(head.m, 8);
    EXPECT_EQ(head.n, model.vocab_size / 4);
    EXPECT_EQ(head.k, model.hidden_size);
}

TEST(LayerShapes, Figure9ShapeSet)
{
    const auto shapes = figure9Shapes(8);
    EXPECT_EQ(shapes.size(), 8u);
    for (const auto &shape : shapes) {
        EXPECT_EQ(shape.shape.m, 8);
        EXPECT_GT(shape.shape.n, 0);
        EXPECT_GT(shape.shape.k, 0);
    }
    // The paper's named shapes are present.
    bool found = false;
    for (const auto &shape : shapes) {
        if (shape.name == "13.5Kx5K") {
            found = true;
            EXPECT_EQ(shape.shape.n, 13824);
            EXPECT_EQ(shape.shape.k, 5120);
        }
    }
    EXPECT_TRUE(found);
}

TEST(LayerShapesDeathTest, RejectsNonPositiveTokens)
{
    EXPECT_DEATH(decoderLayerGemms(LlmConfig::llama3_8b(), 0),
                 "CHECK failed");
}

} // namespace
} // namespace comet
