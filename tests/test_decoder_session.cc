/**
 * @file
 * Tests for the float reference decoder under its DecoderSession
 * alias (the name perfbench uses): bit-exact agreement with the
 * whole-sequence forward oracle, KV-quantized decoding, and generation.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "comet/model/decoder_session.h"
#include "tiny_transformer_forward.h"

namespace comet {
namespace {

TinyTransformerConfig
sessionConfig(bool gated = true)
{
    TinyTransformerConfig config;
    config.vocab_size = 64;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.gated_mlp = gated;
    config.outlier_fraction = 0.05;
    config.outlier_scale = 15.0;
    config.seed = 33;
    return config;
}

/** True when @p logits equals row @p row of @p full bit for bit. */
bool
sameBitsAsRow(const std::vector<float> &logits, const Tensor &full,
              int64_t row)
{
    return static_cast<int64_t>(logits.size()) == full.cols() &&
           std::memcmp(logits.data(), full.data() + row * full.cols(),
                       logits.size() * sizeof(float)) == 0;
}

TEST(DecoderSession, MatchesFullForwardExactly)
{
    const auto model = TinyTransformer::random(sessionConfig());
    const std::vector<int32_t> tokens{3, 17, 42, 9, 28, 55, 1};
    const Tensor full = forwardReference(model, tokens);

    DecoderSession session(model);
    for (size_t t = 0; t < tokens.size(); ++t) {
        ASSERT_TRUE(sameBitsAsRow(session.step(tokens[t]), full,
                                  static_cast<int64_t>(t)))
            << "position " << t;
    }
    EXPECT_EQ(session.position(), 7);
}

TEST(DecoderSession, PlainMlpVariantAlsoMatches)
{
    const auto model =
        TinyTransformer::random(sessionConfig(false));
    const std::vector<int32_t> tokens{5, 6, 7, 8};
    const Tensor full = forwardReference(model, tokens);
    DecoderSession session(model);
    EXPECT_TRUE(sameBitsAsRow(session.prefill(tokens), full, 3));
}

TEST(DecoderSession, CapacityGrowthPreservesState)
{
    // Cross the 16-token initial capacity to exercise reallocation.
    const auto model = TinyTransformer::random(sessionConfig());
    std::vector<int32_t> tokens;
    for (int t = 0; t < 40; ++t)
        tokens.push_back(t % 64);
    const Tensor full = forwardReference(model, tokens);
    DecoderSession session(model);
    EXPECT_TRUE(sameBitsAsRow(session.prefill(tokens), full, 39));
}

TEST(DecoderSession, QuantizedKvStaysCloseToFloat)
{
    const auto model = TinyTransformer::random(sessionConfig());
    const std::vector<int32_t> tokens{3, 17, 42, 9, 28, 55, 1, 30};

    DecoderSession fp(model);
    DecoderSession kv4(model, KvQuantConfig{4, 32, true});
    const std::vector<float> fp_logits = fp.prefill(tokens);
    const std::vector<float> kv4_logits = kv4.prefill(tokens);

    // Correlated but not identical.
    double max_diff = 0.0, norm = 0.0;
    for (size_t v = 0; v < fp_logits.size(); ++v) {
        max_diff = std::max(
            max_diff, std::fabs(static_cast<double>(fp_logits[v]) -
                                kv4_logits[v]));
        norm = std::max(
            norm, std::fabs(static_cast<double>(fp_logits[v])));
    }
    EXPECT_GT(max_diff, 0.0);
    EXPECT_LT(max_diff, 0.2 * norm + 0.5);
}

TEST(DecoderSession, Kv8TighterThanKv4)
{
    const auto model = TinyTransformer::random(sessionConfig());
    const std::vector<int32_t> tokens{3, 17, 42, 9, 28, 55};
    DecoderSession fp(model);
    const std::vector<float> reference = fp.prefill(tokens);
    double err[2];
    int i = 0;
    for (int bits : {4, 8}) {
        DecoderSession session(model,
                               KvQuantConfig{bits, 32, true});
        const std::vector<float> logits = session.prefill(tokens);
        double e = 0.0;
        for (size_t v = 0; v < logits.size(); ++v) {
            e += std::pow(static_cast<double>(logits[v]) -
                              reference[v],
                          2.0);
        }
        err[i++] = e;
    }
    EXPECT_LT(err[1], err[0]);
}

TEST(DecoderSession, GenerateProducesValidTokens)
{
    const auto model = TinyTransformer::random(sessionConfig());
    DecoderSession session(model, KvQuantConfig{4, 32, true});
    Rng rng(44);
    std::vector<int32_t> sequence{1, 2, 3};
    const std::vector<float> logits = session.generate(sequence, 13, rng);
    EXPECT_EQ(logits.size(), 64u);
    EXPECT_EQ(sequence.size(), 13u);
    for (int32_t token : sequence) {
        EXPECT_GE(token, 0);
        EXPECT_LT(token, 64);
    }
    EXPECT_EQ(session.position(), 13);
}

TEST(DecoderSession, KvBytesReflectPrecisionAndLength)
{
    const auto model = TinyTransformer::random(sessionConfig());
    DecoderSession fp(model);
    DecoderSession kv4(model, KvQuantConfig{4, 32, true});
    fp.prefill({1, 2, 3, 4});
    kv4.prefill({1, 2, 3, 4});
    // 2 caches * 2 layers * 32 kv_dim * 4 tokens * bytes.
    EXPECT_DOUBLE_EQ(fp.kvCacheBytes(), 2.0 * 2 * 32 * 4 * 2.0);
    // 4 stores * (4 tokens * 16 B of nibbles + 32 channels * 8 B of
    // scale and zero point for the one open group).
    EXPECT_DOUBLE_EQ(kv4.kvCacheBytes(), 4.0 * (4 * 16 + 32 * 8));
}

TEST(DecoderSessionDeathTest, BadTokenRejected)
{
    const auto model = TinyTransformer::random(sessionConfig());
    DecoderSession session(model);
    EXPECT_DEATH(session.step(64), "CHECK failed");
}

} // namespace
} // namespace comet
