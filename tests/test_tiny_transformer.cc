/**
 * @file
 * Unit tests for the tiny transformer substrate: its weights and
 * transforms, run through the whole-sequence forward oracle
 * (tests/tiny_transformer_forward.h), and the library's sampler.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "comet/model/perplexity.h"
#include "comet/quant/outlier.h"
#include "tiny_transformer_forward.h"

namespace comet {
namespace {

TinyTransformerConfig
smallConfig()
{
    TinyTransformerConfig config;
    config.vocab_size = 64;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.seed = 5;
    return config;
}

TEST(TinyTransformer, ForwardShape)
{
    const auto model = TinyTransformer::random(smallConfig());
    const Tensor logits = forwardReference(model, {1, 2, 3, 4, 5});
    EXPECT_EQ(logits.rows(), 5);
    EXPECT_EQ(logits.cols(), 64);
}

TEST(TinyTransformer, ForwardIsDeterministic)
{
    const auto model = TinyTransformer::random(smallConfig());
    const Tensor a = forwardReference(model, {3, 1, 4, 1, 5});
    const Tensor b = forwardReference(model, {3, 1, 4, 1, 5});
    EXPECT_DOUBLE_EQ(maxAbsError(a, b), 0.0);
}

TEST(TinyTransformer, CausalityPrefixInvariance)
{
    // Logits at position t must not depend on tokens after t.
    const auto model = TinyTransformer::random(smallConfig());
    const Tensor full = forwardReference(model, {7, 8, 9, 10, 11, 12});
    const Tensor prefix = forwardReference(model, {7, 8, 9});
    for (int64_t t = 0; t < 3; ++t) {
        for (int64_t v = 0; v < 64; ++v)
            EXPECT_NEAR(full.at(t, v), prefix.at(t, v), 1e-4);
    }
}

TEST(TinyTransformer, ConstantSequenceMixesToSameOutput)
{
    // With a constant sequence every V vector is identical, so the
    // attention mix — whatever RoPE does to the scores — returns the
    // same vector at every position. A useful invariant check.
    const auto model = TinyTransformer::random(smallConfig());
    const Tensor logits = forwardReference(model, {5, 5, 5, 5});
    for (int64_t v = 0; v < 64; ++v)
        EXPECT_NEAR(logits.at(1, v), logits.at(3, v), 1e-4);
}

TEST(TinyTransformer, TokenOrderMattersThroughRope)
{
    // Same multiset of context tokens, different order: the last
    // position's logits must differ, which requires the attention
    // scores to carry positional information (RoPE).
    const auto model = TinyTransformer::random(smallConfig());
    const Tensor a = forwardReference(model, {2, 9, 4, 7});
    const Tensor b = forwardReference(model, {9, 2, 4, 7});
    double diff = 0.0;
    for (int64_t v = 0; v < 64; ++v)
        diff += std::fabs(a.at(3, v) - b.at(3, v));
    EXPECT_GT(diff, 1e-3);
}

TEST(TinyTransformer, PlantedOutliersAppearInActivations)
{
    // The linear inputs collected from forward passes must show the
    // planted outlier channels — the property FMPQ exploits.
    TinyTransformerConfig config = smallConfig();
    config.outlier_fraction = 0.05;
    config.outlier_scale = 30.0;
    const auto model = TinyTransformer::random(config);
    ASSERT_FALSE(model.outlierChannels().empty());

    class Collector : public QuantSimulator
    {
      public:
        Tensor
        transformActivation(const ActivationSite &site,
                            const Tensor &x) override
        {
            if (site.layer == 0 && site.site == ActSite::kQkv)
                collected = x;
            return x;
        }
        Tensor collected;
    };
    Collector collector;
    forwardReference(model, {1, 2, 3, 4, 5, 6, 7, 8}, &collector);
    ASSERT_EQ(collector.collected.cols(), 64);

    const ChannelStats stats =
        computeChannelStats(collector.collected);
    const OutlierReport report = detectOutliers(stats);
    // Every planted channel is detected as an outlier.
    for (int64_t c : model.outlierChannels()) {
        EXPECT_TRUE(report.is_outlier[static_cast<size_t>(c)])
            << "channel " << c;
    }
}

TEST(TinyTransformer, SequenceNllPositiveAndBounded)
{
    const auto model = TinyTransformer::random(smallConfig());
    const auto [arb_nll, arb_count] =
        sequenceNllReference(model, {1, 2, 3, 4, 5, 6});
    EXPECT_EQ(arb_count, 5);
    EXPECT_GT(arb_nll, 0.0);
    // On data sampled from the model itself, the per-token NLL must
    // beat the uniform baseline log(V).
    Rng rng(99);
    const auto seq = sampleDataset(model, 1, 32, rng).sequences[0];
    const auto [nll, count] = sequenceNllReference(model, seq);
    EXPECT_LT(nll / static_cast<double>(count), std::log(64.0));
}

TEST(TinyTransformer, ModelScoresItsOwnSamplesBetterThanRandom)
{
    const auto model = TinyTransformer::random(smallConfig());
    Rng rng(11);
    double model_nll = 0.0;
    int64_t model_tokens = 0;
    for (int i = 0; i < 4; ++i) {
        const auto seq = sampleDataset(model, 1, 24, rng).sequences[0];
        const auto [nll, count] = sequenceNllReference(model, seq);
        model_nll += nll;
        model_tokens += count;
    }
    double random_nll = 0.0;
    int64_t random_tokens = 0;
    for (int i = 0; i < 4; ++i) {
        std::vector<int32_t> seq;
        for (int t = 0; t < 24; ++t)
            seq.push_back(
                static_cast<int32_t>(rng.uniformInt(64)));
        const auto [nll, count] = sequenceNllReference(model, seq);
        random_nll += nll;
        random_tokens += count;
    }
    EXPECT_LT(model_nll / static_cast<double>(model_tokens),
              random_nll / static_cast<double>(random_tokens));
}

TEST(TinyTransformer, TransformedWeightsVisitsEveryMatrix)
{
    const auto model = TinyTransformer::random(smallConfig());
    int visits = 0;
    model.transformedWeights(
        [&](const LinearSite &, const Tensor &w) {
            ++visits;
            return w;
        });
    EXPECT_EQ(visits, 2 * 7); // 2 layers x 7 matrices
}

TEST(TinyTransformer, IdentityTransformPreservesOutputs)
{
    const auto model = TinyTransformer::random(smallConfig());
    const auto copy = model.transformedWeights(
        [](const LinearSite &, const Tensor &w) { return w; });
    const Tensor a = forwardReference(model, {1, 2, 3});
    const Tensor b = forwardReference(copy, {1, 2, 3});
    EXPECT_DOUBLE_EQ(maxAbsError(a, b), 0.0);
}

TEST(TinyTransformer, ZeroingWeightsChangesOutputs)
{
    const auto model = TinyTransformer::random(smallConfig());
    const auto zeroed = model.transformedWeights(
        [](const LinearSite &site, const Tensor &w) {
            if (site.kind == WeightKind::kDown) {
                Tensor z(w.rows(), w.cols());
                return z;
            }
            return w;
        });
    const Tensor a = forwardReference(model, {1, 2, 3});
    const Tensor b = forwardReference(zeroed, {1, 2, 3});
    EXPECT_GT(maxAbsError(a, b), 1e-3);
}

TEST(TinyTransformer, SampleSequenceRespectsLengthAndVocab)
{
    const auto model = TinyTransformer::random(smallConfig());
    Rng rng(13);
    const auto seq = sampleDataset(model, 1, 17, rng).sequences[0];
    EXPECT_EQ(seq.size(), 17u);
    for (int32_t token : seq) {
        EXPECT_GE(token, 0);
        EXPECT_LT(token, 64);
    }
}

TEST(TinyTransformer, WeightAccessorReturnsCorrectShapes)
{
    const auto model = TinyTransformer::random(smallConfig());
    EXPECT_EQ(model.weight({0, WeightKind::kQ}).rows(), 64);
    EXPECT_EQ(model.weight({0, WeightKind::kK}).rows(),
              2 * (64 / 4)); // kv_heads * head_dim
    EXPECT_EQ(model.weight({1, WeightKind::kDown}).cols(), 128);
}

TEST(TinyTransformerDeathTest, InvalidTokenRejected)
{
    const auto model = TinyTransformer::random(smallConfig());
    EXPECT_DEATH(forwardReference(model, {64}), "CHECK failed");
}

TEST(TinyTransformerPlainMlp, ForwardWorksWithoutGate)
{
    TinyTransformerConfig config = smallConfig();
    config.gated_mlp = false;
    const auto model = TinyTransformer::random(config);
    const Tensor logits = forwardReference(model, {1, 2, 3, 4});
    EXPECT_EQ(logits.rows(), 4);
    EXPECT_EQ(logits.cols(), 64);
    // Deterministic like the gated variant.
    EXPECT_DOUBLE_EQ(
        maxAbsError(logits, forwardReference(model, {1, 2, 3, 4})), 0.0);
}

TEST(TinyTransformerPlainMlp, TransformVisitsSixMatricesPerLayer)
{
    TinyTransformerConfig config = smallConfig();
    config.gated_mlp = false;
    const auto model = TinyTransformer::random(config);
    int visits = 0;
    model.transformedWeights(
        [&](const LinearSite &site, const Tensor &w) {
            EXPECT_NE(site.kind, WeightKind::kGate);
            ++visits;
            return w;
        });
    EXPECT_EQ(visits, 2 * 6); // no gate projection
}

TEST(TinyTransformerPlainMlpDeathTest, GateAccessRejected)
{
    TinyTransformerConfig config = smallConfig();
    config.gated_mlp = false;
    const auto model = TinyTransformer::random(config);
    EXPECT_DEATH(model.weight({0, WeightKind::kGate}),
                 "no gate projection");
}

TEST(TinyTransformerPlainMlp, SelfScoringStillBeatsRandom)
{
    TinyTransformerConfig config = smallConfig();
    config.gated_mlp = false;
    const auto model = TinyTransformer::random(config);
    Rng rng(21);
    const auto seq = sampleDataset(model, 1, 24, rng).sequences[0];
    const auto [nll, count] = sequenceNllReference(model, seq);
    EXPECT_LT(nll / static_cast<double>(count), std::log(64.0));
}

} // namespace
} // namespace comet

