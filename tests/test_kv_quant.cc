/**
 * @file
 * Unit tests for the KV-cache quantizer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "comet/common/rng.h"
#include "comet/obs/metrics.h"
#include "comet/quant/kv_quant.h"
#include "comet/simd/simd.h"

namespace comet {
namespace {

Tensor
makeKv(int64_t tokens, int64_t channels, uint64_t seed)
{
    Rng rng(seed);
    Tensor kv(tokens, channels);
    for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t c = 0; c < channels; ++c) {
            // Per-channel offsets emulate the post-RoPE structure: V
            // has mild channel-dependent means.
            kv.at(t, c) = static_cast<float>(
                rng.gaussian(0.2 * static_cast<double>(c % 5), 1.0));
        }
    }
    return kv;
}

TEST(KvQuant, FakeQuantErrorBoundedPerGroup)
{
    const Tensor kv = makeKv(100, 16, 1);
    KvQuantConfig config;
    config.bits = 4;
    config.group_size = 32;
    const KvCacheQuantizer quantizer(config);
    const Tensor q = quantizer.fakeQuantize(kv);
    // Per (channel, group) the error is bounded by the group's scale.
    for (int64_t c = 0; c < 16; ++c) {
        for (int64_t g0 = 0; g0 < 100; g0 += 32) {
            const int64_t g1 = std::min<int64_t>(g0 + 32, 100);
            float min_v = kv.at(g0, c), max_v = kv.at(g0, c);
            for (int64_t t = g0; t < g1; ++t) {
                min_v = std::min(min_v, kv.at(t, c));
                max_v = std::max(max_v, kv.at(t, c));
            }
            const float scale = (max_v - min_v) / 15.0f;
            for (int64_t t = g0; t < g1; ++t) {
                EXPECT_LE(std::fabs(q.at(t, c) - kv.at(t, c)),
                          scale + 1e-5f);
            }
        }
    }
}

TEST(KvQuant, AsymmetricBeatsSymmetricOnShiftedData)
{
    // V-cache values with a strong positive mean favor affine
    // quantization.
    Rng rng(2);
    Tensor kv(64, 8);
    for (int64_t i = 0; i < kv.numel(); ++i)
        kv[i] = static_cast<float>(rng.gaussian(3.0, 0.5));

    KvQuantConfig asym{4, 64, true};
    KvQuantConfig sym{4, 64, false};
    const Tensor qa = KvCacheQuantizer(asym).fakeQuantize(kv);
    const Tensor qs = KvCacheQuantizer(sym).fakeQuantize(kv);
    EXPECT_LT(meanSquaredError(kv, qa), meanSquaredError(kv, qs));
}

TEST(KvQuant, PackedMatchesFakeQuant)
{
    const Tensor kv = makeKv(70, 12, 3); // partial trailing group
    const KvCacheQuantizer quantizer(KvQuantConfig{4, 32, true});
    const QuantizedKv packed = quantizer.quantize(kv);
    EXPECT_EQ(packed.numGroups(), 3);
    const Tensor deq = quantizer.dequantize(packed);
    const Tensor fake = quantizer.fakeQuantize(kv);
    EXPECT_LT(maxAbsError(deq, fake), 1e-5);
}

TEST(KvQuant, PackedValuesInRange)
{
    const Tensor kv = makeKv(32, 8, 4);
    const KvCacheQuantizer quantizer(KvQuantConfig{4, 16, true});
    const QuantizedKv packed = quantizer.quantize(kv);
    for (int64_t t = 0; t < 32; ++t) {
        for (int64_t c = 0; c < 8; ++c) {
            EXPECT_GE(packed.data.get(t, c), -8);
            EXPECT_LE(packed.data.get(t, c), 7);
        }
    }
}

TEST(KvQuant, ChannelwiseIsolatesHotChannel)
{
    // One hot channel must not destroy the precision of others —
    // the reason the paper uses channel-wise KV quantization.
    Rng rng(5);
    Tensor kv(64, 4);
    for (int64_t t = 0; t < 64; ++t) {
        for (int64_t c = 0; c < 4; ++c)
            kv.at(t, c) = static_cast<float>(rng.gaussian(0, 1));
        kv.at(t, 0) *= 100.0f;
    }
    const KvCacheQuantizer quantizer(KvQuantConfig{4, 64, true});
    const Tensor q = quantizer.fakeQuantize(kv);
    double cold_mse = 0.0;
    for (int64_t t = 0; t < 64; ++t) {
        for (int64_t c = 1; c < 4; ++c) {
            const double d = q.at(t, c) - kv.at(t, c);
            cold_mse += d * d;
        }
    }
    cold_mse /= 64.0 * 3.0;
    EXPECT_LT(cold_mse, 0.05); // cold channels keep ~INT4 fidelity
}

TEST(KvQuant, HigherBitsLowerError)
{
    const Tensor kv = makeKv(128, 16, 6);
    const Tensor q4 =
        KvCacheQuantizer(KvQuantConfig{4, 64, true}).fakeQuantize(kv);
    const Tensor q8 =
        KvCacheQuantizer(KvQuantConfig{8, 64, true}).fakeQuantize(kv);
    EXPECT_LT(meanSquaredError(kv, q8),
              meanSquaredError(kv, q4) / 10.0);
}

TEST(KvQuantDeathTest, InvalidConfigRejected)
{
    EXPECT_DEATH(KvCacheQuantizer(KvQuantConfig{1, 64, true}),
                 "CHECK failed");
    EXPECT_DEATH(KvCacheQuantizer(KvQuantConfig{4, 0, true}),
                 "CHECK failed");
}

/** Sweep: smaller groups track drifting statistics better. */
class KvGroupSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(KvGroupSweep, ErrorDecreasesWithGroupSize)
{
    // Values drift over time (as a growing KV cache does).
    Rng rng(7);
    Tensor kv(256, 4);
    for (int64_t t = 0; t < 256; ++t) {
        for (int64_t c = 0; c < 4; ++c) {
            kv.at(t, c) = static_cast<float>(
                rng.gaussian(0, 1.0 + static_cast<double>(t) / 32.0));
        }
    }
    const int64_t group = GetParam();
    const double mse =
        meanSquaredError(kv, KvCacheQuantizer(KvQuantConfig{4, group,
                                                            true})
                                 .fakeQuantize(kv));
    const double mse_whole = meanSquaredError(
        kv, KvCacheQuantizer(KvQuantConfig{4, 256, true})
                .fakeQuantize(kv));
    EXPECT_LE(mse, mse_whole * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Groups, KvGroupSweep,
                         ::testing::Values(16, 32, 64, 128));

/** The first @p tokens rows of @p kv. */
Tensor
prefixRows(const Tensor &kv, int64_t tokens)
{
    Tensor out(tokens, kv.cols());
    std::copy(kv.data(), kv.data() + tokens * kv.cols(), out.data());
    return out;
}

void
expectSameQuantizedKv(const QuantizedKv &got, const QuantizedKv &want)
{
    ASSERT_EQ(got.tokens, want.tokens);
    ASSERT_EQ(got.channels, want.channels);
    ASSERT_EQ(got.group_size, want.group_size);
    ASSERT_EQ(got.params.size(), want.params.size());
    for (size_t i = 0; i < want.params.size(); ++i) {
        ASSERT_EQ(got.params[i].scale, want.params[i].scale) << i;
        ASSERT_EQ(got.params[i].zero_point, want.params[i].zero_point)
            << i;
    }
    for (int64_t t = 0; t < want.tokens; ++t) {
        for (int64_t c = 0; c < want.channels; ++c)
            ASSERT_EQ(got.data.get(t, c), want.data.get(t, c))
                << "t=" << t << " c=" << c;
    }
}

TEST(KvStore, MatchesWholeHistoryQuantizeAtEveryLength)
{
    // Randomized over the quantizer configuration: after every append
    // the store equals a whole-history quantize of the same rows.
    Rng rng(21);
    for (const int64_t group : {1, 7, 32, 64}) {
        for (const int bits : {2, 3, 4, 8}) {
            for (const bool asymmetric : {true, false}) {
                const KvQuantConfig config{bits, group, asymmetric};
                const int64_t tokens = 1 + static_cast<int64_t>(
                                               rng.uniformInt(300));
                const int64_t channels = 2 * (1 + static_cast<int64_t>(
                                                      rng.uniformInt(5)));
                // Drifting scale, so the open group's parameters keep
                // changing as it fills.
                Tensor kv(tokens, channels);
                for (int64_t t = 0; t < tokens; ++t) {
                    for (int64_t c = 0; c < channels; ++c) {
                        kv.at(t, c) = static_cast<float>(rng.gaussian(
                            0.3 * static_cast<double>(c),
                            1.0 + static_cast<double>(t % 50) / 10.0));
                    }
                }
                const KvCacheQuantizer quantizer(config);
                KvStore store(channels, config);
                for (int64_t t = 0; t < tokens; ++t) {
                    store.append(kv.data() + t * channels);
                    SCOPED_TRACE(::testing::Message()
                                 << "group " << group << " bits " << bits
                                 << " asym " << asymmetric << " length "
                                 << t + 1);
                    expectSameQuantizedKv(
                        store.snapshot(),
                        quantizer.quantize(prefixRows(kv, t + 1)));
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(KvStore, PacksTwoValuesPerByteAtFourBitsAndBelow)
{
    const Tensor kv = makeKv(100, 12, 24);
    for (const int bits : {2, 3, 4, 8}) {
        KvStore store(12, KvQuantConfig{bits, 32, true});
        for (int64_t t = 0; t < kv.rows(); ++t)
            store.append(kv.data() + t * 12);
        // Values, then 4 groups x 12 channels of (scale, zero point).
        const int64_t value_bytes = bits <= 4 ? 100 * 12 / 2 : 100 * 12;
        EXPECT_EQ(store.packed(), bits <= 4);
        EXPECT_EQ(store.bytes(), value_bytes + 4 * 12 * 8) << bits;
    }
}

TEST(KvStore, AppendRequantizesOnlyTheOpenGroup)
{
    // Each append quantizes its own row and re-quantizes the held
    // values of exactly the channels whose open-group min or max it
    // moved, recomputed here by brute force over the held rows.
    obs::Counter &counter = obs::MetricsRegistry::global().counter(
        "quant.kv_values_quantized");
    constexpr int64_t kChannels = 8, kGroup = 32;
    const Tensor kv = makeKv(70, kChannels, 25);
    KvStore store(kChannels, KvQuantConfig{4, kGroup, true});
    int64_t total = 0;
    for (int64_t t = 0; t < kv.rows(); ++t) {
        const int64_t t0 = t - t % kGroup;
        int64_t moved = 0;
        for (int64_t c = 0; c < kChannels && t > t0; ++c) {
            float lo = kv.at(t0, c), hi = kv.at(t0, c);
            for (int64_t r = t0 + 1; r < t; ++r) {
                lo = std::min(lo, kv.at(r, c));
                hi = std::max(hi, kv.at(r, c));
            }
            moved += kv.at(t, c) < lo || kv.at(t, c) > hi ? 1 : 0;
        }
        const int64_t before = counter.value();
        store.append(kv.data() + t * kChannels);
        EXPECT_EQ(counter.value() - before,
                  kChannels + moved * (t - t0)) << t;
        total += counter.value() - before;
    }
    // Re-quantizing the whole open group would cost
    // sum_t (t % 32 + 1) * 8 = 8616 values here.
    EXPECT_LT(total, 8616 / 3) << total;
}

/** Appends @p rows to a store of @p config, one at a time, checking
 * after every append that it equals a whole-history quantize. */
void
expectStoreTracksQuantize(const Tensor &rows, const KvQuantConfig &config)
{
    const KvCacheQuantizer quantizer(config);
    KvStore store(rows.cols(), config);
    for (int64_t t = 0; t < rows.rows(); ++t) {
        store.append(rows.data() + t * rows.cols());
        SCOPED_TRACE(::testing::Message() << "length " << t + 1);
        expectSameQuantizedKv(store.snapshot(),
                              quantizer.quantize(prefixRows(rows, t + 1)));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(KvStore, AdversarialAppendsMatchWholeHistoryQuantize)
{
    // Rows chosen against the incremental open group: each one moves
    // every channel's range, none of it, only signed zeros, or lands
    // on the current extremes exactly.
    constexpr int64_t kChannels = 6;
    std::vector<float> values;
    const auto add = [&](auto value) {
        for (int64_t c = 0; c < kChannels; ++c)
            values.push_back(value(c));
    };
    // Signed zeros first: -0.0 after +0.0 moves no bound.
    for (int i = 0; i < 3; ++i) {
        add([](int64_t) { return 0.0f; });
        add([](int64_t) { return -0.0f; });
    }
    // Every row a new min or max in every channel.
    for (int64_t i = 0; i < 12; ++i) {
        add([&](int64_t c) {
            const float sign = (i + c) % 2 == 0 ? 1.0f : -1.0f;
            return sign * (1.0f + static_cast<float>(i));
        });
    }
    // Strictly inside the range: no channel moves.
    for (int64_t i = 0; i < 12; ++i) {
        add([&](int64_t c) {
            return 0.25f * static_cast<float>((i + c) % 5) - 0.5f;
        });
    }
    // The current extremes again, then one channel at a time.
    for (int64_t i = 0; i < 6; ++i) {
        add([&](int64_t c) { return (i + c) % 2 == 0 ? 12.0f : -12.0f; });
        add([&](int64_t c) { return c == i ? 40.0f + static_cast<float>(i)
                                           : 0.5f; });
    }
    Tensor kv(static_cast<int64_t>(values.size()) / kChannels, kChannels);
    std::copy(values.begin(), values.end(), kv.data());

    const simd::Mode saved = simd::activeMode();
    for (const simd::Mode mode : simd::supportedModes()) {
        simd::setMode(mode);
        for (const int64_t group : {1, 5, 8, 64}) {
            for (const int bits : {2, 4, 8}) {
                for (const bool asymmetric : {true, false}) {
                    SCOPED_TRACE(::testing::Message()
                                 << simd::modeName(mode) << " group "
                                 << group << " bits " << bits << " asym "
                                 << asymmetric);
                    expectStoreTracksQuantize(
                        kv, KvQuantConfig{bits, group, asymmetric});
                    if (::testing::Test::HasFatalFailure())
                        break;
                }
            }
        }
    }
    simd::setMode(saved);
}

TEST(KvStoreDeathTest, OddChannelsCannotPack)
{
    EXPECT_DEATH(KvStore(7, KvQuantConfig{4, 32, true}), "CHECK failed");
    EXPECT_DEATH(KvStore(8, KvQuantConfig{9, 32, true}), "CHECK failed");
}

} // namespace
} // namespace comet
