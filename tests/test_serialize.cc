/**
 * @file
 * Unit tests for the binary serialization of quantized artifacts:
 * byte-level round trips, cross-object behavioural equivalence, and
 * graceful rejection of malformed input.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "comet/common/rng.h"
#include "comet/io/serialize.h"
#include "comet/model/synthetic.h"

namespace comet {
namespace {

TEST(ByteStream, PrimitivesRoundTrip)
{
    ByteWriter writer;
    writer.writeU32(0xdeadbeefu);
    writer.writeU64(0x0123456789abcdefull);
    writer.writeI64(-42);
    writer.writeF32(3.25f);
    const std::vector<uint8_t> bytes = writer.buffer();

    ByteReader reader(bytes);
    EXPECT_EQ(reader.readU32().value(), 0xdeadbeefu);
    EXPECT_EQ(reader.readU64().value(), 0x0123456789abcdefull);
    EXPECT_EQ(reader.readI64().value(), -42);
    EXPECT_FLOAT_EQ(reader.readF32().value(), 3.25f);
    EXPECT_TRUE(reader.atEnd());
}

TEST(ByteStream, TruncationIsAnError)
{
    std::vector<uint8_t> bytes{1, 2, 3};
    ByteReader reader(bytes);
    const Result<uint32_t> value = reader.readU32();
    EXPECT_FALSE(value.isOk());
    EXPECT_EQ(value.status().code(), StatusCode::kOutOfRange);
}

struct QuantizedFixture {
    FmpqActivationQuantizer quantizer;
    BlockQuantizedWeight weight;
    Tensor x;
};

QuantizedFixture
makeFixture(uint64_t seed)
{
    Rng rng(seed);
    SyntheticActivationConfig config;
    config.channels = 128;
    config.outlier_fraction = 0.03;
    config.seed = seed + 1;
    const SyntheticActivationModel model(config);
    FmpqConfig fmpq_config;
    fmpq_config.block_size = 32;
    auto quantizer = FmpqActivationQuantizer::calibrate(
        model.sample(64, rng), fmpq_config);
    auto weight =
        quantizer.quantizeWeight(sampleWeights(16, 128, rng));
    return {std::move(quantizer), std::move(weight),
            model.sample(4, rng)};
}

TEST(SerializeWeight, RoundTripsExactly)
{
    const QuantizedFixture f = makeFixture(1);
    const std::vector<uint8_t> bytes = serialize(f.weight);
    const Result<BlockQuantizedWeight> restored =
        deserializeBlockQuantizedWeight(bytes);
    ASSERT_TRUE(restored.isOk());
    const BlockQuantizedWeight &weight = restored.value();
    EXPECT_EQ(weight.out_features, f.weight.out_features);
    EXPECT_EQ(weight.in_channels, f.weight.in_channels);
    EXPECT_EQ(weight.block_size, f.weight.block_size);
    for (int64_t n = 0; n < weight.out_features; ++n) {
        for (int64_t c = 0; c < weight.in_channels; ++c)
            ASSERT_EQ(weight.data.get(n, c), f.weight.data.get(n, c));
    }
    EXPECT_DOUBLE_EQ(maxAbsError(weight.scales, f.weight.scales),
                     0.0);
}

TEST(SerializeWeight, RejectsWrongMagicAndVersion)
{
    const QuantizedFixture f = makeFixture(2);
    std::vector<uint8_t> bytes = serialize(f.weight);
    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_FALSE(
        deserializeBlockQuantizedWeight(bad_magic).isOk());
    std::vector<uint8_t> bad_version = bytes;
    bad_version[4] = 99;
    EXPECT_FALSE(
        deserializeBlockQuantizedWeight(bad_version).isOk());
}

TEST(SerializeWeight, RejectsTruncation)
{
    const QuantizedFixture f = makeFixture(3);
    std::vector<uint8_t> bytes = serialize(f.weight);
    bytes.resize(bytes.size() / 2);
    const Result<BlockQuantizedWeight> restored =
        deserializeBlockQuantizedWeight(bytes);
    EXPECT_FALSE(restored.isOk());
}

TEST(SerializeQuantizer, RestoredQuantizerBehavesIdentically)
{
    const QuantizedFixture f = makeFixture(4);
    const std::vector<uint8_t> bytes = serialize(f.quantizer);
    const Result<FmpqActivationQuantizer> restored =
        deserializeFmpqQuantizer(bytes);
    ASSERT_TRUE(restored.isOk());

    EXPECT_EQ(restored.value().permutation().order(),
              f.quantizer.permutation().order());
    EXPECT_EQ(restored.value().blockPrecisions(),
              f.quantizer.blockPrecisions());
    // Behavioural equivalence: identical fake quantization output.
    const Tensor a = f.quantizer.fakeQuantize(f.x);
    const Tensor b = restored.value().fakeQuantize(f.x);
    EXPECT_DOUBLE_EQ(maxAbsError(a, b), 0.0);
}

TEST(SerializeQuantizer, RejectsCorruptPermutation)
{
    const QuantizedFixture f = makeFixture(5);
    std::vector<uint8_t> bytes = serialize(f.quantizer);
    // The permutation entries start right after the fixed header
    // (8 magic/version + 8 block + 4 thr + 4 perm + 4 + 4 + 8 ch);
    // duplicate the first index into the second slot.
    const size_t perm_offset = 8 + 8 + 4 + 4 + 4 + 4 + 8;
    for (int i = 0; i < 8; ++i)
        bytes[perm_offset + 8 + static_cast<size_t>(i)] =
            bytes[perm_offset + static_cast<size_t>(i)];
    const auto restored = deserializeFmpqQuantizer(bytes);
    EXPECT_FALSE(restored.isOk());
    EXPECT_EQ(restored.status().code(),
              StatusCode::kInvalidArgument);
}

TEST(SerializeFile, WriteReadRoundTrip)
{
    const QuantizedFixture f = makeFixture(8);
    const std::vector<uint8_t> bytes = serialize(f.weight);
    const std::string path = "/tmp/comet_test_weight.bin";
    ASSERT_TRUE(writeFile(path, bytes).isOk());
    const Result<std::vector<uint8_t>> read = readFile(path);
    ASSERT_TRUE(read.isOk());
    EXPECT_EQ(read.value(), bytes);
    std::remove(path.c_str());
}

TEST(SerializeFile, MissingFileIsAnError)
{
    const auto result = readFile("/tmp/comet_definitely_missing.bin");
    EXPECT_FALSE(result.isOk());
}

/** Fuzz-ish sweep: random byte flips never abort, only fail. */
class CorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionSweep, FlippedBytesNeverAbort)
{
    const QuantizedFixture f = makeFixture(9);
    std::vector<uint8_t> bytes = serialize(f.quantizer);
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
    for (int flip = 0; flip < 8; ++flip) {
        bytes[rng.uniformInt(bytes.size())] ^= static_cast<uint8_t>(
            1u << rng.uniformInt(8));
    }
    // Either parses (flips hit scale payloads) or fails cleanly.
    const auto restored = deserializeFmpqQuantizer(bytes);
    if (!restored.isOk()) {
        EXPECT_FALSE(restored.status().message().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweep,
                         ::testing::Range(0, 12));

} // namespace
} // namespace comet
