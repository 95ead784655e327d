#include "comet/io/serialize.h"

#include <cstdio>
#include <cstring>

namespace comet {

namespace {

constexpr uint32_t kWeightMagic = 0x434d5731;    // "CMW1"
constexpr uint32_t kQuantizerMagic = 0x434d5131; // "CMQ1"
constexpr uint32_t kFormatVersion = 1;

/** A bound on per-dimension extents so malformed headers cannot
 * trigger enormous allocations. */
constexpr int64_t kMaxElements = int64_t{1} << 26;

Status
checkHeader(ByteReader &reader, uint32_t magic)
{
    Result<uint32_t> file_magic = reader.readU32();
    if (!file_magic.isOk())
        return file_magic.status();
    if (file_magic.value() != magic)
        return Status::invalidArgument("bad magic number");
    Result<uint32_t> version = reader.readU32();
    if (!version.isOk())
        return version.status();
    if (version.value() != kFormatVersion)
        return Status::invalidArgument("unsupported format version");
    return Status::ok();
}

Status
checkDim(int64_t value, const char *what)
{
    if (value <= 0 || value > kMaxElements) {
        return Status::invalidArgument(std::string("implausible ") +
                                       what);
    }
    return Status::ok();
}

} // namespace

void
ByteWriter::writeU32(uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        buffer_.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
ByteWriter::writeU64(uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer_.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
ByteWriter::writeI64(int64_t value)
{
    writeU64(static_cast<uint64_t>(value));
}

void
ByteWriter::writeF32(float value)
{
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    writeU32(bits);
}

void
ByteWriter::writeBytes(const uint8_t *data, size_t size)
{
    buffer_.insert(buffer_.end(), data, data + size);
}

Result<uint32_t>
ByteReader::readU32()
{
    if (remaining() < 4)
        return Status::outOfRange("truncated input (u32)");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<uint32_t>(buffer_[offset_++]) << (8 * i);
    return value;
}

Result<uint64_t>
ByteReader::readU64()
{
    if (remaining() < 8)
        return Status::outOfRange("truncated input (u64)");
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(buffer_[offset_++]) << (8 * i);
    return value;
}

Result<int64_t>
ByteReader::readI64()
{
    Result<uint64_t> value = readU64();
    if (!value.isOk())
        return value.status();
    return static_cast<int64_t>(value.value());
}

Result<float>
ByteReader::readF32()
{
    Result<uint32_t> bits = readU32();
    if (!bits.isOk())
        return bits.status();
    float value;
    const uint32_t raw = bits.value();
    std::memcpy(&value, &raw, sizeof value);
    return value;
}

Status
ByteReader::readBytes(uint8_t *out, size_t size)
{
    if (remaining() < size)
        return Status::outOfRange("truncated input (bytes)");
    std::memcpy(out, buffer_.data() + offset_, size);
    offset_ += size;
    return Status::ok();
}

std::vector<uint8_t>
serialize(const BlockQuantizedWeight &weight)
{
    ByteWriter writer;
    writer.writeU32(kWeightMagic);
    writer.writeU32(kFormatVersion);
    writer.writeI64(weight.out_features);
    writer.writeI64(weight.in_channels);
    writer.writeI64(weight.block_size);
    writer.writeBytes(weight.data.data(),
                      static_cast<size_t>(weight.data.rows() *
                                          weight.data.rowBytes()));
    for (int64_t i = 0; i < weight.scales.numel(); ++i)
        writer.writeF32(weight.scales[i]);
    return writer.take();
}

Result<BlockQuantizedWeight>
deserializeBlockQuantizedWeight(const std::vector<uint8_t> &bytes)
{
    ByteReader reader(bytes);
    if (Status status = checkHeader(reader, kWeightMagic);
        !status.isOk())
        return status;

    Result<int64_t> out_features = reader.readI64();
    Result<int64_t> in_channels = reader.readI64();
    Result<int64_t> block_size = reader.readI64();
    if (!out_features.isOk() || !in_channels.isOk() ||
        !block_size.isOk())
        return Status::outOfRange("truncated weight header");
    for (const auto &[value, what] :
         {std::pair{out_features.value(), "out_features"},
          std::pair{in_channels.value(), "in_channels"},
          std::pair{block_size.value(), "block_size"}}) {
        if (Status status = checkDim(value, what); !status.isOk())
            return status;
    }
    if (in_channels.value() % 2 != 0 ||
        in_channels.value() % block_size.value() != 0) {
        return Status::invalidArgument(
            "in_channels inconsistent with block size");
    }
    // The buffer must already hold the full payload; this bounds any
    // allocation by the input size.
    const uint64_t payload =
        static_cast<uint64_t>(out_features.value()) *
            static_cast<uint64_t>(in_channels.value()) / 2 +
        static_cast<uint64_t>(out_features.value()) *
            static_cast<uint64_t>(in_channels.value() /
                                  block_size.value()) *
            4;
    if (reader.remaining() < payload)
        return Status::outOfRange("truncated weight payload");

    BlockQuantizedWeight weight{
        out_features.value(), in_channels.value(), block_size.value(),
        Int4Tensor(out_features.value(), in_channels.value()),
        Tensor(out_features.value(),
               in_channels.value() / block_size.value())};
    if (Status status = reader.readBytes(
            weight.data.data(),
            static_cast<size_t>(weight.data.rows() *
                                weight.data.rowBytes()));
        !status.isOk())
        return status;
    for (int64_t i = 0; i < weight.scales.numel(); ++i) {
        Result<float> scale = reader.readF32();
        if (!scale.isOk())
            return scale.status();
        weight.scales[i] = scale.value();
    }
    return weight;
}

std::vector<uint8_t>
serialize(const FmpqActivationQuantizer &quantizer)
{
    ByteWriter writer;
    writer.writeU32(kQuantizerMagic);
    writer.writeU32(kFormatVersion);
    const FmpqConfig &config = quantizer.config();
    writer.writeI64(config.block_size);
    writer.writeF32(config.outlier.threshold_ratio);
    writer.writeU32(config.enable_permutation ? 1 : 0);
    writer.writeU32(static_cast<uint32_t>(config.low_bits));
    writer.writeU32(static_cast<uint32_t>(config.high_bits));
    writer.writeI64(quantizer.channels());
    for (int64_t src : quantizer.permutation().order())
        writer.writeI64(src);
    writer.writeI64(quantizer.numBlocks());
    for (BlockPrecision precision : quantizer.blockPrecisions())
        writer.writeU32(static_cast<uint32_t>(precision));
    return writer.take();
}

Result<FmpqActivationQuantizer>
deserializeFmpqQuantizer(const std::vector<uint8_t> &bytes)
{
    ByteReader reader(bytes);
    if (Status status = checkHeader(reader, kQuantizerMagic);
        !status.isOk())
        return status;

    FmpqConfig config;
    Result<int64_t> block_size = reader.readI64();
    Result<float> threshold = reader.readF32();
    Result<uint32_t> permute = reader.readU32();
    Result<uint32_t> low_bits = reader.readU32();
    Result<uint32_t> high_bits = reader.readU32();
    Result<int64_t> channels = reader.readI64();
    if (!block_size.isOk() || !threshold.isOk() || !permute.isOk() ||
        !low_bits.isOk() || !high_bits.isOk() || !channels.isOk())
        return Status::outOfRange("truncated quantizer header");
    if (Status status = checkDim(block_size.value(), "block_size");
        !status.isOk())
        return status;
    if (Status status = checkDim(channels.value(), "channels");
        !status.isOk())
        return status;
    if (low_bits.value() < 2 || high_bits.value() <= low_bits.value() ||
        high_bits.value() > 16) {
        return Status::invalidArgument("implausible bit widths");
    }
    if (channels.value() % block_size.value() != 0) {
        return Status::invalidArgument(
            "channels inconsistent with block size");
    }
    config.block_size = block_size.value();
    config.outlier.threshold_ratio = threshold.value();
    config.enable_permutation = permute.value() != 0;
    config.low_bits = static_cast<int>(low_bits.value());
    config.high_bits = static_cast<int>(high_bits.value());
    if (reader.remaining() <
        static_cast<uint64_t>(channels.value()) * 8)
        return Status::outOfRange("truncated permutation payload");

    std::vector<int64_t> order(
        static_cast<size_t>(channels.value()));
    for (auto &src : order) {
        Result<int64_t> value = reader.readI64();
        if (!value.isOk())
            return value.status();
        if (value.value() < 0 || value.value() >= channels.value())
            return Status::invalidArgument(
                "permutation index out of range");
        src = value.value();
    }
    // Bijection check before handing to ChannelPermutation (which
    // aborts on misuse — serialization must stay recoverable).
    {
        std::vector<uint8_t> seen(order.size(), 0);
        for (int64_t src : order) {
            if (seen[static_cast<size_t>(src)])
                return Status::invalidArgument(
                    "permutation is not a bijection");
            seen[static_cast<size_t>(src)] = 1;
        }
    }

    Result<int64_t> num_blocks = reader.readI64();
    if (!num_blocks.isOk())
        return num_blocks.status();
    if (num_blocks.value() !=
        channels.value() / config.block_size) {
        return Status::invalidArgument("block count mismatch");
    }
    std::vector<BlockPrecision> precisions;
    precisions.reserve(static_cast<size_t>(num_blocks.value()));
    for (int64_t b = 0; b < num_blocks.value(); ++b) {
        Result<uint32_t> precision = reader.readU32();
        if (!precision.isOk())
            return precision.status();
        if (precision.value() > 1)
            return Status::invalidArgument("bad block precision");
        precisions.push_back(
            static_cast<BlockPrecision>(precision.value()));
    }
    return FmpqActivationQuantizer::fromParts(
        config, ChannelPermutation(std::move(order)),
        std::move(precisions));
}

Status
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        return Status::invalidArgument("cannot open file for write: " +
                                       path);
    const size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (written != bytes.size())
        return Status::internal("short write: " + path);
    return Status::ok();
}

Result<std::vector<uint8_t>>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return Status::invalidArgument("cannot open file for read: " +
                                       path);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    const size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (read != bytes.size())
        return Status::internal("short read: " + path);
    return bytes;
}

} // namespace comet
