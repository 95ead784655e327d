/**
 * @file
 * Binary serialization of quantized artifacts.
 *
 * The paper ships the W4Ax kernel as a standalone library with C++
 * APIs for integration into existing inference systems; that workflow
 * needs quantized weights and calibrated quantizer state to be
 * persisted once (offline PTQ) and loaded by the serving process.
 * This module provides a small, versioned, little-endian binary
 * format for:
 *
 *  - BlockQuantizedWeight  (packed INT4 weights + per-block scales)
 *    and
 *  - the FMPQ calibration state (block precisions + channel
 *    permutation + config).
 *
 * All readers validate magic, version and structural invariants and
 * report malformed input through Status — corrupt files never abort.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comet/common/status.h"
#include "comet/quant/fmpq.h"

namespace comet {

/**
 * Append-only little-endian byte buffer writer.
 */
class ByteWriter
{
  public:
    void writeU32(uint32_t value);
    void writeU64(uint64_t value);
    void writeI64(int64_t value);
    void writeF32(float value);
    void writeBytes(const uint8_t *data, size_t size);

    const std::vector<uint8_t> &buffer() const { return buffer_; }
    std::vector<uint8_t> take() { return std::move(buffer_); }

  private:
    std::vector<uint8_t> buffer_;
};

/**
 * Bounds-checked little-endian byte buffer reader; all reads return
 * Status-carrying results so truncated input is a recoverable error.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<uint8_t> &buffer)
        : buffer_(buffer)
    {
    }

    Result<uint32_t> readU32();
    Result<uint64_t> readU64();
    Result<int64_t> readI64();
    Result<float> readF32();
    Status readBytes(uint8_t *out, size_t size);

    size_t remaining() const { return buffer_.size() - offset_; }
    bool
    atEnd() const
    {
        return offset_ == buffer_.size();
    }

  private:
    const std::vector<uint8_t> &buffer_;
    size_t offset_ = 0;
};

/** Serializes a block-quantized weight to bytes. */
std::vector<uint8_t> serialize(const BlockQuantizedWeight &weight);

/** Parses a block-quantized weight; fails on malformed input. */
Result<BlockQuantizedWeight> deserializeBlockQuantizedWeight(
    const std::vector<uint8_t> &bytes);

/** Serializes the calibrated state of an FMPQ activation quantizer
 * (config, permutation, block precisions). */
std::vector<uint8_t> serialize(const FmpqActivationQuantizer &quantizer);

/** Restores an FMPQ activation quantizer from bytes. */
Result<FmpqActivationQuantizer> deserializeFmpqQuantizer(
    const std::vector<uint8_t> &bytes);

/** Writes bytes to a file. */
Status writeFile(const std::string &path,
                 const std::vector<uint8_t> &bytes);

/** Reads a whole file into bytes. */
Result<std::vector<uint8_t>> readFile(const std::string &path);

} // namespace comet
