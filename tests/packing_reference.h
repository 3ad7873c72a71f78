// Shared test helper: bit-exact serialization of encoded tensors — the
// storage format the accelerator's SRAM and DRAM would hold. It is the
// reference that QuantizedTensor::storage_bits() and the quantizers'
// storage accounting are checked against; nothing in src/ serializes
// tensors yet.
//
// Layout (all fields little-endian bit order within the stream):
//   header:  16b magic | 8b version | 8b element bits b | 16b block size k
//            | 16b outliers n | 8b global scale (signed) | 32b element count
//   per block:
//            4b scale offset
//            n x (index_bits index | 16b bfloat16 value)   outlier slots
//            (len - n_actual) x b   sign-magnitude element codes, in
//                                   position order, skipping outlier slots
//
// The packed size equals QuantizedTensor::storage_bits() plus the fixed
// header, rounded up to whole bytes — asserted in test_packing, which is what
// makes every storage number reported by the benches honest.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/tensor.h"
#include "quant/format.h"

namespace opal::packing_reference {

inline constexpr std::uint32_t kMagic = 0x4F50;  // "OP"
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBits = 16 + 8 + 8 + 16 + 16 + 8 + 32;

inline int index_bits_for(std::size_t block_size) {
  int bits = 1;
  while ((std::size_t{1} << bits) < block_size) ++bits;
  return bits;
}

/// Sign-magnitude encoding of a code in `bits` bits.
inline std::uint32_t encode_code(std::int16_t code, int bits) {
  const std::uint32_t sign = code < 0 ? 1u : 0u;
  const auto magnitude =
      static_cast<std::uint32_t>(code < 0 ? -code : code);
  return (sign << (bits - 1)) | magnitude;
}

inline std::int16_t decode_code(std::uint32_t raw, int bits) {
  const bool negative = (raw >> (bits - 1)) & 1u;
  const auto magnitude =
      static_cast<std::int16_t>(raw & ((1u << (bits - 1)) - 1));
  return negative ? static_cast<std::int16_t>(-magnitude) : magnitude;
}

/// Append-only bit stream writer.
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value` (bits <= 32).
  void write(std::uint32_t value, int bits) {
    require(bits >= 0 && bits <= 32, "BitWriter: bits in [0,32]");
    for (int i = 0; i < bits; ++i) {
      const std::size_t byte = bit_count_ / 8;
      const std::size_t offset = bit_count_ % 8;
      if (byte == bytes_.size()) bytes_.push_back(0);
      if ((value >> i) & 1u) {
        bytes_[byte] |= static_cast<std::uint8_t>(1u << offset);
      }
      ++bit_count_;
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

/// Sequential bit stream reader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `bits` bits (bits <= 32); throws std::out_of_range past the end.
  [[nodiscard]] std::uint32_t read(int bits) {
    require(bits >= 0 && bits <= 32, "BitReader: bits in [0,32]");
    std::uint32_t value = 0;
    for (int i = 0; i < bits; ++i) {
      const std::size_t byte = bit_pos_ / 8;
      if (byte >= bytes_.size()) {
        throw std::out_of_range("BitReader: past end of stream");
      }
      const std::size_t offset = bit_pos_ % 8;
      if ((bytes_[byte] >> offset) & 1u) value |= 1u << i;
      ++bit_pos_;
    }
    return value;
  }

  [[nodiscard]] std::size_t bits_consumed() const { return bit_pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t bit_pos_ = 0;
};

/// Exact packed size in bits (header + payload), before byte rounding.
inline std::size_t packed_bits(const QuantizedTensor& qt) {
  const int index_bits = index_bits_for(qt.format.block_size);
  std::size_t bits = kHeaderBits;
  for (const auto& block : qt.blocks) {
    bits += 4;
    bits += block.outliers.size() *
            (static_cast<std::size_t>(index_bits) + 16);
    bits += (block.codes.size() - block.outliers.size()) *
            static_cast<std::size_t>(qt.format.bits);
  }
  return bits;
}

/// Serializes an encoded tensor to a packed byte stream.
inline std::vector<std::uint8_t> pack(const QuantizedTensor& qt) {
  require(qt.format.bits >= 2 && qt.format.bits <= 15, "pack: bad bits");
  BitWriter writer;
  writer.write(kMagic, 16);
  writer.write(kVersion, 8);
  writer.write(static_cast<std::uint32_t>(qt.format.bits), 8);
  writer.write(static_cast<std::uint32_t>(qt.format.block_size), 16);
  writer.write(static_cast<std::uint32_t>(qt.format.outliers), 16);
  writer.write(static_cast<std::uint32_t>(qt.global_scale) & 0xFFu, 8);
  writer.write(static_cast<std::uint32_t>(qt.count), 32);

  const int index_bits = index_bits_for(qt.format.block_size);
  for (const auto& block : qt.blocks) {
    writer.write(block.scale_offset, 4);
    std::vector<bool> is_outlier(block.codes.size(), false);
    for (const auto& outlier : block.outliers) {
      require(outlier.index < block.codes.size(), "pack: outlier index");
      is_outlier[outlier.index] = true;
      writer.write(outlier.index, index_bits);
      writer.write(outlier.value.bits(), 16);
    }
    for (std::size_t i = 0; i < block.codes.size(); ++i) {
      if (is_outlier[i]) continue;
      writer.write(encode_code(block.codes[i], qt.format.bits),
                   qt.format.bits);
    }
  }
  return writer.bytes();
}

/// Parses a packed stream back into an encoded tensor. Throws
/// std::invalid_argument on a corrupt header.
inline QuantizedTensor unpack(std::span<const std::uint8_t> bytes) {
  BitReader reader(bytes);
  if (reader.read(16) != kMagic) {
    throw std::invalid_argument("unpack: bad magic");
  }
  if (reader.read(8) != kVersion) {
    throw std::invalid_argument("unpack: unsupported version");
  }
  QuantizedTensor qt;
  qt.format.bits = static_cast<int>(reader.read(8));
  qt.format.block_size = reader.read(16);
  qt.format.outliers = reader.read(16);
  qt.global_scale = static_cast<std::int8_t>(reader.read(8));
  qt.count = reader.read(32);
  require(qt.format.bits >= 2 && qt.format.bits <= 15, "unpack: bad bits");
  require(qt.format.block_size >= 1, "unpack: bad block size");

  const int index_bits = index_bits_for(qt.format.block_size);
  std::size_t remaining = qt.count;
  while (remaining > 0) {
    const std::size_t len = std::min(qt.format.block_size, remaining);
    QuantizedBlock block;
    block.scale_offset = static_cast<std::uint8_t>(reader.read(4));
    block.codes.resize(len, 0);
    // Tail blocks shorter than n carry one outlier per element.
    const std::size_t n = std::min(qt.format.outliers, len);
    std::vector<bool> is_outlier(len, false);
    for (std::size_t i = 0; i < n; ++i) {
      Outlier outlier;
      outlier.index = static_cast<std::uint16_t>(reader.read(index_bits));
      require(outlier.index < len, "unpack: outlier index out of range");
      outlier.value =
          bfloat16::from_bits(static_cast<std::uint16_t>(reader.read(16)));
      is_outlier[outlier.index] = true;
      block.outliers.push_back(outlier);
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (is_outlier[i]) continue;
      block.codes[i] =
          decode_code(reader.read(qt.format.bits), qt.format.bits);
    }
    qt.blocks.push_back(std::move(block));
    remaining -= len;
  }
  return qt;
}

}  // namespace opal::packing_reference
