#include <gtest/gtest.h>

#include "common/rng.h"
#include "packing_reference.h"
#include "quant/mx_opal.h"
#include "quant/mxint.h"

namespace opal {
namespace {

using packing_reference::BitReader;
using packing_reference::BitWriter;
using packing_reference::pack;
using packing_reference::packed_bits;
using packing_reference::unpack;

TEST(BitStream, WriteReadRoundTrip) {
  BitWriter writer;
  writer.write(0b101, 3);
  writer.write(0xFFFF, 16);
  writer.write(0, 1);
  writer.write(0x12345, 20);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.read(3), 0b101u);
  EXPECT_EQ(reader.read(16), 0xFFFFu);
  EXPECT_EQ(reader.read(1), 0u);
  EXPECT_EQ(reader.read(20), 0x12345u);
  EXPECT_EQ(reader.bits_consumed(), writer.bit_count());
}

TEST(BitStream, ReadPastEndThrows) {
  BitWriter writer;
  writer.write(1, 4);
  BitReader reader(writer.bytes());
  static_cast<void>(reader.read(8));  // byte padding is readable
  EXPECT_THROW(static_cast<void>(reader.read(1)), std::out_of_range);
}

TEST(BitStream, MasksHighBits) {
  BitWriter writer;
  writer.write(0xFF, 4);  // only low 4 bits land in the stream
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.read(4), 0xFu);
  EXPECT_EQ(reader.read(4), 0u);
}

TEST(Packing, MxOpalRoundTripBitExact) {
  ActivationModel acts(3, 512, 0.02f);
  std::vector<float> x(512);
  acts.sample(x);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(x);
  const auto bytes = pack(qt);
  const auto restored = unpack(bytes);

  EXPECT_EQ(restored.count, qt.count);
  EXPECT_EQ(restored.global_scale, qt.global_scale);
  EXPECT_EQ(restored.format.bits, qt.format.bits);
  ASSERT_EQ(restored.blocks.size(), qt.blocks.size());
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    EXPECT_EQ(restored.blocks[b].scale_offset, qt.blocks[b].scale_offset);
    EXPECT_EQ(restored.blocks[b].codes, qt.blocks[b].codes);
    ASSERT_EQ(restored.blocks[b].outliers.size(),
              qt.blocks[b].outliers.size());
    for (std::size_t o = 0; o < qt.blocks[b].outliers.size(); ++o) {
      EXPECT_EQ(restored.blocks[b].outliers[o].index,
                qt.blocks[b].outliers[o].index);
      EXPECT_EQ(restored.blocks[b].outliers[o].value.bits(),
                qt.blocks[b].outliers[o].value.bits());
    }
  }
  // Decoded values identical through the packed stream.
  EXPECT_EQ(decode(restored), decode(qt));
}

TEST(Packing, MxIntRoundTrip) {
  Rng rng = make_rng(7);
  std::vector<float> x(300);  // includes a tail block
  fill_laplace(rng, x, 1.0f);
  MxIntQuantizer quant(128, 7);
  const auto qt = quant.encode(x);
  const auto restored = unpack(pack(qt));
  EXPECT_EQ(decode(restored), decode(qt));
}

TEST(Packing, TailBlockWithOutliers) {
  // 130 elements with k=128: tail block of 2, n=4 clamps to 2 outliers.
  Rng rng = make_rng(9);
  std::vector<float> x(130);
  fill_gaussian(rng, x, 0.0f, 2.0f);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(x);
  ASSERT_EQ(qt.blocks.back().codes.size(), 2u);
  EXPECT_EQ(qt.blocks.back().outliers.size(), 2u);
  const auto restored = unpack(pack(qt));
  EXPECT_EQ(decode(restored), decode(qt));
}

TEST(Packing, PackedSizeMatchesAccounting) {
  ActivationModel acts(5, 1024, 0.01f);
  std::vector<float> x(1024);
  acts.sample(x);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(x);
  const auto bytes = pack(qt);
  // Stream = header + payload, rounded up to bytes.
  EXPECT_EQ(bytes.size(), (packed_bits(qt) + 7) / 8);
  // packed_bits and storage_bits agree up to the fixed header (storage_bits
  // counts an 8-bit amortized global scale; the header carries it plus
  // magic/version/format fields).
  EXPECT_EQ(packed_bits(qt) - qt.storage_bits(),
            (16u + 8 + 8 + 16 + 16 + 8 + 32) - 8u);
}

TEST(Packing, NegativeGlobalScaleSurvives) {
  std::vector<float> x(128, 0.01f);  // exponent -7
  MxOpalQuantizer quant(128, 4, 0);
  const auto qt = quant.encode(x);
  ASSERT_LT(qt.global_scale, 0);
  const auto restored = unpack(pack(qt));
  EXPECT_EQ(restored.global_scale, qt.global_scale);
}

TEST(Packing, CorruptHeaderRejected) {
  ActivationModel acts(11, 128, 0.02f);
  std::vector<float> x(128);
  acts.sample(x);
  MxOpalQuantizer quant(128, 4, 4);
  auto bytes = pack(quant.encode(x));
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(unpack(bytes), std::invalid_argument);
}

TEST(Packing, TruncatedStreamRejected) {
  ActivationModel acts(13, 256, 0.02f);
  std::vector<float> x(256);
  acts.sample(x);
  MxOpalQuantizer quant(128, 4, 4);
  auto bytes = pack(quant.encode(x));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(unpack(bytes), std::out_of_range);
}

// Sweep the packer across format parameters.
class PackingSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PackingSweep, RoundTrip) {
  const auto [bits, n] = GetParam();
  ActivationModel acts(100 + bits, 384, 0.02f);
  std::vector<float> x(384);
  acts.sample(x);
  MxOpalQuantizer quant(128, bits, n);
  const auto qt = quant.encode(x);
  EXPECT_EQ(decode(unpack(pack(qt))), decode(qt));
}

INSTANTIATE_TEST_SUITE_P(
    Formats, PackingSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 7, 8),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{4}, std::size_t{8})));

}  // namespace
}  // namespace opal
