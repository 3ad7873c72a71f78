#include "quant/mxint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "mx_reference.h"

namespace opal {
namespace {

TEST(MxInt, Fig2WorkedExample) {
  // Fig 2: six bfloat16 values whose max exponent is 130-127 = 3; with
  // MXINT4 the shared scale is 3 and small elements underflow to zero.
  // Construct values with exponents {3, 0, -1, 1, -6, 0}.
  const std::vector<float> block = {-12.5f, 1.75f, -0.875f,
                                    2.5f,   0.02f, -1.25f};
  MxIntQuantizer quant(/*block_size=*/6, /*bits=*/4);
  const auto qt = quant.encode(block);
  ASSERT_EQ(qt.blocks.size(), 1u);
  EXPECT_EQ(qt.block_scale(0), 3);
  // Max-exponent element keeps its top 3 significand bits: -12.5/2 = -6.25
  // -> round -> -6.
  EXPECT_EQ(qt.blocks[0].codes[0], -6);
  // 0.02 has exponent -6, shifted out by 9 -> 0 even with rounding.
  EXPECT_EQ(qt.blocks[0].codes[4], 0);
}

TEST(MxInt, SharedScaleIsMaxExponent) {
  const std::vector<float> block = {0.1f, -0.25f, 7.0f, 0.5f};
  MxIntQuantizer quant(4, 4);
  const auto qt = quant.encode(block);
  EXPECT_EQ(qt.block_scale(0), 2);  // 7.0 = 1.75 * 2^2
}

TEST(MxInt, AllZeroBlock) {
  const std::vector<float> block(16, 0.0f);
  MxIntQuantizer quant(16, 4);
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(MxInt, SingleElementBlock) {
  const std::vector<float> in = {3.0f};
  MxIntQuantizer quant(1, 4);
  std::vector<float> out(1);
  quant.quantize_dequantize(in, out);
  EXPECT_NEAR(out[0], 3.0f, 0.25f);
}

TEST(MxInt, PowersOfTwoAreExact) {
  // Powers of two inside the representable window survive exactly.
  const std::vector<float> block = {4.0f, 2.0f, 1.0f, -2.0f};
  MxIntQuantizer quant(4, 4);
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(out[i], block[i]) << i;
  }
}

TEST(MxInt, OutlierDestroysBulk) {
  // One huge outlier drives every small element to zero (the failure mode
  // of Fig 3(c)).
  std::vector<float> block(128, 0.01f);
  block[7] = 100.0f;
  MxIntQuantizer quant(128, 2);
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (i == 7) continue;
    EXPECT_EQ(out[i], 0.0f) << i;
  }
}

TEST(MxInt, DecodeInvertsEncodeExactly) {
  // quantize_dequantize is a fixed point: re-quantizing the dequantized
  // output reproduces it (codes and scales are already representable).
  Rng rng = make_rng(42);
  std::vector<float> in(256);
  fill_gaussian(rng, in, 0.0f, 3.0f);
  MxIntQuantizer quant(64, 5);
  std::vector<float> once(in.size()), twice(in.size());
  quant.quantize_dequantize(in, once);
  quant.quantize_dequantize(once, twice);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(once[i], twice[i]) << i;
  }
}

TEST(MxInt, StorageBits) {
  MxIntQuantizer quant(128, 4);
  EXPECT_EQ(quant.storage_bits(128), 128u * 4 + 8);
  EXPECT_EQ(quant.storage_bits(256), 256u * 4 + 16);
  EXPECT_EQ(quant.storage_bits(130), 130u * 4 + 16);  // tail block
}

TEST(MxInt, TailBlockHandled) {
  Rng rng = make_rng(9);
  std::vector<float> in(100);  // not a multiple of block size 32
  fill_gaussian(rng, in, 0.0f, 1.0f);
  MxIntQuantizer quant(32, 4);
  std::vector<float> out(in.size());
  quant.quantize_dequantize(in, out);
  const auto qt = quant.encode(in);
  EXPECT_EQ(qt.blocks.size(), 4u);
  EXPECT_EQ(qt.blocks.back().codes.size(), 4u);
}

TEST(SelectSharedScale, NthHighest) {
  const std::vector<float> block = {8.0f, 4.0f, 2.0f, 1.0f};
  EXPECT_EQ(select_shared_scale(block, 1), 3);
  EXPECT_EQ(select_shared_scale(block, 2), 2);
  EXPECT_EQ(select_shared_scale(block, 4), 0);
  EXPECT_EQ(select_shared_scale(block, 5), kZeroExponent);
}

TEST(SelectSharedScale, IgnoresSignAndDuplicates) {
  const std::vector<float> block = {-8.0f, 8.0f, -8.0f};
  EXPECT_EQ(select_shared_scale(block, 1), 3);
  EXPECT_EQ(select_shared_scale(block, 3), 3);
}

TEST(AssignGlobalScale, OffsetsAgainstMin) {
  QuantizedTensor qt;
  qt.format = BlockFormat{4, 4, 0};
  qt.blocks.resize(3);
  const std::vector<int> scales = {5, 2, 9};
  assign_global_scale(qt, scales);
  EXPECT_EQ(qt.global_scale, 2);
  EXPECT_EQ(qt.blocks[0].scale_offset, 3);
  EXPECT_EQ(qt.blocks[1].scale_offset, 0);
  EXPECT_EQ(qt.blocks[2].scale_offset, 7);
}

TEST(AssignGlobalScale, OffsetSaturatesAt15) {
  QuantizedTensor qt;
  qt.blocks.resize(2);
  const std::vector<int> scales = {0, 30};
  assign_global_scale(qt, scales);
  EXPECT_EQ(qt.global_scale, 0);
  EXPECT_EQ(qt.blocks[1].scale_offset, 15);  // 4-bit field limit
}

TEST(AssignGlobalScale, AllZeroBlocksGetZero) {
  QuantizedTensor qt;
  qt.blocks.resize(2);
  const std::vector<int> scales = {kZeroExponent, kZeroExponent};
  assign_global_scale(qt, scales);
  EXPECT_EQ(qt.global_scale, 0);
  EXPECT_EQ(qt.blocks[0].scale_offset, 0);
}

TEST(MxInt, FusedMatchesPreFusionReferenceBitwise) {
  // MXINT is the fused kernel's n = 0 case: randomized differential test
  // against the pre-fusion decode(encode()) in mx_reference.h across block
  // sizes, bit-widths, both rounding modes, short tails, zeros, ties,
  // +/-inf, subnormals, all-zero tensors, saturated offsets and in == out.
  Rng rng = make_rng(4048);
  for (const std::size_t k : {8, 64, 128, 256}) {
    for (int bits = 2; bits <= 8; ++bits) {
      for (const RoundingMode mode :
           {RoundingMode::kNearest, RoundingMode::kTruncate}) {
        const MxIntQuantizer quant(k, bits, mode);
        for (int t = 0; t < 40; ++t) {
          const auto in = mx_reference::random_tensor(
              rng, mx_reference::random_length(rng, k), k);
          ASSERT_TRUE(mx_reference::matches_reference(quant, in))
              << "k=" << k << " bits=" << bits
              << " truncate=" << (mode == RoundingMode::kTruncate);
        }
      }
    }
  }
}

TEST(MxInt, StepBelowNormalRangeIsExact) {
  // Scale -126 at 8 bits puts the grid step at 2^-132, below fp32's normal
  // range: codes are still the shifted significands (the step is an exact
  // subnormal power of two), not zeros from a wrapped exponent field.
  const float tiny = std::ldexp(1.5f, -126);
  const std::vector<float> block = {tiny, -tiny / 2.0f, 0.0f, tiny / 64.0f};
  MxIntQuantizer quant(4, 8);
  const auto qt = quant.encode(block);
  EXPECT_EQ(qt.block_scale(0), -126);
  // 1.5 * 2^6, a subnormal at half that, and 1.5 rounded to 2.
  EXPECT_EQ(qt.blocks[0].codes, (std::vector<std::int16_t>{96, -48, 0, 2}));
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  EXPECT_EQ(out[0], tiny);
  EXPECT_EQ(out[1], -tiny / 2.0f);
  EXPECT_EQ(out[3], std::ldexp(1.0f, -131));
}

// Property sweep: MXINT error is bounded by one quantization step of the
// shared scale for in-range values, across bit-widths and block sizes.
class MxIntSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(MxIntSweep, ErrorBoundedByStep) {
  const auto [bits, block_size] = GetParam();
  Rng rng = make_rng(1234 + bits);
  std::vector<float> in(block_size * 4);
  fill_gaussian(rng, in, 0.0f, 1.0f);
  MxIntQuantizer quant(block_size, bits);
  std::vector<float> out(in.size());
  quant.quantize_dequantize(in, out);

  const auto qt = quant.encode(in);
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    // One full step covers both rounding (step/2) and the saturation of
    // the max-exponent element whose significand rounds up past the top
    // code (error up to ~one step); bf16 pre-rounding adds a hair more.
    const float step =
        std::ldexp(1.0f, qt.block_scale(b) - (bits - 2));
    for (std::size_t i = 0; i < block_size; ++i) {
      const std::size_t idx = b * block_size + i;
      EXPECT_LE(std::abs(out[idx] - in[idx]), step * 1.05f + 1e-6f)
          << "bits=" << bits << " idx=" << idx;
    }
  }
}

TEST_P(MxIntSweep, MoreBitsNeverWorse) {
  const auto [bits, block_size] = GetParam();
  if (bits >= 8) GTEST_SKIP();
  Rng rng = make_rng(77 + bits);
  std::vector<float> in(block_size * 4);
  fill_laplace(rng, in, 1.0f);
  MxIntQuantizer narrow(block_size, bits);
  MxIntQuantizer wide(block_size, bits + 1);
  std::vector<float> out_narrow(in.size()), out_wide(in.size());
  narrow.quantize_dequantize(in, out_narrow);
  wide.quantize_dequantize(in, out_wide);
  EXPECT_LE(mse(in, out_wide), mse(in, out_narrow) * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndBlocks, MxIntSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 7, 8),
                       ::testing::Values(std::size_t{16}, std::size_t{64},
                                         std::size_t{128})));

}  // namespace
}  // namespace opal
