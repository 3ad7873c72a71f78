#include "quant/mx_opal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "mx_reference.h"
#include "quant/mxint.h"

namespace opal {
namespace {

std::vector<float> outlier_block(std::size_t size, std::size_t outlier_pos,
                                 float outlier_value, std::uint64_t seed) {
  Rng rng = make_rng(seed);
  std::vector<float> block(size);
  fill_laplace(rng, block, 0.5f);
  block[outlier_pos] = outlier_value;
  return block;
}

TEST(MxOpal, PreservesOutliersExactly) {
  auto block = outlier_block(128, 17, 96.0f, 5);
  MxOpalQuantizer quant(128, 4, 4);
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  // The planted outlier survives at bf16 precision (96 is bf16-exact).
  EXPECT_EQ(out[17], 96.0f);
}

TEST(MxOpal, SharedScaleIsNPlusFirstExponent) {
  // With n=1 the scale must be the 2nd highest exponent (Fig 2(c)):
  // values {96, 3.5, ...small...}: scale = exp(3.5) = 1, not exp(96) = 6.
  std::vector<float> block(8, 0.25f);
  block[0] = 96.0f;
  block[1] = 3.5f;
  MxOpalQuantizer quant(8, 4, 1);
  const auto qt = quant.encode(block);
  EXPECT_EQ(qt.block_scale(0), 1);
  ASSERT_EQ(qt.blocks[0].outliers.size(), 1u);
  EXPECT_EQ(qt.blocks[0].outliers[0].index, 0);
  EXPECT_EQ(qt.blocks[0].outliers[0].value.to_float(), 96.0f);
}

TEST(MxOpal, OutlierSlotsCarryZeroCodes) {
  auto block = outlier_block(64, 9, -50.0f, 6);
  MxOpalQuantizer quant(64, 4, 2);
  const auto qt = quant.encode(block);
  for (const auto& outlier : qt.blocks[0].outliers) {
    EXPECT_EQ(qt.blocks[0].codes[outlier.index], 0);
  }
}

TEST(MxOpal, ExactlyNOutliersPerBlock) {
  Rng rng = make_rng(11);
  std::vector<float> in(128 * 4);
  fill_gaussian(rng, in, 0.0f, 1.0f);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(in);
  ASSERT_EQ(qt.blocks.size(), 4u);
  for (const auto& block : qt.blocks) {
    EXPECT_EQ(block.outliers.size(), 4u);
  }
}

TEST(MxOpal, TopNMagnitudesSelected) {
  std::vector<float> block = {1.0f, -9.0f, 3.0f, 0.5f, 8.0f, -0.1f};
  const auto top2 = top_n_magnitude_indices(block, 2);
  EXPECT_EQ(top2, (std::vector<std::size_t>{1, 4}));
}

TEST(MxOpal, TopNTiesBrokenByPosition) {
  std::vector<float> block = {2.0f, -2.0f, 2.0f};
  const auto top2 = top_n_magnitude_indices(block, 2);
  EXPECT_EQ(top2, (std::vector<std::size_t>{0, 1}));
}

TEST(MxOpal, TopNClampsToBlockSize) {
  std::vector<float> block = {1.0f, 2.0f};
  EXPECT_EQ(top_n_magnitude_indices(block, 10).size(), 2u);
}

TEST(MxOpal, BeatsMxIntOnOutlierBlocks) {
  // The paper's core claim at block level (Fig 3): preserving the outlier
  // moves the shared scale to the bulk and cuts the MSE severalfold.
  double mxint_total = 0.0, opal_total = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto block = outlier_block(128, (seed * 13) % 128, 64.0f, seed);
    MxIntQuantizer mxint(128, 4);
    MxOpalQuantizer opal4(128, 4, 1);
    std::vector<float> out_mxint(block.size()), out_opal(block.size());
    mxint.quantize_dequantize(block, out_mxint);
    opal4.quantize_dequantize(block, out_opal);
    mxint_total += mse(block, out_mxint);
    opal_total += mse(block, out_opal);
  }
  EXPECT_LT(opal_total, mxint_total / 4.0);
}

TEST(MxOpal, ZeroOutliersDegeneratesToMxInt) {
  Rng rng = make_rng(21);
  std::vector<float> in(256);
  fill_gaussian(rng, in, 0.0f, 2.0f);
  MxOpalQuantizer opal0(128, 4, 0);
  MxIntQuantizer mxint(128, 4);
  std::vector<float> a(in.size()), b(in.size());
  opal0.quantize_dequantize(in, a);
  mxint.quantize_dequantize(in, b);
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(MxOpal, MoreOutliersNeverHurtOnHeavyTails) {
  Rng rng = make_rng(31);
  std::vector<float> in(128 * 8);
  fill_laplace(rng, in, 1.0f);
  for (std::size_t i = 0; i < in.size(); i += 64) in[i] *= 32.0f;
  double prev = 1e300;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    MxOpalQuantizer quant(128, 4, n);
    std::vector<float> out(in.size());
    quant.quantize_dequantize(in, out);
    const double err = mse(in, out);
    EXPECT_LE(err, prev * 1.05) << "n=" << n;
    prev = err;
  }
}

TEST(MxOpal, DecodeMatchesQuantizeDequantize) {
  Rng rng = make_rng(41);
  std::vector<float> in(300);
  fill_laplace(rng, in, 2.0f);
  MxOpalQuantizer quant(128, 5, 4);
  std::vector<float> direct(in.size());
  quant.quantize_dequantize(in, direct);
  const auto decoded = decode(quant.encode(in));
  ASSERT_EQ(decoded.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(decoded[i], direct[i]) << i;
  }
}

TEST(MxOpal, StorageBitsMatchesEq1) {
  MxOpalQuantizer quant(128, 4, 4);
  // One full block: (128-4)*4 + 16*4 + 4 bits.
  EXPECT_EQ(quant.storage_bits(128), (128u - 4) * 4 + 16 * 4 + 4);
  EXPECT_NEAR(quant.memory_overhead(),
              static_cast<double>(quant.storage_bits(128) + 4) /
                  (128.0 * 4 + 8),
              0.01);
}

TEST(MxOpal, GlobalScalePlusOffsetExample) {
  // Two blocks with very different magnitudes: global scale is the lower
  // block scale and the hotter block carries the offset (Fig 2(c)).
  std::vector<float> in(256, 0.0f);
  for (std::size_t i = 0; i < 128; ++i) in[i] = 0.01f;       // exp -7
  for (std::size_t i = 128; i < 256; ++i) in[i] = 20.0f;     // exp 4
  MxOpalQuantizer quant(128, 4, 0);
  const auto qt = quant.encode(in);
  EXPECT_EQ(qt.global_scale, -7);
  EXPECT_EQ(qt.blocks[0].scale_offset, 0);
  EXPECT_EQ(qt.blocks[1].scale_offset, 11);
}

TEST(MxOpal, OffsetSaturationClipsHotBlock) {
  // Block scale > global + 15: codes saturate instead of exploding.
  std::vector<float> in(256, 0.0f);
  for (std::size_t i = 0; i < 128; ++i) in[i] = 0.001f;       // exp -10
  for (std::size_t i = 128; i < 256; ++i) in[i] = 5000.0f;    // exp 12
  MxOpalQuantizer quant(128, 4, 0);
  const auto qt = quant.encode(in);
  EXPECT_EQ(qt.blocks[1].scale_offset, 15);
  // Saturated codes: max code at the effective scale.
  EXPECT_EQ(qt.blocks[1].codes[0], 7);
}

TEST(MxOpal, RejectsOutliersGEBlockSize) {
  EXPECT_THROW(MxOpalQuantizer(4, 4, 4), std::invalid_argument);
}

TEST(MxOpal, FusedMatchesPreFusionReferenceBitwise) {
  // Randomized differential test of the fused kernel and encode() against
  // the pre-fusion decode(encode()) in mx_reference.h: every block size,
  // outlier count and bit-width of the sweep, both rounding modes, short
  // tail blocks, zeros, ties, +/-inf, subnormals, all-zero tensors,
  // saturated offsets, and in == out.
  Rng rng = make_rng(2024);
  std::size_t cases = 0;
  for (const std::size_t k : {8, 64, 128, 256}) {
    for (std::size_t n = 0; n <= 8 && n < k; ++n) {
      for (int bits = 2; bits <= 8; ++bits) {
        for (const RoundingMode mode :
             {RoundingMode::kNearest, RoundingMode::kTruncate}) {
          const MxOpalQuantizer quant(k, bits, n, mode);
          for (int t = 0; t < 6; ++t) {
            const auto in = mx_reference::random_tensor(
                rng, mx_reference::random_length(rng, k), k);
            ASSERT_TRUE(mx_reference::matches_reference(quant, in))
                << "k=" << k << " n=" << n << " bits=" << bits
                << " truncate=" << (mode == RoundingMode::kTruncate);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2940u);
}

TEST(MxOpal, SelectionHelpersMatchPreFusionReference) {
  Rng rng = make_rng(77);
  for (int t = 0; t < 400; ++t) {
    const auto block = mx_reference::random_tensor(rng, 1 + t % 130, 256);
    for (std::size_t n = 0; n <= block.size() + 1; n += 1 + n / 4) {
      EXPECT_EQ(top_n_magnitude_indices(block, n),
                mx_reference::top_n_magnitude_indices(block, n));
      EXPECT_EQ(select_shared_scale(block, n + 1),
                mx_reference::select_shared_scale(block, n + 1));
    }
  }
}

TEST(MxOpal, NaNRanksAboveInfinityAndSurvivesAsOutlier) {
  // Magnitudes rank by their bits: NaN above infinity, so a NaN is always
  // kept at bf16 (a quiet NaN, sign kept) before any finite value or inf.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  std::vector<float> block = {0.5f, inf, 1.25f, nan, -3.0f, -inf, 0.75f, 2.0f};
  EXPECT_EQ(top_n_magnitude_indices(block, 1),
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(top_n_magnitude_indices(block, 3),
            (std::vector<std::size_t>{1, 3, 5}));
  for (const std::size_t n : {1, 2, 3, 4}) {
    const MxOpalQuantizer quant(8, 4, n);
    std::vector<float> first(block.size());
    quant.quantize_dequantize(block, first);
    EXPECT_TRUE(std::isnan(first[3]));
    EXPECT_TRUE(std::signbit(first[3]));
    for (int run = 0; run < 3; ++run) {
      std::vector<float> again(block.size());
      quant.quantize_dequantize(block, again);
      const auto decoded = decode(quant.encode(block));
      for (std::size_t i = 0; i < block.size(); ++i) {
        EXPECT_TRUE(mx_reference::same_bits(again[i], first[i]))
            << "n=" << n << " i=" << i;
        EXPECT_TRUE(mx_reference::same_bits(decoded[i], first[i]))
            << "n=" << n << " i=" << i;
      }
    }
  }
  // With n = 3 the outliers are NaN, inf and -inf; the rest shares the
  // scale of -3.0 (exponent 1) and quantizes normally.
  const MxOpalQuantizer quant(8, 4, 3);
  std::vector<float> out(block.size());
  quant.quantize_dequantize(block, out);
  EXPECT_EQ(out[1], inf);
  EXPECT_EQ(out[5], -inf);
  EXPECT_EQ(out[4], -3.0f);
  EXPECT_EQ(out[7], 2.0f);
}

// Parameterized property sweep across (bits, n): MX-OPAL never does worse
// than MXINT on activation-like data with planted outliers, and the
// preserved outliers are always bit-exact at bf16.
class MxOpalSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(MxOpalSweep, NeverWorseThanMxInt) {
  const auto [bits, n] = GetParam();
  ActivationModel acts(99, 512, 0.01f, 1.0f);
  Matrix data = acts.sample_matrix(8);
  MxOpalQuantizer opal(128, bits, n);
  MxIntQuantizer mxint(128, bits);
  std::vector<float> out_opal(data.size()), out_mxint(data.size());
  opal.quantize_dequantize(data.flat(), out_opal);
  mxint.quantize_dequantize(data.flat(), out_mxint);
  EXPECT_LE(mse(data.flat(), out_opal), mse(data.flat(), out_mxint) * 1.001)
      << "bits=" << bits << " n=" << n;
}

TEST_P(MxOpalSweep, OutliersBitExact) {
  const auto [bits, n] = GetParam();
  ActivationModel acts(123, 256, 0.02f, 1.0f);
  std::vector<float> data(256);
  acts.sample(data);
  MxOpalQuantizer quant(128, bits, n);
  const auto qt = quant.encode(data);
  std::size_t base = 0;
  for (const auto& block : qt.blocks) {
    for (const auto& outlier : block.outliers) {
      EXPECT_EQ(outlier.value.to_float(),
                to_bf16(data[base + outlier.index]));
    }
    base += block.codes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndOutliers, MxOpalSweep,
    ::testing::Combine(::testing::Values(3, 4, 5, 7, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})));

}  // namespace
}  // namespace opal
