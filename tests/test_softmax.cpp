#include "softmax/softmax.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace opal {
namespace {

TEST(SoftmaxReference, SumsToOne) {
  Rng rng = make_rng(1);
  std::vector<float> in(64), out(64);
  fill_gaussian(rng, in, 0.0f, 3.0f);
  softmax_reference(in, out);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-5);
  for (const float v : out) EXPECT_GT(v, 0.0f);
}

TEST(SoftmaxReference, ShiftInvariant) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {101.0f, 102.0f, 103.0f};
  std::vector<float> pa(3), pb(3);
  softmax_reference(a, pa);
  softmax_reference(b, pb);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(pa[i], pb[i], 1e-6f);
}

TEST(SoftmaxReference, HandlesExtremeScores) {
  std::vector<float> in = {1000.0f, -1000.0f, 0.0f};
  std::vector<float> out(3);
  softmax_reference(in, out);
  EXPECT_NEAR(out[0], 1.0f, 1e-5f);
  EXPECT_NEAR(out[1], 0.0f, 1e-5f);
}

TEST(Log2SoftmaxExact, UniformScoresGiveLogN) {
  // softmax of 8 equal scores = 1/8 -> -log2 = 3.
  std::vector<float> in(8, 1.0f);
  const auto codes = log2_softmax_exact(in, 7);
  for (const auto c : codes) EXPECT_EQ(c, 3);
}

TEST(Log2SoftmaxExact, ClipsToBitWidth) {
  std::vector<float> in = {0.0f, -100.0f};
  const auto codes = log2_softmax_exact(in, 5);
  EXPECT_EQ(codes[0], 0);    // p ~= 1 -> -log2 ~= 0
  EXPECT_EQ(codes[1], 31);   // p ~= 0 -> clipped to 2^5-1
}

TEST(Log2SoftmaxUnit, MatchesExactWithinOneCode) {
  // The Eq. (3) mantissa-comparison path may differ from true log2
  // rounding by at most one count.
  Rng rng = make_rng(2);
  std::size_t mismatches = 0, total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> in(64);
    fill_gaussian(rng, in, 0.0f, 2.0f);
    const auto exact = log2_softmax_exact(in, 7);
    const auto unit = log2_softmax_unit(in, Log2SoftmaxConfig{7});
    ASSERT_EQ(exact.size(), unit.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const int diff = std::abs(static_cast<int>(exact[i]) -
                                static_cast<int>(unit[i]));
      EXPECT_LE(diff, 1) << "trial " << trial << " i " << i;
      mismatches += diff != 0;
      ++total;
    }
  }
  // The approximation is good: few elements differ even by one.
  EXPECT_LT(static_cast<double>(mismatches) / static_cast<double>(total),
            0.15);
}

TEST(Log2SoftmaxUnit, DominantScoreGetsCodeZero) {
  std::vector<float> in = {10.0f, -5.0f, -5.0f, -5.0f};
  const auto codes = log2_softmax_unit(in, Log2SoftmaxConfig{7});
  EXPECT_EQ(codes[0], 0);
  for (std::size_t i = 1; i < codes.size(); ++i) EXPECT_GT(codes[i], 10);
}

TEST(Log2SoftmaxUnit, ReconstructedWeightsNearOne) {
  // sum of 2^-code over the row stays within a factor ~2 of 1 (log2
  // quantization halves/doubles at worst per element).
  Rng rng = make_rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> in(100);
    fill_gaussian(rng, in, 0.0f, 1.5f);
    const auto codes = log2_softmax_unit(in, Log2SoftmaxConfig{7});
    std::vector<float> w(codes.size());
    attention_weights_from_codes(codes, w);
    const double sum = std::accumulate(w.begin(), w.end(), 0.0);
    EXPECT_GT(sum, 0.45) << trial;
    EXPECT_LT(sum, 2.2) << trial;
  }
}

TEST(Log2SoftmaxUnit, SingleElement) {
  std::vector<float> in = {3.0f};
  const auto codes = log2_softmax_unit(in, Log2SoftmaxConfig{7});
  EXPECT_EQ(codes[0], 0);  // softmax of singleton is 1
}

TEST(Log2SoftmaxUnit, LowBitWidthClips) {
  std::vector<float> in(4, 0.0f);
  in[0] = 40.0f;  // others get tiny probabilities
  const auto codes = log2_softmax_unit(in, Log2SoftmaxConfig{3});
  for (std::size_t i = 1; i < codes.size(); ++i) EXPECT_EQ(codes[i], 7);
}

TEST(Log2SoftmaxUnit, EightBitUnderflowWeighsZero) {
  // At 8 bits a fully underflowed score gets code 255, past fp32's normal
  // range: its weight is 0 (exp2i's field wrap once gave 2.0, and code 128
  // gave +inf).
  const std::vector<float> in = {0.0f, -200.0f};
  const auto codes = log2_softmax_unit(in, Log2SoftmaxConfig{8});
  ASSERT_EQ(codes, (std::vector<std::uint8_t>{0, 255}));
  std::vector<float> w(2);
  attention_weights_from_codes(codes, w);
  EXPECT_EQ(w, (std::vector<float>{1.0f, 0.0f}));
  log2_softmax_weights(in, Log2SoftmaxConfig{8}, w);
  EXPECT_EQ(w, (std::vector<float>{1.0f, 0.0f}));

  EXPECT_EQ(log2_code_weight(126), std::ldexp(1.0f, -126));
  for (int code = 127; code <= 255; ++code) {
    EXPECT_EQ(log2_code_weight(static_cast<std::uint8_t>(code)), 0.0f)
        << code;
  }
  Matrix v(2, 3, 1.0f);
  std::vector<float> z(3);
  shift_accumulate_attn_v(codes, v, z);
  EXPECT_EQ(z, (std::vector<float>{1.0f, 1.0f, 1.0f}));
}

TEST(Log2SoftmaxUnit, WeightsIntoSpanMatchCodesBitwise) {
  // The allocation-free form is the code path plus log2_code_weight, for
  // every width, and may write over its input.
  Rng rng = make_rng(8);
  for (int bits = 1; bits <= 8; ++bits) {
    for (const std::size_t n : {1, 7, 64, 300}) {
      std::vector<float> in(n);
      fill_gaussian(rng, in, 0.0f, 6.0f);
      if (n > 2) in[1] = -400.0f;  // fully underflowed
      std::vector<float> want(n);
      attention_weights_from_codes(
          log2_softmax_unit(in, Log2SoftmaxConfig{bits}), want);
      std::vector<float> got(n);
      log2_softmax_weights(in, Log2SoftmaxConfig{bits}, got);
      EXPECT_EQ(got, want) << "bits=" << bits << " n=" << n;
      log2_softmax_weights(in, Log2SoftmaxConfig{bits}, in);
      EXPECT_EQ(in, want) << "aliased, bits=" << bits << " n=" << n;
    }
  }
}

TEST(ShiftAccumulate, MatchesWeightedSum) {
  Rng rng = make_rng(4);
  Matrix v(16, 8);
  fill_gaussian(rng, v.flat(), 0.0f, 1.0f);
  std::vector<float> scores(16);
  fill_gaussian(rng, scores, 0.0f, 1.0f);
  const auto codes = log2_softmax_unit(scores, Log2SoftmaxConfig{7});

  std::vector<float> weights(16);
  attention_weights_from_codes(codes, weights);
  std::vector<float> expected(8), actual(8);
  reference_attn_v(weights, v, expected);
  shift_accumulate_attn_v(codes, v, actual);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(actual[c], expected[c], 1e-5f) << c;
  }
}

TEST(ShiftAccumulate, ApproximatesReferenceAttention) {
  // End-to-end: log2-quantized attention output stays close to the FP
  // attention output in relative terms.
  Rng rng = make_rng(5);
  Matrix v(64, 32);
  fill_gaussian(rng, v.flat(), 0.0f, 1.0f);
  std::vector<float> scores(64);
  fill_gaussian(rng, scores, 0.0f, 2.0f);

  std::vector<float> probs(64);
  softmax_reference(scores, probs);
  std::vector<float> ref(32), approx(32);
  reference_attn_v(probs, v, ref);
  const auto codes = log2_softmax_unit(scores, Log2SoftmaxConfig{7});
  shift_accumulate_attn_v(codes, v, approx);

  double ref_norm = 0.0, err_norm = 0.0;
  for (std::size_t c = 0; c < 32; ++c) {
    ref_norm += static_cast<double>(ref[c]) * ref[c];
    const double d = static_cast<double>(approx[c]) - ref[c];
    err_norm += d * d;
  }
  EXPECT_LT(std::sqrt(err_norm / ref_norm), 0.6);
}

TEST(ShiftAccumulate, DimensionChecks) {
  Matrix v(4, 8);
  std::vector<std::uint8_t> codes(3);
  std::vector<float> out(8);
  EXPECT_THROW(shift_accumulate_attn_v(codes, v, out),
               std::invalid_argument);
}

// Property sweep: higher code bit-widths monotonically improve the
// attention-map fidelity.
class Log2BitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(Log2BitsSweep, CodesWithinRange) {
  const int bits = GetParam();
  Rng rng = make_rng(100 + bits);
  std::vector<float> in(128);
  fill_gaussian(rng, in, 0.0f, 3.0f);
  const auto codes = log2_softmax_unit(in, Log2SoftmaxConfig{bits});
  for (const auto c : codes) EXPECT_LT(c, 1 << bits);
}

INSTANTIATE_TEST_SUITE_P(Widths, Log2BitsSweep,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace opal
