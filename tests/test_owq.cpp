#include "owq/owq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "calibration_reference.h"
#include "common/bfloat16.h"
#include "common/error_metrics.h"
#include "common/rng.h"
#include "owq/calibration.h"

namespace opal {
namespace {

TEST(Calibration, HessianDiagIsSumOfSquares) {
  CalibrationStats stats(3);
  stats.accumulate(std::vector<float>{1.0f, 2.0f, -3.0f});
  stats.accumulate(std::vector<float>{0.0f, 2.0f, 1.0f});
  const auto diag = stats.hessian_diag();
  EXPECT_DOUBLE_EQ(diag[0], 1.0);
  EXPECT_DOUBLE_EQ(diag[1], 8.0);
  EXPECT_DOUBLE_EQ(diag[2], 10.0);
  EXPECT_EQ(stats.tokens_seen(), 2u);
}

TEST(Calibration, RankingDescending) {
  CalibrationStats stats(4);
  stats.accumulate(std::vector<float>{1.0f, 3.0f, 2.0f, 0.5f});
  const auto ranked = calibration_reference::ranked_channels(stats);
  EXPECT_EQ(ranked, (std::vector<std::size_t>{1, 2, 0, 3}));
}

TEST(Calibration, TopChannelsSortedByIndex) {
  CalibrationStats stats(4);
  stats.accumulate(std::vector<float>{1.0f, 3.0f, 2.0f, 0.5f});
  EXPECT_EQ(calibration_reference::top_channels(stats, 2),
            (std::vector<std::size_t>{1, 2}));
}

TEST(Calibration, DimMismatchThrows) {
  CalibrationStats stats(4);
  EXPECT_THROW(stats.accumulate(std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(GroupSymmetric, MaxMagnitudeRepresentable) {
  std::vector<float> in = {0.1f, -2.0f, 1.0f, 0.5f};
  std::vector<float> out(in.size());
  quantize_group_symmetric(in, out, 4);
  // max|w| = 2.0 maps to code 7 with bf16 scale; error <= scale/2.
  const float scale = to_bf16(2.0f / 7.0f);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_LE(std::abs(out[i] - in[i]), scale / 2 + 1e-6f) << i;
  }
}

TEST(GroupSymmetric, ZeroGroup) {
  std::vector<float> in(8, 0.0f), out(8, 1.0f);
  quantize_group_symmetric(in, out, 4);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Owq, SelectsSensitiveColumns) {
  Rng rng = make_rng(1);
  Matrix w = make_weight_matrix(rng, 64, 400);
  std::vector<double> sens(400, 1.0);
  sens[17] = 1000.0;  // one hot channel
  const auto result = owq_quantize(w, sens, OwqConfig{4, 0.0025, 64});
  // ceil(0.0025 * 400) = 1 column, and it must be #17.
  ASSERT_EQ(result.fp_columns.size(), 1u);
  EXPECT_EQ(result.fp_columns[0], 17u);
  EXPECT_TRUE(result.is_fp_column(17));
  EXPECT_FALSE(result.is_fp_column(16));
}

TEST(Owq, FpColumnsKeptAtBf16Precision) {
  Rng rng = make_rng(2);
  Matrix w = make_weight_matrix(rng, 32, 100);
  std::vector<double> sens(100, 1.0);
  sens[3] = 100.0;
  const auto result = owq_quantize(w, sens, OwqConfig{4, 0.01, 32});
  for (std::size_t r = 0; r < w.rows(); ++r) {
    EXPECT_EQ(result.dequantized(r, 3), to_bf16(w(r, 3)));
  }
}

TEST(Owq, QuantizedColumnsBounded) {
  Rng rng = make_rng(3);
  Matrix w = make_weight_matrix(rng, 128, 64);
  // Without clip optimization the group max is exactly representable and
  // every weight is within half a step.
  const auto result =
      owq_quantize_weight_only(w, OwqConfig{4, 0.0, 128, false});
  // Per-group max error <= scale/2 with scale = max|w|/7 per group.
  for (std::size_t c = 0; c < w.cols(); ++c) {
    float max_abs = 0.0f;
    for (std::size_t r = 0; r < w.rows(); ++r) {
      max_abs = std::max(max_abs, std::abs(w(r, c)));
    }
    const float scale = to_bf16(max_abs / 7.0f);
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(result.dequantized(r, c) - w(r, c)),
                scale / 2 + 1e-6f);
    }
  }
}

TEST(Owq, CalibrationBeatsWeightEnergyWhenActivationsHaveOutliers) {
  // Weights quantized with activation-aware column selection give lower
  // *output* error for activation streams with outlier channels.
  Rng rng = make_rng(4);
  const std::size_t rows = 48, cols = 256;
  Matrix w = make_weight_matrix(rng, rows, cols);
  ActivationModel acts(5, cols, 0.02f);

  std::vector<double> sens(cols, 0.0);
  std::vector<float> x(cols);
  Matrix calib = acts.sample_matrix(64);
  for (std::size_t t = 0; t < calib.rows(); ++t) {
    for (std::size_t c = 0; c < cols; ++c) {
      sens[c] += static_cast<double>(calib(t, c)) * calib(t, c);
    }
  }

  const OwqConfig cfg{3, 0.02, 48};
  const auto aware = owq_quantize(w, sens, cfg);
  const auto blind = owq_quantize_weight_only(w, cfg);

  double err_aware = 0.0, err_blind = 0.0;
  std::vector<float> y_ref(rows), y_test(rows);
  for (int t = 0; t < 32; ++t) {
    acts.sample(x);
    matvec(w, x, y_ref);
    matvec(aware.dequantized, x, y_test);
    err_aware += mse(y_ref, y_test);
    matvec(blind.dequantized, x, y_test);
    err_blind += mse(y_ref, y_test);
  }
  EXPECT_LT(err_aware, err_blind);
}

TEST(Owq, StorageAccounting) {
  Rng rng = make_rng(6);
  Matrix w = make_weight_matrix(rng, 128, 100);
  std::vector<double> sens(100, 1.0);
  sens[0] = 10.0;
  const OwqConfig cfg{4, 0.01, 128};
  const auto result = owq_quantize(w, sens, cfg);
  // 1 fp column * 128 * 16 + 99 columns * (128*4 + 16 scale).
  EXPECT_EQ(result.storage_bits, 1u * 128 * 16 + 99u * (128 * 4 + 16));
  EXPECT_NEAR(result.fp_fraction(100), 0.01, 1e-9);
}

TEST(Owq, W3KeepsMoreColumnsThanW4) {
  // Paper: 0.25% at W4, 0.33% at W3.
  Rng rng = make_rng(7);
  Matrix w = make_weight_matrix(rng, 16, 3000);
  const auto w4 = owq_quantize_weight_only(w, OwqConfig::w4());
  const auto w3 = owq_quantize_weight_only(w, OwqConfig::w3());
  EXPECT_GT(w3.fp_columns.size(), w4.fp_columns.size());
  EXPECT_NEAR(w4.fp_fraction(3000), 0.0025, 0.001);
  EXPECT_NEAR(w3.fp_fraction(3000), 0.0033, 0.001);
}

TEST(Owq, MoreBitsLowerError) {
  Rng rng = make_rng(8);
  Matrix w = make_weight_matrix(rng, 64, 64);
  const auto q3 = owq_quantize_weight_only(w, OwqConfig{3, 0.0, 64});
  const auto q4 = owq_quantize_weight_only(w, OwqConfig{4, 0.0, 64});
  EXPECT_LT(mse(w.flat(), q4.dequantized.flat()),
            mse(w.flat(), q3.dequantized.flat()));
}

TEST(Owq, RejectsBadConfig) {
  Matrix w(4, 4);
  std::vector<double> sens(4, 1.0);
  EXPECT_THROW(owq_quantize(w, sens, OwqConfig{1, 0.0, 4}),
               std::invalid_argument);
  EXPECT_THROW(owq_quantize(w, sens, OwqConfig{4, 0.0, 0}),
               std::invalid_argument);
  EXPECT_THROW(owq_quantize(w, std::vector<double>(3, 1.0), OwqConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace opal
