#include "accel/lane.h"

#include <gtest/gtest.h>

#include "common/bfloat16.h"
#include "common/float_bits.h"
#include "common/error_metrics.h"
#include "common/rng.h"
#include "quant/mx_opal.h"
#include "quant/mxint.h"

namespace opal {
namespace {

TEST(Lane, BlockDotMatchesDecodedReference) {
  // The lane's INT+FP split must compute exactly the dot product of the
  // decoded activation against the weight row.
  ActivationModel acts(1, 128, 0.03f);
  std::vector<float> x(128);
  acts.sample(x);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(x);
  const auto decoded = decode(qt);

  Rng rng = make_rng(2);
  std::vector<float> w_row(128);
  fill_gaussian(rng, w_row, 0.0f, 0.1f);

  const auto routed = route_block(qt.blocks[0], 0, {});
  const auto result =
      lane_block_dot(qt.blocks[0], qt.block_scale(0), 4, w_row, routed);

  // Reference: bf16-rounded outlier products + exact int-code products.
  double expected = 0.0;
  std::vector<bool> is_outlier(128, false);
  for (const auto& o : qt.blocks[0].outliers) is_outlier[o.index] = true;
  double int_part = 0.0;
  for (std::size_t i = 0; i < 128; ++i) {
    if (is_outlier[i]) {
      expected += to_bf16(decoded[i] * w_row[i]);
    } else {
      int_part += static_cast<double>(qt.blocks[0].codes[i]) * w_row[i];
    }
  }
  expected += static_cast<float>(int_part) *
              exp2i(qt.block_scale(0) - 2);

  EXPECT_NEAR(result.value, expected, 1e-4);
  EXPECT_EQ(result.int_products, 124u);
  EXPECT_EQ(result.fp_products, 4u);
}

TEST(Lane, ApproximatesUnquantizedDot) {
  ActivationModel acts(3, 128, 0.03f);
  std::vector<float> x(128);
  acts.sample(x);
  MxOpalQuantizer quant(128, 7, 4);
  const auto qt = quant.encode(x);

  Rng rng = make_rng(4);
  std::vector<float> w_row(128);
  fill_gaussian(rng, w_row, 0.0f, 0.1f);

  const auto routed = route_block(qt.blocks[0], 0, {});
  const auto result =
      lane_block_dot(qt.blocks[0], qt.block_scale(0), 7, w_row, routed);
  double acc = 0.0;
  for (std::size_t i = 0; i < 128; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(w_row[i]);
  }
  const float reference = static_cast<float>(acc);
  // 7-bit quantization keeps the dot product within a few percent of the
  // activation magnitude scale.
  EXPECT_NEAR(result.value, reference,
              0.05f * std::abs(reference) + 0.05f);
}

TEST(Lane, CyclesFollowModeThroughput) {
  const CoreConfig cfg;
  // One 128-block on one lane: 128 products / (32 MUs * throughput).
  EXPECT_EQ(lane_cycles(1, 128, MuMode::kHighHigh, cfg), 4u);
  EXPECT_EQ(lane_cycles(1, 128, MuMode::kLowHigh, cfg), 2u);
  EXPECT_EQ(lane_cycles(1, 128, MuMode::kLowLow, cfg), 1u);
  EXPECT_EQ(lane_cycles(3, 128, MuMode::kHighHigh, cfg), 12u);
}

TEST(Lane, SizeMismatchThrows) {
  QuantizedBlock block;
  block.codes.resize(8, 0);
  std::vector<float> w_row(4);
  EXPECT_THROW(
      static_cast<void>(lane_block_dot(block, 0, 4, w_row, RoutedBlock{})),
      std::invalid_argument);
}

}  // namespace
}  // namespace opal
