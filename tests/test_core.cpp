#include "accel/core.h"

#include <gtest/gtest.h>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "owq/owq.h"
#include "quant/mx_opal.h"
#include "quant/mxint.h"

namespace opal {
namespace {

OpalCore default_core() { return OpalCore(CoreConfig{}, TechParams{}); }

TEST(Core, FunctionalMxvMatchesDequantReference) {
  // The core's output must equal the plain matvec over the decoded
  // activation and the given weights, to float tolerance.
  ActivationModel acts(1, 256, 0.02f);
  std::vector<float> x(256);
  acts.sample(x);
  MxOpalQuantizer quant(128, 7, 4);
  const auto qt = quant.encode(x);
  const auto decoded = decode(qt);

  Rng rng = make_rng(3);
  const Matrix w = make_weight_matrix(rng, 32, 256);
  std::vector<float> out(32), expected(32);
  const auto core = default_core();
  core.run_mxv(qt, w, {}, 4, out);
  matvec(w, decoded, expected);
  // The core's FP units round each outlier product to bf16 (2^-8 relative)
  // before accumulation; the reference keeps full float products. With
  // outliers up to ~64 x weights ~0.3, the budget is ~8 products * bf16 ulp.
  for (std::size_t r = 0; r < 32; ++r) {
    EXPECT_NEAR(out[r], expected[r], 0.08f + 1e-2f * std::abs(expected[r]))
        << r;
  }
}

TEST(Core, MxvStatsCountAllProducts) {
  ActivationModel acts(2, 128, 0.02f);
  std::vector<float> x(128);
  acts.sample(x);
  MxOpalQuantizer quant(128, 4, 4);
  const auto qt = quant.encode(x);
  Rng rng = make_rng(5);
  const Matrix w = make_weight_matrix(rng, 16, 128);
  std::vector<float> out(16);
  const auto core = default_core();
  const auto stats = core.run_mxv(qt, w, {}, 4, out);
  EXPECT_EQ(stats.int_macs + stats.fp_macs, 16u * 128u);
  EXPECT_EQ(stats.fp_macs, 16u * 4u);  // 4 outliers per block
  EXPECT_EQ(stats.mode, MuMode::kLowLow);
  EXPECT_GT(stats.energy.total(), 0.0);
}

TEST(Core, ModeSelection) {
  const auto core = default_core();
  EXPECT_EQ(core.mode_for_op(4, 4), MuMode::kLowLow);
  EXPECT_EQ(core.mode_for_op(4, 7), MuMode::kLowHigh);
  EXPECT_EQ(core.mode_for_op(7, 7), MuMode::kHighHigh);
}

TEST(Core, CostOnlyMxvThroughput) {
  const auto core = default_core();
  // 4096x4096 low-low: 16.7M MACs at 1024/cycle (minus outlier share on
  // the FP path).
  const auto stats = core.mxv_cost(4096, 4096, 4, 4, 4.0 / 128, 0.0025);
  const double total = 4096.0 * 4096.0;
  EXPECT_NEAR(static_cast<double>(stats.int_macs + stats.fp_macs), total,
              1.0);
  const auto expected_cycles =
      (stats.int_macs + 1023) / 1024;  // INT path dominates
  EXPECT_NEAR(static_cast<double>(stats.cycles),
              static_cast<double>(expected_cycles),
              static_cast<double>(expected_cycles) * 0.25);
}

TEST(Core, LowLowFourTimesFasterThanHighHigh) {
  const auto core = default_core();
  const auto ll = core.mxv_cost(1024, 1024, 4, 4, 0.0, 0.0);
  const auto hh = core.mxv_cost(1024, 1024, 7, 7, 0.0, 0.0);
  EXPECT_NEAR(static_cast<double>(hh.cycles) / ll.cycles, 4.0, 0.05);
}

TEST(Core, OutlierFractionShiftsWorkToFpUnits) {
  const auto core = default_core();
  const auto few = core.mxv_cost(512, 512, 4, 7, 0.01, 0.0);
  const auto many = core.mxv_cost(512, 512, 4, 7, 0.2, 0.0);
  EXPECT_GT(many.fp_macs, few.fp_macs);
  EXPECT_LT(many.int_macs, few.int_macs);
  // At 20% outliers the 32 FP units become the bottleneck.
  EXPECT_GT(many.cycles, few.cycles);
}

TEST(Core, SoftmaxCostScalesWithLength) {
  const auto core = default_core();
  const auto short_sm = core.softmax_cost(128);
  const auto long_sm = core.softmax_cost(2048);
  EXPECT_GT(long_sm.cycles, short_sm.cycles * 8);
  EXPECT_GT(long_sm.energy.softmax, short_sm.energy.softmax);
  EXPECT_EQ(long_sm.energy.int_mac, 0.0);
}

TEST(Core, QuantizeCostScalesWithLength) {
  const auto core = default_core();
  const auto q = core.quantize_cost(4096);
  EXPECT_GE(q.cycles, 4096u / 8);
  EXPECT_GT(q.energy.quantizer, 0.0);
}

TEST(Core, EnergyBreakdownTotalSumsComponents) {
  EnergyBreakdown a;
  a.int_mac = 4.0;
  a.softmax = 2.0;
  a.distributor = 1.0;
  EXPECT_DOUBLE_EQ(a.total(), 4.0 + 2.0 + 1.0);
}

TEST(Core, OpStatsIntFraction) {
  OpStats a;
  EXPECT_EQ(a.int_fraction(), 1.0);  // no MACs
  a.int_macs = 100;
  a.fp_macs = 7;
  EXPECT_NEAR(a.int_fraction(), 100.0 / 107.0, 1e-12);
}

TEST(Core, DimChecksThrow) {
  const auto core = default_core();
  QuantizedTensor qt;
  qt.count = 10;
  Matrix w(4, 8);
  std::vector<float> out(4);
  EXPECT_THROW(core.run_mxv(qt, w, {}, 4, out), std::invalid_argument);
}

}  // namespace
}  // namespace opal
