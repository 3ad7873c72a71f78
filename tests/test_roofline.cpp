#include "roofline/gpu_roofline.h"

#include <gtest/gtest.h>

namespace opal {
namespace {

TEST(Roofline, Mlp0Shapes) {
  const auto shape = mlp0_shape(llama2_7b());
  EXPECT_EQ(shape.rows, 11008u);
  EXPECT_EQ(shape.cols, 4096u);
}

TEST(Roofline, GemvIsMemoryBound) {
  // Single-batch GEMV arithmetic intensity (~1 flop/byte at FP16) sits far
  // below the A100 ridge point (~200 flops/byte), so its latency is the
  // HBM leg: every fp16 weight and activation byte over the bandwidth.
  const GpuModel gpu;
  const auto shape = mlp0_shape(llama2_70b());
  const double rows = static_cast<double>(shape.rows);
  const double cols = static_cast<double>(shape.cols);
  const double bytes = 2.0 * rows * cols + 2.0 * (rows + cols);
  EXPECT_LT(2.0 * rows * cols / bytes, 2.0);
  EXPECT_DOUBLE_EQ(
      gemv_latency_us(gpu, shape, GemmKind::kW16A16_hgemm),
      bytes / (gpu.hbm_bandwidth_gbps * 1e9) * 1e6 + gpu.kernel_overhead_us);
  const double ridge =
      gpu.fp16_peak_tflops * 1e12 / (gpu.hbm_bandwidth_gbps * 1e9);
  EXPECT_GT(ridge, 100.0);
}

TEST(Roofline, LatencyDecreasesWithQuantization) {
  const GpuModel gpu;
  for (const auto& model : {llama2_7b(), llama2_13b(), llama2_70b()}) {
    const auto row = fig1_row(gpu, model);
    EXPECT_GT(row.w16a16_us, row.w4a16_us) << model.name;
    EXPECT_GT(row.w4a16_us, row.w4a8_us) << model.name;
  }
}

TEST(Roofline, SpeedupsInPaperRange) {
  // Fig 1: W4A16 hGEMM gives ~1.5x (13B) and ~2.0x (70B); W4A8 iGEMM gives
  // 2.0~4.0x across sizes.
  const GpuModel gpu;
  const auto r13 = fig1_row(gpu, llama2_13b());
  EXPECT_GT(r13.speedup_w4a16(), 1.2);
  EXPECT_LT(r13.speedup_w4a16(), 2.2);
  const auto r70 = fig1_row(gpu, llama2_70b());
  EXPECT_GT(r70.speedup_w4a16(), 1.5);
  EXPECT_LT(r70.speedup_w4a16(), 2.6);
  for (const auto& model : {llama2_7b(), llama2_13b(), llama2_70b()}) {
    const auto row = fig1_row(gpu, model);
    EXPECT_GT(row.speedup_w4a8(), 1.8) << model.name;
    EXPECT_LT(row.speedup_w4a8(), 4.6) << model.name;
  }
}

TEST(Roofline, BiggerModelsBiggerSpeedups) {
  // Overhead amortizes with size, so the 70B model gains the most from
  // quantization (the Fig 1 trend).
  const GpuModel gpu;
  const auto r7 = fig1_row(gpu, llama2_7b());
  const auto r70 = fig1_row(gpu, llama2_70b());
  EXPECT_GT(r70.speedup_w4a8(), r7.speedup_w4a8());
}

TEST(Roofline, OverheadDominatesTinyKernels) {
  const GpuModel gpu;
  const GemvShape tiny{"tiny", 64, 64};
  const double t = gemv_latency_us(gpu, tiny, GemmKind::kW16A16_hgemm);
  EXPECT_NEAR(t, gpu.kernel_overhead_us, 1.0);
}

}  // namespace
}  // namespace opal
