// Analytical GPU roofline — the Fig 1 substitute for CUTLASS-on-A100
// (DESIGN.md §2).
//
// Single-batch generation runs GEMVs whose latency is
// max(bytes / effective_bandwidth, flops / peak) + launch overhead. Weight
// quantization moves the kernel along the memory axis (4x fewer bytes at
// INT4); activation quantization to INT8 unlocks the INT8 tensor-core roof
// and removes the in-kernel dequantization penalty that W4A16 kernels pay.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "llm/model_config.h"

namespace opal {

/// A100-class device parameters.
struct GpuModel {
  double fp16_peak_tflops = 312.0;
  double int8_peak_tops = 624.0;
  double hbm_bandwidth_gbps = 1555.0;
  double kernel_overhead_us = 18.0;
  /// Effective-bandwidth derating of W-INT4 hGEMM kernels: the in-kernel
  /// dequantization keeps the memory pipeline under-utilized.
  double w4_dequant_bw_derate = 0.55;
};

enum class GemmKind : std::uint8_t {
  kW16A16_hgemm,  // FP16 weights and activations on FP16 units
  kW4A16_hgemm,   // INT4 weights dequantized in-kernel, FP16 units
  kW4A8_igemm,    // INT4 weights, INT8 activations, INT8 units
};

struct GemvShape {
  std::string name;
  std::size_t rows = 0;  // output features
  std::size_t cols = 0;  // input features
};

/// The `mlp.0` (fc1) shape of a model — Fig 1's workload.
[[nodiscard]] GemvShape mlp0_shape(const ModelConfig& model);

/// Latency in microseconds of one single-batch GEMV.
[[nodiscard]] double gemv_latency_us(const GpuModel& gpu,
                                     const GemvShape& shape, GemmKind kind);

/// One Fig 1 bar group: latency of the three kernels plus speedups over
/// the FP16 baseline.
struct Fig1Row {
  std::string model;
  double w16a16_us = 0.0;
  double w4a16_us = 0.0;
  double w4a8_us = 0.0;

  [[nodiscard]] double speedup_w4a16() const { return w16a16_us / w4a16_us; }
  [[nodiscard]] double speedup_w4a8() const { return w16a16_us / w4a8_us; }
};

[[nodiscard]] Fig1Row fig1_row(const GpuModel& gpu, const ModelConfig& model);

}  // namespace opal
