#include "roofline/gpu_roofline.h"

#include <algorithm>

namespace opal {

GemvShape mlp0_shape(const ModelConfig& model) {
  return {model.name + " mlp.0", model.d_ffn, model.d_model};
}

namespace {

struct KernelParams {
  double weight_bytes_per_elem;
  double act_bytes_per_elem;
  double peak_ops;      // ops/s
  double bw_derate;     // fraction of peak HBM bandwidth achieved
};

KernelParams params_for(const GpuModel& gpu, GemmKind kind) {
  switch (kind) {
    case GemmKind::kW16A16_hgemm:
      return {2.0, 2.0, gpu.fp16_peak_tflops * 1e12, 1.0};
    case GemmKind::kW4A16_hgemm:
      return {0.5, 2.0, gpu.fp16_peak_tflops * 1e12,
              gpu.w4_dequant_bw_derate};
    case GemmKind::kW4A8_igemm:
      return {0.5, 1.0, gpu.int8_peak_tops * 1e12, 1.0};
  }
  return {2.0, 2.0, gpu.fp16_peak_tflops * 1e12, 1.0};
}

}  // namespace

double gemv_latency_us(const GpuModel& gpu, const GemvShape& shape,
                       GemmKind kind) {
  const auto p = params_for(gpu, kind);
  const double elems =
      static_cast<double>(shape.rows) * static_cast<double>(shape.cols);
  const double bytes = elems * p.weight_bytes_per_elem +
                       static_cast<double>(shape.cols + shape.rows) *
                           p.act_bytes_per_elem;
  const double flops = 2.0 * elems;
  const double mem_s =
      bytes / (gpu.hbm_bandwidth_gbps * 1e9 * p.bw_derate);
  const double compute_s = flops / p.peak_ops;
  return (std::max(mem_s, compute_s)) * 1e6 + gpu.kernel_overhead_us;
}

Fig1Row fig1_row(const GpuModel& gpu, const ModelConfig& model) {
  const auto shape = mlp0_shape(model);
  Fig1Row row;
  row.model = model.name;
  row.w16a16_us = gemv_latency_us(gpu, shape, GemmKind::kW16A16_hgemm);
  row.w4a16_us = gemv_latency_us(gpu, shape, GemmKind::kW4A16_hgemm);
  row.w4a8_us = gemv_latency_us(gpu, shape, GemmKind::kW4A8_igemm);
  return row;
}

}  // namespace opal
