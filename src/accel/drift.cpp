#include "accel/drift.h"

#include <algorithm>

#include "accel/workload.h"

namespace opal {

namespace {

// Nearest-rank percentile over an ascending-sorted vector (deterministic —
// no interpolation, so the result is always an observed ratio).
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;                          // 1-based rank -> 0-based
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

DriftReport audit_drift(const DeviceConfig& device, const StepTrace& trace) {
  const ModelConfig model = trace.model();
  DeviceConfig dev = device;
  dev.kv_block_size = trace.info.kv_block_size;

  DriftReport report;
  report.device = dev.name;
  std::vector<double> ratios;
  ratios.reserve(trace.steps.size());

  for (const TraceStep& ts : trace.steps) {
    // The same composition replay_trace costs.
    const StepComposition comp = ts.composition();
    if (comp.total_rows() == 0 || ts.dur_us == 0) {
      ++report.skipped_steps;
      continue;
    }
    const StepReport sr = simulate_step(dev, model, comp);
    DriftStepRecord rec;
    rec.step = ts.step;
    rec.rows = comp.total_rows();
    rec.measured_s = static_cast<double>(ts.dur_us) * 1e-6;
    rec.predicted_s = sr.totals.latency_s;
    rec.predicted_dram_bytes = sr.dram_bytes;
    rec.ratio = rec.measured_s / rec.predicted_s;
    rec.dram_bound = sr.dram_bound;
    report.measured_s += rec.measured_s;
    report.predicted_s += rec.predicted_s;
    report.predicted_dram_bytes += rec.predicted_dram_bytes;
    if (rec.dram_bound) {
      ++report.dram_bound_steps;
    } else {
      ++report.compute_bound_steps;
    }
    ratios.push_back(rec.ratio);
    report.steps.push_back(rec);
    ++report.n_steps;
  }

  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    report.ratio_min = ratios.front();
    report.ratio_max = ratios.back();
    report.ratio_p50 = nearest_rank(ratios, 0.50);
    report.ratio_p95 = nearest_rank(ratios, 0.95);
    report.ratio_p99 = nearest_rank(ratios, 0.99);
  }
  return report;
}

}  // namespace opal
