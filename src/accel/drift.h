// Predicted-vs-measured roofline drift auditor: joins each traced serving
// step's MEASURED host wall time (the kStep record's dur_us) with the
// accelerator model's PREDICTED latency and DRAM traffic for the exact same
// schedule (simulate_step on the step's composition), and reports how far
// apart they are — per step and per run.
//
// This is the calibration signal that keeps the device model honest: a
// drifting ratio means the roofline's compute or memory legs no longer
// describe the host the trace was captured on, and any budget derived from
// predicted latency (ROADMAP open items 4/5) inherits that error.
//
// Semantics:
//   * ratio = measured_s / predicted_s per audited step; run_ratio() is the
//     same quotient over the run totals (robust to per-step clock
//     granularity). Ratios are unitless: >1 means the host is slower than
//     the model predicts, <1 faster. The absolute value is only meaningful
//     for a device model parameterized like the measurement host — for the
//     paper's accelerator presets the *stability* of the ratio across steps
//     and runs is the signal, not its magnitude.
//   * Steps that fed no rows or carry no measured duration (dur_us == 0 —
//     sub-microsecond tiny-model steps, or a trace produced without
//     dur_us) are skipped and counted in skipped_steps, never folded into
//     percentiles as zeros.
//   * Classification: a step is memory-bound when simulate_step's roofline
//     says its DRAM leg dominates (StepReport::dram_bound), else
//     compute-bound — the prediction-side view, independent of measurement.
//   * Determinism: auditing the same StepTrace on the same DeviceConfig is
//     bitwise reproducible (and a trace lifted from a Tracer audits
//     identically to the same trace round-tripped through step-trace JSON,
//     since both carry the same dur_us — asserted in tests).
//
// Like every other observability surface, the auditor only OBSERVES: it
// consumes a finished trace and never feeds anything back into serving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/device.h"
#include "accel/replay.h"

namespace opal {

/// One audited step: measurement, prediction, and their quotient.
struct DriftStepRecord {
  std::uint64_t step = 0;
  std::size_t rows = 0;
  double measured_s = 0.0;   // host wall time, from the trace
  double predicted_s = 0.0;  // device-model latency for the same schedule
  double predicted_dram_bytes = 0.0;
  double ratio = 0.0;  // measured_s / predicted_s
  bool dram_bound = false;  // prediction-side roofline classification
};

/// Whole-run drift audit for one device.
struct DriftReport {
  std::string device;
  std::size_t n_steps = 0;        // steps audited
  std::size_t skipped_steps = 0;  // no rows fed or no measured duration
  double measured_s = 0.0;        // sum over audited steps
  double predicted_s = 0.0;
  double predicted_dram_bytes = 0.0;
  std::size_t compute_bound_steps = 0;
  std::size_t dram_bound_steps = 0;
  /// Per-step ratio percentiles (nearest-rank over the sorted ratios; all
  /// 0 when no step was audited).
  double ratio_p50 = 0.0;
  double ratio_p95 = 0.0;
  double ratio_p99 = 0.0;
  double ratio_min = 0.0;
  double ratio_max = 0.0;
  std::vector<DriftStepRecord> steps;

  /// Run-level drift: total measured over total predicted time.
  [[nodiscard]] double run_ratio() const {
    return predicted_s == 0.0 ? 0.0 : measured_s / predicted_s;
  }
};

/// Audits `trace` against `device`. Prediction costs each step's
/// TraceStep::composition(), as replay_trace does (prefix hits feed no
/// rows); the
/// trace's KV block size overrides the device's, like replay. Throws
/// std::invalid_argument when the trace is not self-describing.
[[nodiscard]] DriftReport audit_drift(const DeviceConfig& device,
                                      const StepTrace& trace);

}  // namespace opal
