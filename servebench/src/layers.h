// Per-layer metrics of the traced invocation. Each is read from the
// engine's exported surfaces (the step trace and raw trace events, the
// kernel/layer profile, stats()) or timed around public calls from here;
// README.md maps each to the end-to-end metric it should move.
#pragma once

#include <vector>

#include "accel/replay.h"
#include "report.h"
#include "serve.h"
#include "workloads.h"

namespace servebench {

struct LayerInputs {
  const Workload* workload = nullptr;
  const ModelStack* stack = nullptr;
  const std::vector<Run>* timed = nullptr;  // untraced runs (rounds)
  const Run* traced = nullptr;
  const Run* profiled = nullptr;
  const opal::ReplayReport* opal_replay = nullptr;
  double replay_host_ms = 0.0;  // CPU time of the OPAL replay_trace call
  double trace_overhead = 0.0;  // traced over untraced step time per row, - 1
  double host_probe_ms = 0.0;
};

[[nodiscard]] std::vector<Metric> per_layer_metrics(const LayerInputs& in);

}  // namespace servebench
