// Serving the benchmark's workloads through opal::ServingEngine, with
// every timestamp taken in the benchmark's own code: around step() and in
// its own token observer. Nothing here adds instrumentation to the engine;
// traced and profiled runs use the engine's own switches.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "accel/replay.h"
#include "common/kernel_profiler.h"
#include "common/trace.h"
#include "llm/serving_engine.h"
#include "llm/synthetic.h"
#include "workloads.h"

namespace servebench {

/// The model every workload serves: the Llama2-7B shape scaled to
/// d_model 128, 4 layers and vocab 512, with OWQ W4 weights, MX-OPAL A4/7
/// activations (4 outliers per 128-element block) and the log2 softmax
/// unit, KV in `kv_mode`.
struct ModelStack {
  std::unique_ptr<opal::SyntheticModel> model;  // outlives `prepared`
  std::shared_ptr<const opal::PreparedModel> prepared;
};

[[nodiscard]] ModelStack build_model(opal::KvQuantMode kv_mode);

/// The workload's engine, with the prefix cache (when on) warmed from the
/// workload's warm prompts.
[[nodiscard]] std::unique_ptr<opal::ServingEngine> make_engine(
    const ModelStack& stack, const Workload& w, bool trace, bool profile);

/// The workload's requests in a fixed order: arrivals for an open loop;
/// for a closed loop round by round, each round client by client.
[[nodiscard]] std::vector<const opal::Request*> request_table(
    const Workload& w);

struct ServedRequest {
  std::size_t source = 0;  // index into request_table()
  double due_s = 0.0;      // seconds since the run started
  double submit_s = 0.0;
  std::vector<double> token_s;  // one timestamp per generated token
  opal::RequestResult result;
};

struct Run {
  std::vector<ServedRequest> requests;  // in submit order
  double span_s = 0.0;                  // run start to the last token
  std::vector<double> step_ms;          // one per step() call
  std::size_t rows = 0;                 // rows executed (Stats delta)
  std::size_t prompt_tokens = 0;
  std::size_t generated = 0;
  opal::ServingEngine::Stats stats;     // engine totals after the run
  /// Open loops only: host probes taken while the engine was idle (no
  /// request in flight), left out of every timestamp.
  std::vector<double> probe_ms;
  // Traced runs only.
  opal::StepTrace trace;
  std::vector<opal::TraceEvent> events;
  // Profiled runs only.
  opal::KernelProfile profile;
};

/// Serves the first `count` arrivals of an open loop's schedule, each
/// submitted when due. Runs the host probe when the engine falls idle, at
/// most once per 0.1 s of serving.
[[nodiscard]] Run serve_arrivals(opal::ServingEngine& engine,
                                 const Workload& w, std::size_t count);

/// Serves round `round` of a closed loop to completion.
[[nodiscard]] Run serve_round(opal::ServingEngine& engine, const Workload& w,
                              std::size_t round);

/// Re-serves every request of the table alone (batch 1, no prefix cache,
/// no speculation, same sampling seed) on `threads` engines in parallel.
[[nodiscard]] std::vector<opal::RequestResult> serve_alone(
    const ModelStack& stack, const Workload& w, std::size_t threads);

}  // namespace servebench
