// Hardware-in-the-loop trace replay: feeds a serving step trace
// (common/trace.h, opal.step_trace/v4) back through the accelerator device
// model (accel/device.h) to attribute energy, device latency, and DRAM
// traffic per step, per request, and per run — for any device family, from
// a single serving run.
//
// Replay contract:
//   * Replay OBSERVES the trace; it never re-runs the model. The trace
//     fixes every scheduling decision — which sequences fed which step, at
//     which KV depth, with how many rows — and replay only re-costs those
//     decisions on a device model. Scheduling in the replayer would be a
//     bug: the point is attributing the run that actually happened.
//   * Replay is deterministic: the same StepTrace replayed twice on the
//     same DeviceConfig yields bitwise-identical ReplayReports (and JSON).
//     Wall-clock fields of the trace (dur_us) are deliberately ignored —
//     replayed latency is DEVICE-model latency, not host latency.
//   * Conservation: rows_fed equals the sum of trace pass rows, which
//     equals the producing engine's Stats row accounting;
//     kv_bytes_written sums the engine-side KV bytes recorded in the
//     trace. dram_bytes is the DEVICE-side traffic (weights + KV streams)
//     and is the replay's own output, not a trace echo.
//   * A trace with dropped_steps > 0 is incomplete; replay still runs (on
//     the surviving steps) and copies the counter into the report so
//     consumers can refuse partial attributions.
//
// Sources: step_trace_from_tracer() lifts the trace straight out of an
// in-process Tracer — the one place events are grouped into steps;
// StepTrace::to_json() writes it as an opal.step_trace/v4 JSON file and
// parse_step_trace() reads one back (via common/json.h). The file is
// self-describing — the header carries the model dims and KV layout, so it
// replays without the producing process. parse_step_trace(t.to_json())
// equals t, hence yields the same report.
//
// Step-trace schema (opal.step_trace/v4) — what StepTrace::to_json emits:
//
//   field                       meaning
//   schema                      "opal.step_trace/v4"
//   model.{n_layers,d_model,    ModelConfig dims of the producing engine
//          n_heads,d_ffn,vocab} (all 0 when no StepTraceInfo was set)
//   kv.{mode,block_size,        serving KV layout: kv_mode name, positions
//       bits_per_entry,         per block (> 0), stored bits per KV entry,
//       max_seq_len}            KV positions one sequence can hold
//   dropped_steps               kStep records overwritten in the ring —
//                               nonzero means the trace is INCOMPLETE
//   truncated_events            total events overwritten in the ring
//   steps[]                     one record per surviving kStep event:
//     step / dur_us             engine step counter, wall duration
//     batch / rows              sequences decoded, total rows fed
//     blocks_in_use/blocks_free pool occupancy after the step
//     seqs[]                    the step's per-sequence events, in emission
//                               order:
//       request / kind          RequestId; chunk | decode | spec_burst |
//                               prefix_hit (the kind rule: common/trace.h)
//       pos                     start position (KV length before the pass);
//                               0 for prefix_hit
//       rows                    rows fed this pass; for prefix_hit, the
//                               positions restored from the cache (decodes
//                               SKIPPED, not executed); pos + rows is at
//                               most kv.max_seq_len
//       kv_bytes                KV bytes written by the pass (0: prefix_hit)
//       dur_us                  model-pass wall duration (0: prefix_hit)
//       generated               tokens the pass generated (every kind but
//                               prefix_hit): at most 1 for chunk / decode,
//                               in [1, rows] for spec_burst (the rows
//                               that survived verify)
//
// Attribution (mirrors simulate_step):
//   * per-sequence attention ops: fully to the owning request;
//   * batch-shared weight/quantize work: by fed-rows share;
//   * buffer leakage: by latency share;
//   * energy SAVED by a prefix-cache hit: the hypothetical cost of
//     prefilling the restored rows as one chunk from position 0;
//   * energy saved by speculation: the cost of a burst's generated tokens
//     as separate single-decode steps minus the verify burst's attributed
//     cost (negative when rejected rows outweigh the batching win);
//   * energy per token: energy over tokens_generated, the sum of the
//     passes' generated counts, which equals the engine's generated tokens
//     under any schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "accel/device.h"
#include "common/trace.h"
#include "llm/model_config.h"

namespace opal {

/// One model pass (or prefix-cache restore) of one step, as recorded.
struct TracePass {
  std::uint64_t request = 0;
  /// kChunk | kDecode | kSpecBurst | kPrefixHit.
  TraceEventKind kind = TraceEventKind::kDecode;
  std::size_t pos = 0;       // KV length before the pass (0 for prefix_hit)
  std::size_t rows = 0;      // rows fed; prefix_hit: positions restored
  std::size_t kv_bytes = 0;  // engine-side KV bytes written by the pass
  std::uint64_t dur_us = 0;  // measured model-pass wall time (0: prefix_hit)
  std::size_t generated = 0;  // tokens the pass generated (0: prefix_hit)

  bool operator==(const TracePass&) const = default;
};

/// One engine step: its kStep record plus the per-sequence passes grouped
/// under it.
struct TraceStep {
  std::uint64_t step = 0;
  std::size_t batch = 0;
  std::size_t rows = 0;  // rows fed, per the kStep record
  /// Measured host wall time of the step (the kStep record's dur_us).
  /// Replay itself ignores it per the contract above; the drift auditor
  /// (accel/drift.h) joins it against the device model's prediction.
  std::uint64_t dur_us = 0;
  std::size_t blocks_in_use = 0;  // pool occupancy after the step
  std::size_t blocks_free = 0;
  std::vector<TracePass> passes;

  /// The batch this step fed through the model: every pass that fed rows,
  /// in pass order, at its recorded KV depth. Prefix hits restored
  /// positions from the cache and fed nothing, so they are skipped.
  [[nodiscard]] StepComposition composition() const;

  bool operator==(const TraceStep&) const = default;
};

/// A replayable trace: self-description + the surviving steps.
struct StepTrace {
  StepTraceInfo info;
  std::uint64_t dropped_steps = 0;     // kStep records lost to the ring
  std::uint64_t truncated_events = 0;  // events lost to the ring
  std::vector<TraceStep> steps;

  /// Rebuilds the producing model's config from the header dims. Throws
  /// std::invalid_argument when any dim is zero (trace not self-describing
  /// — its producer never called Tracer::set_step_info) or kv.block_size
  /// is zero.
  [[nodiscard]] ModelConfig model() const;

  /// The opal.step_trace/v4 document (schema table above).
  [[nodiscard]] std::string to_json() const;

  bool operator==(const StepTrace&) const = default;
};

/// Lifts the step trace out of an in-process tracer: one record per
/// surviving kStep event, holding the per-sequence kChunk / kDecode /
/// kSpecBurst / kPrefixHit events emitted before it in the same step.
/// Events whose step record was overwritten in the ring are dropped (and
/// the loss is counted in dropped_steps / truncated_events).
[[nodiscard]] StepTrace step_trace_from_tracer(const Tracer& tracer);

/// Parses an opal.step_trace/v4 JSON document. Throws
/// std::invalid_argument naming the offending field / position on any
/// schema violation (wrong schema string — v3 included, missing keys, type
/// mismatches, integers above 2^53, unknown pass kinds, a pass with pos +
/// rows above kv.max_seq_len, a generated count above 1 for a chunk /
/// decode or outside [1, rows] for a spec_burst).
[[nodiscard]] StepTrace parse_step_trace(std::string_view json_text);

/// Whole-run attribution for one request.
struct ReplayRequestReport {
  std::uint64_t request = 0;
  std::size_t rows_fed = 0;
  std::size_t tokens_generated = 0;
  std::size_t prefix_rows_restored = 0;
  double latency_s = 0.0;   // attributed device time across its steps
  double energy_j = 0.0;    // attributed device energy (leakage included)
  double dram_bytes = 0.0;  // attributed device DRAM traffic
  double prefix_saved_j = 0.0;
  double spec_saved_j = 0.0;
};

/// One replayed step, summarized.
struct ReplayStepSummary {
  std::uint64_t step = 0;
  std::size_t rows = 0;  // rows actually replayed (prefix hits excluded)
  double latency_s = 0.0;
  double energy_j = 0.0;
  double dram_bytes = 0.0;
  bool dram_bound = false;
};

/// Full replay output: run totals + per-step and per-request attribution.
struct ReplayReport {
  std::string device;
  std::size_t n_steps = 0;
  std::size_t rows_fed = 0;
  std::size_t tokens_generated = 0;    // summed pass generated counts
  std::size_t prefix_rows_restored = 0;
  std::size_t kv_bytes_written = 0;    // engine-side, summed from the trace
  std::uint64_t dropped_steps = 0;     // copied from the trace header
  double latency_s = 0.0;              // device time, all steps
  double energy_j = 0.0;
  double core_energy_j = 0.0;
  double mem_access_j = 0.0;
  double weight_leak_j = 0.0;
  double act_leak_j = 0.0;
  double dram_bytes = 0.0;             // device-side DRAM traffic
  double prefix_saved_j = 0.0;
  double spec_saved_j = 0.0;
  std::size_t dram_bound_steps = 0;
  /// Compute-core area of the replayed device (device_core_area_mm2) and
  /// the total MAC count of the replayed run — the inputs to the
  /// TOPS-per-watt roll-up below.
  double core_area_mm2 = 0.0;
  std::size_t total_macs = 0;
  std::vector<ReplayStepSummary> steps;
  std::vector<ReplayRequestReport> requests;  // ascending request id

  [[nodiscard]] double energy_per_token_j() const {
    return tokens_generated == 0
               ? 0.0
               : energy_j / static_cast<double>(tokens_generated);
  }

  /// Run-level efficiency: tera-ops (2 ops per MAC) per joule — the
  /// conventional TOPS/W accelerator headline. 0 before any energy accrues.
  [[nodiscard]] double tops_per_watt() const {
    return energy_j == 0.0
               ? 0.0
               : 2.0 * static_cast<double>(total_macs) / energy_j / 1e12;
  }

  /// Deterministic JSON (17-significant-digit doubles): run totals, energy
  /// breakdown, saved-energy attribution, per_step[], per_request[].
  [[nodiscard]] std::string to_json() const;
};

/// Replays `trace` through `device`. The trace's KV block size overrides
/// the device's (the serving layout decides DRAM granularity). Throws
/// std::invalid_argument when the trace is not self-describing.
[[nodiscard]] ReplayReport replay_trace(const DeviceConfig& device,
                                        const StepTrace& trace);

}  // namespace opal
