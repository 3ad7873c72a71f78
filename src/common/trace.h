// Structured event tracer for the serving stack: a fixed-capacity ring
// buffer of POD events, near-zero cost when disabled (one predictable
// branch per would-be event), exportable as Chrome trace_event JSON
// (about://tracing / ui.perfetto.dev). The accelerator-model replay
// (accel/replay.h) groups its events into steps (step_trace_from_tracer)
// and owns the replayable step-trace JSON (StepTrace::to_json and
// parse_step_trace).
//
// Event taxonomy (what ServingEngine emits; see the Observability block in
// llm/serving_engine.h for exactly when each fires):
//
//   kind          scope     payload a / b / c / d                   dur_us
//   kEnqueue      request   prompt_len / target_len / priority / 0  -
//   kAdmit        request   queue-wait steps / restored positions /
//                           blocks held / 0                         -
//   kPrefixHit    request   positions restored / columns / 0 / 0    -
//   kChunk        request   rows fed / start position / KV bytes
//                           written / tokens generated              decode us
//   kDecode       request   1 / start position / KV bytes /
//                           tokens generated                        decode us
//   kSpecBurst    request   rows fed / start position / KV bytes /
//                           tokens generated (rows committed)       verify us
//   kBudgetShrink request   budget before / 1 / 0 / 0               -
//   kPreempt      request   0 / fed before / 0 / 0                  -
//   kEvict        request   generated so far / 0 / 0 / 0            -
//   kFinish       request   generated / finish reason / 0 / 0       -
//   kStep         engine    batch size / rows fed / blocks in use /
//                           blocks free                             step us
//
// A pass event's dur_us is the slot's share of its group pass, apportioned
// by rows (see SlotPass::dur_us in llm/serving_engine.h); every member of
// one group pass ends at the same ts_us.
//
// Pass kinds: the engine types each slot's pass once per step. kSpecBurst
// is a verify burst [frontier, drafts...]; kDecode is a single row that is
// the frontier (the last known token); kChunk is any other feed of known
// prompt or replayed tokens, one row or many. A chunk or decode generates
// at most one token (sampled from its final row at the frontier); a burst
// generates one per row that survived verify.
//
// The tracer itself is engine-agnostic: it stores whatever events it is
// handed. Like MetricsRegistry and KvBlockPool it is not internally
// synchronized — emit() and the exports belong to a serial phase.
//
// Timestamps are wall-clock microseconds since the tracer's construction
// (steady clock). Tracing never feeds back into control flow, so a traced
// run is bitwise identical to an untraced one.
//
// Enabling: construct with enabled = true (ServingConfig::trace); size the
// ring with ServingConfig::trace_capacity so a long run loses nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace opal {

enum class TraceEventKind : std::uint8_t {
  kEnqueue,
  kAdmit,
  kPrefixHit,
  kChunk,
  kDecode,
  kSpecBurst,
  kBudgetShrink,
  kPreempt,
  kEvict,
  kFinish,
  kStep,
};

[[nodiscard]] std::string to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kStep;
  /// Wall-clock microseconds since tracer construction, taken at emit time.
  /// For events with a duration this is the span END (start = ts_us -
  /// dur_us) — they are emitted when the measured work completes.
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;  // 0 for instant events
  std::uint64_t step = 0;    // engine step counter when emitted
  std::uint64_t request = 0;  // RequestId; 0 = engine-scoped
  std::uint64_t a = 0, b = 0, c = 0, d = 0;  // kind-specific (header table)
};

/// Self-description the producing engine attaches to its tracer so a
/// step-trace file is replayable without the producing process: the served
/// model's dims (enough to rebuild a ModelConfig) and the serving KV
/// layout. All-zero dims mean "not set" (StepTrace::to_json still emits the
/// header; accel/replay refuses to replay it).
struct StepTraceInfo {
  std::size_t n_layers = 0;
  std::size_t d_model = 0;
  std::size_t n_heads = 0;
  std::size_t d_ffn = 0;
  std::size_t vocab = 0;
  std::string kv_mode;             // to_string(KvQuantMode)
  std::size_t kv_block_size = 0;   // positions per KV block
  std::size_t kv_bits_per_entry = 0;
  std::size_t max_seq_len = 0;     // KV positions one sequence can hold

  bool operator==(const StepTraceInfo&) const = default;
};

class Tracer {
 public:
  /// `enabled` activates the tracer; capacity is the ring size in events
  /// (oldest overwritten first).
  explicit Tracer(bool enabled = false, std::size_t capacity = 1 << 16);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Stores `event` (stamping ts_us if the caller left it 0). No-op when
  /// disabled.
  void emit(TraceEvent event);

  /// Attaches the producing engine's self-description, emitted in the
  /// step-trace header (see StepTraceInfo).
  void set_step_info(StepTraceInfo info) { info_ = std::move(info); }
  [[nodiscard]] const StepTraceInfo& step_info() const { return info_; }

  /// Events ever emitted (including overwritten ones).
  [[nodiscard]] std::uint64_t total_emitted() const { return total_; }
  /// Events overwritten in the ring (lost to the exports).
  [[nodiscard]] std::uint64_t truncated_events() const { return truncated_; }
  /// kStep records overwritten in the ring: nonzero means the step trace
  /// is INCOMPLETE (replays must check the header).
  [[nodiscard]] std::uint64_t dropped_steps() const { return dropped_steps_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  void clear();

  /// Held events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Microseconds since construction — the timestamp emit() stamps.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): duration events
  /// become "X" complete events (per-request lanes via tid = request id,
  /// step lane tid 0), instant events "i", all with their payload in args.
  /// Loads in about://tracing and ui.perfetto.dev.
  void write_chrome_trace(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;      // next write slot once the ring is full
  std::uint64_t total_ = 0;   // lifetime emit count
  std::uint64_t truncated_ = 0;      // events overwritten
  std::uint64_t dropped_steps_ = 0;  // kStep records overwritten
  StepTraceInfo info_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace opal
