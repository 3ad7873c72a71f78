// Kernel/layer profiler: always-available performance attribution for the
// serving hot path, under the same observes-never-steers contract as the
// metrics registry and the tracer.
//
// ## What it measures
//
// Two attribution planes, both accumulated into a KernelProfile:
//   * per-kernel-kind counters — one row per KernelOps entry (matvec,
//     attend_scores, fused dequant kernels, ...) holding call count, element
//     count (MAC-shaped work: n x rows x cols for an n-input-row GEMV,
//     rows x d_head for an attend primitive, n x width elements for an
//     n-row mx_quantize), and wall-clock nanoseconds.
//     A multi-row matvec is one call, so calls count weight passes and
//     elems / ns stays a true MAC rate;
//   * per-layer phase counters — the decoder pass split the way a serving
//     profiler reports it (norm / qkv / attend / ffn / logits), per layer
//     and aggregated, filled in by PreparedModel::prefill_group once per
//     phase per layer for all of a group pass's rows. The logits phase is
//     model-level (final norm + embedding GEMV), so it accrues only in the
//     aggregate row.
//
// ## How interposition works (zero overhead when off)
//
// KernelProfiler::enable() captures the currently active KernelOps table and
// installs a wrapper table (set_active_kernels) whose entries time the call
// and delegate to the captured table with identical arguments — the
// arithmetic is byte-for-byte the underlying table's, so a profiled run is
// bitwise identical to a silent one in every kv_mode. When the profiler is
// off the wrapper table simply is not installed: the hot path dispatches
// straight to the resolved scalar/SIMD table with zero added instructions.
// disable() restores the captured table. enable/disable nest (refcounted),
// so overlapping engines each profiling keep the wrapper installed until the
// last one releases it.
//
// Like set_force_scalar_kernels, enable/disable are not thread-safe against
// concurrent kernel use — flip them between runs, not during one — and a
// set_force_scalar_kernels() call while the profiler is enabled replaces the
// wrapper table: enable the profiler AFTER pinning the table you want
// wrapped.
//
// ## Thread discipline (the serving engine's parallel decode fan-out)
//
// Samples land in a thread-local KernelProfile* slot (bind_slot). The
// engine gives every pass group its own KernelProfile, binds it around
// that group's pass, and merges every group into the run total on the
// serial phase, so no synchronization is needed anywhere. With no slot
// bound, a wrapped kernel skips the clock reads entirely and just
// delegates.
//
// Helper calls inside one table (e.g. scalar_matvec looping over its
// file-local scalar_dot) are invisible to the wrapper: it counts entries
// through the dispatch table only, one sample per public kernel call.
//
// Enabling: ServingConfig::profile.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/kernels.h"

namespace opal {

/// One row per KernelOps entry, in declaration order.
enum class KernelKind : std::uint8_t {
  kMatvec,
  kAxpy,
  kScale,
  kAttendScores,
  kAttendAccum,
  kDequantScoresInt8,
  kDequantScoresLog2,
  kDequantAccumInt8,
  kDequantAccumLog2,
  kMxQuantize,
};
inline constexpr std::size_t kKernelKindCount = 10;

[[nodiscard]] std::string to_string(KernelKind kind);

/// Decoder-pass phases of the per-layer breakdown. kLogits (final norm +
/// tied-embedding GEMV + logit scale) is model-level, not per-layer: it
/// accrues in the aggregate phase row only.
enum class LayerPhase : std::uint8_t {
  kNorm,    // attn_norm + ffn_norm applications (incl. post-LN quantize)
  kQkv,     // Wq/Wk/Wv projections + KV quantize/write
  kAttend,  // scores/softmax/weighted-sum + Wo projection + residual
  kFfn,     // fc1 + activation + fc2 + residual
  kLogits,  // final norm + embedding GEMV + logit scale
};
inline constexpr std::size_t kLayerPhaseCount = 5;

[[nodiscard]] std::string to_string(LayerPhase phase);

/// Per-kernel-kind accumulator.
struct KernelStat {
  std::uint64_t calls = 0;
  std::uint64_t elems = 0;  // MAC-shaped element count (see header comment)
  std::uint64_t ns = 0;     // wall-clock, steady_clock

  void merge(const KernelStat& other) {
    calls += other.calls;
    elems += other.elems;
    ns += other.ns;
  }
};

/// Per-phase accumulator.
struct PhaseStat {
  std::uint64_t calls = 0;  // timed sections entered
  std::uint64_t ns = 0;

  void merge(const PhaseStat& other) {
    calls += other.calls;
    ns += other.ns;
  }
};

/// One profiling domain's accumulated samples: a pass group's, or the run
/// total the groups merge into.
struct KernelProfile {
  std::array<KernelStat, kKernelKindCount> kernels{};
  /// Aggregate over layers (the only row where kLogits accrues).
  std::array<PhaseStat, kLayerPhaseCount> phases{};
  /// Per-layer phase rows, sized lazily to the model's n_layers on first
  /// sample; kLogits stays zero here (see LayerPhase).
  std::vector<std::array<PhaseStat, kLayerPhaseCount>> layers;

  void merge(const KernelProfile& other);
  void clear();

  [[nodiscard]] std::uint64_t total_kernel_calls() const;
  [[nodiscard]] std::uint64_t total_kernel_ns() const;
};

/// Global interposition control + the thread-local sample slot. All static:
/// the wrapper table's function pointers cannot carry instance state.
class KernelProfiler {
 public:
  /// True while the wrapper table is installed. Only tests call it (and
  /// underlying()): they check enable/disable restore the dispatch, which
  /// no profile shows.
  [[nodiscard]] static bool enabled();

  /// Captures the active kernel table and installs the timing wrapper
  /// (nested: only the first call interposes). Serial-phase only.
  static void enable();
  /// Releases one enable(); the last release restores the captured table.
  static void disable();

  /// Binds `slot` as this thread's sample destination (nullptr unbinds).
  /// The serving engine binds each pass group's profile around its group
  /// pass; standalone callers (benches, tests) bind one slot around a
  /// model pass on their own thread.
  static void bind_slot(KernelProfile* slot);
  /// This thread's bound slot, or nullptr (samples are dropped cheaply).
  [[nodiscard]] static KernelProfile* slot();

  /// The table the wrapper delegates to (nullptr while disabled). Only
  /// tests call it, as enabled().
  [[nodiscard]] static const KernelOps* underlying();
};

/// Wall-clock sample source of the profiler (steady_clock, nanoseconds).
[[nodiscard]] std::uint64_t profile_now_ns();

/// RAII phase section: on destruction records one PhaseStat sample into
/// `prof`'s aggregate phase row and, when a layer index is given, into that
/// layer's row too. A nullptr `prof` makes the scope a no-op (no clock
/// reads), so call sites can pass KernelProfiler::slot() unconditionally.
class PhaseScope {
 public:
  static constexpr std::size_t kNoLayer = static_cast<std::size_t>(-1);

  PhaseScope(KernelProfile* prof, LayerPhase phase,
             std::size_t layer = kNoLayer)
      : prof_(prof),
        phase_(phase),
        layer_(layer),
        t0_(prof != nullptr ? profile_now_ns() : 0) {}

  ~PhaseScope() {
    if (prof_ == nullptr) return;
    const std::uint64_t ns = profile_now_ns() - t0_;
    PhaseStat& agg = prof_->phases[static_cast<std::size_t>(phase_)];
    agg.calls += 1;
    agg.ns += ns;
    if (layer_ == kNoLayer) return;
    if (prof_->layers.size() <= layer_) prof_->layers.resize(layer_ + 1);
    PhaseStat& row = prof_->layers[layer_][static_cast<std::size_t>(phase_)];
    row.calls += 1;
    row.ns += ns;
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  KernelProfile* prof_;
  LayerPhase phase_;
  std::size_t layer_;
  std::uint64_t t0_;
};

}  // namespace opal
