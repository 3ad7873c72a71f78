// Profile bench: exercises the always-on performance-attribution layer end
// to end and persists its three report surfaces to BENCH_profile.json
// (argv[1] overrides the path).
//
// Sections:
//   * per-kernel table — a closed-loop serving run per kv_mode (fp32 /
//     int8 / log2) under ServingConfig::profile, reporting call counts,
//     MAC-shaped element counts, and wall time per KernelOps entry. The
//     table shifts with the mode: fp32 attends through attend_scores/
//     attend_accum, the quantized modes through their fused dequant
//     kernels — the profiler is how that substitution is made visible.
//   * per-layer breakdown — the same runs' norm/qkv/attend/ffn phase split,
//     per layer and aggregated (logits accrues model-level only).
//   * drift summary — the int8 run is traced (opal.step_trace/v4) and its
//     measured step wall times audited against the device model's
//     predicted latency (accel/drift.h) on the BF16, OWQ-W4, and OPAL
//     presets: run ratio, per-step percentiles, compute/memory-bound split.
//
// Asserted (exit 1):
//   * profiler-off overhead is structurally zero: with profile off, the
//     active kernel dispatch table is the very pointer resolved before any
//     engine existed — the timing wrapper is not installed, so the hot
//     path carries zero added instructions (and destroying a profiled
//     engine restores that same pointer);
//   * profiled outputs are bitwise identical to silent outputs in every
//     kv_mode (observes-never-steers, same contract as tracing);
//   * the profile.* registry counters mirror the engine's KernelProfile
//     exactly, and the Prometheus rendering exposes them;
//   * every device's drift ratio is finite and positive, with at least one
//     step audited.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/device.h"
#include "accel/drift.h"
#include "accel/replay.h"
#include "common/kernel_profiler.h"
#include "common/kernels.h"
#include "llm/engine.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"
#include "llm/synthetic.h"

namespace {

using namespace opal;

/// Closed-loop workload: everything submitted up front, stepped to drain.
/// Mixed prompt lengths so chunked prefill, decode, and batch churn all
/// show up in the kernel mix.
std::vector<Request> workload() {
  std::vector<Request> reqs;
  for (std::size_t r = 0; r < 6; ++r) {
    Request q;
    const std::size_t prompt_len = 8 + 9 * r;  // 8 .. 53
    for (std::size_t i = 0; i < prompt_len; ++i) {
      q.prompt.push_back((i * 37 + 11 * r + 5) % 256);
    }
    q.max_new_tokens = 12;
    reqs.push_back(std::move(q));
  }
  return reqs;
}

struct Run {
  std::vector<std::vector<std::size_t>> tokens;  // per request
  KernelProfile profile;
  ServingEngine::Stats stats;
  MetricsRegistry::Snapshot snap;
  StepTrace trace;
};

Run run(const std::shared_ptr<const PreparedModel>& model, bool profile,
        bool trace = false) {
  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.prefill_chunk_tokens = 16;
  cfg.scheduler = std::make_shared<FifoScheduler>();
  cfg.profile = profile;
  cfg.trace = trace;

  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  for (const Request& q : workload()) ids.push_back(engine.submit(q));
  while (engine.step() > 0) {
  }

  Run out;
  for (const RequestId id : ids) {
    out.tokens.push_back(engine.result(id).tokens);
  }
  if (profile) out.profile = engine.profile();
  out.stats = engine.stats();
  out.snap = engine.metrics();
  if (trace) out.trace = step_trace_from_tracer(engine.tracer());
  return out;
}

const char* mode_name(KvQuantMode mode) {
  switch (mode) {
    case KvQuantMode::kFp32:
      return "fp32";
    case KvQuantMode::kInt8:
      return "int8";
    case KvQuantMode::kLog2:
      return "log2";
  }
  return "?";
}

void emit_phases(std::ofstream& json, const char* indent,
                 const std::array<PhaseStat, kLayerPhaseCount>& phases) {
  json << "{";
  for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
    const PhaseStat& ps = phases[p];
    json << (p == 0 ? "" : ", ") << "\""
         << to_string(static_cast<LayerPhase>(p)) << "\": {\"calls\": "
         << ps.calls << ", \"ns\": " << ps.ns << "}";
  }
  json << "}";
  (void)indent;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the dispatch table before anything else: this is the pointer the
  // zero-overhead assertion compares against, and the table the profiler
  // must capture and restore.
  const KernelOps* resolved = &kernels();

  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);

  const std::string path = argc > 1 ? argv[1] : "BENCH_profile.json";
  std::ofstream json(path);
  json << "{\n  \"bench\": \"profile\",\n  \"kernel_table\": \""
       << resolved->name << "\",\n  \"modes\": [\n";

  const KvQuantMode modes[] = {KvQuantMode::kFp32, KvQuantMode::kInt8,
                               KvQuantMode::kLog2};
  bool failed = false;
  StepTrace drift_trace;  // int8 run, audited below

  for (std::size_t mi = 0; mi < 3; ++mi) {
    const KvQuantMode mode = modes[mi];
    EngineConfig ecfg;
    ecfg.max_seq_len = 256;
    ecfg.kv_block_size = 16;
    ecfg.kv_mode = mode;
    auto prepared = std::make_shared<const PreparedModel>(model, ecfg);

    const Run silent = run(prepared, /*profile=*/false);
    if (&kernels() != resolved ||
        std::string(kernels().name) == "profiled") {
      std::printf("ERROR: %s silent run disturbed the kernel dispatch "
                  "table (profiler-off overhead is not zero)\n",
                  mode_name(mode));
      failed = true;
    }
    const bool want_trace = mode == KvQuantMode::kInt8;
    const Run profiled = run(prepared, /*profile=*/true, want_trace);
    if (want_trace) drift_trace = profiled.trace;
    if (&kernels() != resolved) {
      std::printf("ERROR: %s profiled engine did not restore the kernel "
                  "dispatch table on destruction\n",
                  mode_name(mode));
      failed = true;
    }

    // Observes-never-steers: wrapping every kernel in a timer must not
    // change a single output bit.
    if (profiled.tokens != silent.tokens) {
      std::printf("ERROR: %s profiled outputs diverge from silent\n",
                  mode_name(mode));
      failed = true;
    }

    const KernelProfile& prof = profiled.profile;
    if (prof.total_kernel_calls() == 0) {
      std::printf("ERROR: %s profiled run recorded no kernel calls\n",
                  mode_name(mode));
      failed = true;
    }
    // The registry surface must be the same numbers: each profile.kernel.*
    // counter equals its KernelProfile row, and Prometheus renders them.
    for (std::size_t k = 0; k < kKernelKindCount; ++k) {
      const std::string base =
          "profile.kernel." + to_string(static_cast<KernelKind>(k));
      if (profiled.snap.counter_value(base + ".calls") !=
              prof.kernels[k].calls ||
          profiled.snap.counter_value(base + ".elems") !=
              prof.kernels[k].elems) {
        std::printf("ERROR: %s registry counter %s diverges from profile\n",
                    mode_name(mode), base.c_str());
        failed = true;
      }
    }
    if (profiled.snap.to_prometheus().find(
            "profile_kernel_matvec_calls_total") == std::string::npos) {
      std::printf("ERROR: profile.* counters missing from Prometheus "
                  "rendering\n");
      failed = true;
    }
    // The kernel mix must match the KV mode: fused dequant kernels only
    // (and always) appear when the cache is quantized.
    const std::uint64_t fp_attend =
        prof.kernels[static_cast<std::size_t>(KernelKind::kAttendScores)]
            .calls;
    const std::uint64_t dq_attend =
        prof.kernels[static_cast<std::size_t>(KernelKind::kDequantScoresInt8)]
            .calls +
        prof.kernels[static_cast<std::size_t>(KernelKind::kDequantScoresLog2)]
            .calls;
    if (mode == KvQuantMode::kFp32 ? (fp_attend == 0 || dq_attend != 0)
                                   : (dq_attend == 0)) {
      std::printf("ERROR: %s kernel mix does not match the KV mode "
                  "(attend %llu, dequant %llu)\n",
                  mode_name(mode),
                  static_cast<unsigned long long>(fp_attend),
                  static_cast<unsigned long long>(dq_attend));
      failed = true;
    }

    // --- report ---
    std::printf("kv_mode=%s: %llu kernel calls, %.1f ms attributed, "
                "%zu steps\n",
                mode_name(mode),
                static_cast<unsigned long long>(prof.total_kernel_calls()),
                static_cast<double>(prof.total_kernel_ns()) * 1e-6,
                profiled.stats.steps);
    std::printf("  %-22s %10s %14s %10s\n", "kernel", "calls", "elems",
                "ms");
    json << "    {\"kv_mode\": \"" << mode_name(mode) << "\", \"steps\": "
         << profiled.stats.steps << ",\n     \"kernels\": [";
    bool first = true;
    for (std::size_t k = 0; k < kKernelKindCount; ++k) {
      const KernelStat& ks = prof.kernels[k];
      const std::string name = to_string(static_cast<KernelKind>(k));
      if (ks.calls != 0) {
        std::printf("  %-22s %10llu %14llu %10.2f\n", name.c_str(),
                    static_cast<unsigned long long>(ks.calls),
                    static_cast<unsigned long long>(ks.elems),
                    static_cast<double>(ks.ns) * 1e-6);
      }
      json << (first ? "" : ",") << "\n      {\"kind\": \"" << name
           << "\", \"calls\": " << ks.calls << ", \"elems\": " << ks.elems
           << ", \"ns\": " << ks.ns << "}";
      first = false;
    }
    json << "\n     ],\n     \"phases\": ";
    emit_phases(json, "     ", prof.phases);
    json << ",\n     \"layers\": [";
    std::printf("  %-8s %10s %10s %10s %10s\n", "layer", "norm ms",
                "qkv ms", "attend ms", "ffn ms");
    for (std::size_t l = 0; l < prof.layers.size(); ++l) {
      const auto& row = prof.layers[l];
      auto ms = [&row](LayerPhase p) {
        return static_cast<double>(
                   row[static_cast<std::size_t>(p)].ns) *
               1e-6;
      };
      std::printf("  %-8zu %10.2f %10.2f %10.2f %10.2f\n", l,
                  ms(LayerPhase::kNorm), ms(LayerPhase::kQkv),
                  ms(LayerPhase::kAttend), ms(LayerPhase::kFfn));
      json << (l == 0 ? "" : ",") << "\n      ";
      emit_phases(json, "      ", row);
    }
    json << "\n     ]}" << (mi + 1 < 3 ? "," : "") << "\n";
    std::printf("\n");
  }
  json << "  ],\n  \"drift\": [\n";

  // --- drift: measured step wall time vs device-model prediction on the
  // int8 trace, per accelerator preset ---
  const std::vector<DeviceConfig> devices = {
      make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)};
  std::printf("drift (int8 trace, %zu steps)\n", drift_trace.steps.size());
  std::printf("  %-10s %8s %8s %10s %10s %10s %12s\n", "device", "steps",
              "skipped", "ratio p50", "ratio p95", "run ratio", "bound");
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const DriftReport rep = audit_drift(devices[d], drift_trace);
    const double ratio = rep.run_ratio();
    if (rep.n_steps == 0 || !std::isfinite(ratio) || ratio <= 0.0) {
      std::printf("ERROR: %s drift ratio not finite and positive "
                  "(%zu steps, ratio %g)\n",
                  rep.device.c_str(), rep.n_steps, ratio);
      failed = true;
    }
    std::printf("  %-10s %8zu %8zu %10.3g %10.3g %10.3g %9zu/%zu\n",
                rep.device.c_str(), rep.n_steps, rep.skipped_steps,
                rep.ratio_p50, rep.ratio_p95, ratio,
                rep.compute_bound_steps, rep.dram_bound_steps);
    json << "    {\"device\": \"" << rep.device << "\", \"n_steps\": "
         << rep.n_steps << ", \"skipped_steps\": " << rep.skipped_steps
         << ", \"compute_bound_steps\": " << rep.compute_bound_steps
         << ", \"dram_bound_steps\": " << rep.dram_bound_steps
         << ",\n     \"measured_s\": " << rep.measured_s
         << ", \"predicted_s\": " << rep.predicted_s
         << ", \"run_ratio\": " << ratio
         << ",\n     \"ratio\": {\"min\": " << rep.ratio_min
         << ", \"p50\": " << rep.ratio_p50 << ", \"p95\": " << rep.ratio_p95
         << ", \"p99\": " << rep.ratio_p99 << ", \"max\": " << rep.ratio_max
         << "}}" << (d + 1 < devices.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\n");

  if (failed) return 1;
  std::printf("PASS: profile bench — profiler-off overhead ~0 (dispatch "
              "table untouched when disabled), profiled outputs bitwise "
              "identical to silent in fp32/int8/log2, drift ratio finite "
              "and positive on every device; per-kernel/per-layer/drift "
              "attribution written to %s\n",
              path.c_str());
  return 0;
}
