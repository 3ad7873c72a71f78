// servebench: serves one workload through opal::ServingEngine on the
// paper's operating point (OWQ W4 weights, MX-OPAL A4/7 activations, log2
// softmax) and prints its end-to-end metrics, or with --trace 1 its
// per-layer metrics, ending with one JSON result line.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//
// One invocation: host probes; set-up (repeated, median reported); the
// timed phase, untraced, with host probes between rounds or while idle; a
// traced run of the same inputs (step trace for the simulated energy);
// every request re-served alone and compared bitwise with what was served;
// with --trace 1 also a profiled run and micro-timings of the quantizer
// and the sampler; host probes again. Host-time end-to-end metrics are
// read on the CPU clock and scaled to the reference host by the probes'
// median (probe.h). Any mismatch, eviction or short stream makes the
// result incorrect and the exit code 1. README.md documents the workloads
// and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/replay.h"
#include "cpu_clock.h"
#include "layers.h"
#include "probe.h"
#include "report.h"
#include "serve.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace servebench;
using Clock = CpuClock;
using Wall = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;
constexpr int kProbeRepeats = 3;
constexpr std::size_t kVocab = 512;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& out) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      out.seed = std::strtoull(val.c_str(), &end, 10);
      have[1] = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      out.seconds = std::strtod(val.c_str(), &end);
      have[2] = *end == '\0' && !val.empty() && out.seconds > 0.0;
    } else if (key == "--trace") {
      out.trace = val == "1";
      have[3] = val == "0" || val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

template <typename C>
double elapsed_s(typename C::time_point t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

void add_probes(std::vector<double>& probes) {
  for (int i = 0; i < kProbeRepeats; ++i) probes.push_back(host_probe_ms());
}

/// Serves each client's first request, cut to 8 tokens, so allocators,
/// caches and the thread pool are warm before timing.
void warm_up(opal::ServingEngine& engine, const Workload& w) {
  if (w.rounds.empty()) return;
  std::vector<opal::RequestId> ids;
  for (const auto& list : w.rounds.front()) {
    opal::Request r = list.front();
    r.max_new_tokens = 8;
    ids.push_back(engine.submit(std::move(r)));
  }
  engine.run();
  for (const opal::RequestId id : ids) {
    if (engine.result(id).status != opal::RequestStatus::kFinished) {
      throw std::runtime_error("warm-up request did not finish");
    }
    engine.release(id);
  }
}

/// Serves the traced (or profiled) part again on a fresh engine: the
/// first arrivals of an open loop, round 0 of a closed loop.
Run serve_part(const ModelStack& stack, const Workload& w, bool trace,
               bool profile) {
  auto engine = make_engine(stack, w, trace, profile);
  return w.open_loop ? serve_arrivals(*engine, w, w.traced_arrivals)
                     : serve_round(*engine, w, 0);
}

/// Time inside step() per executed row.
double busy_ms_per_row(const Run& r) {
  double busy = 0.0;
  for (const double v : r.step_ms) busy += v;
  return busy / static_cast<double>(r.rows);
}

struct Check {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::vector<bool> ok_each;  // per served request, in run order
};

/// Compares every served stream with the same request served alone.
Check verify(const std::vector<const Run*>& runs,
             const std::vector<opal::RequestResult>& alone,
             const std::vector<const opal::Request*>& table,
             const char* phase) {
  Check c;
  for (const Run* run : runs) {
    for (const ServedRequest& s : run->requests) {
      const opal::RequestResult& ref = alone[s.source];
      const bool good =
          s.result.status == opal::RequestStatus::kFinished &&
          ref.status == opal::RequestStatus::kFinished &&
          s.result.generated() == table[s.source]->max_new_tokens &&
          s.token_s.size() == s.result.generated() &&
          s.result.tokens == ref.tokens;
      if (!good && c.sent - c.ok < 5) {
        std::fprintf(stderr,
                     "servebench: %s request %zu failed verification "
                     "(status %s, %zu of %zu tokens, %s the stream served "
                     "alone)\n",
                     phase, s.source, opal::to_string(s.result.status).c_str(),
                     s.result.generated(), table[s.source]->max_new_tokens,
                     s.result.tokens == ref.tokens ? "matches"
                                                   : "differs from");
      }
      c.sent += 1;
      c.ok += good ? 1 : 0;
      c.ok_each.push_back(good);
    }
  }
  std::printf("phase %-8s sent %zu, succeeded %zu, failed %zu\n", phase,
              c.sent, c.ok, c.sent - c.ok);
  return c;
}

Metric percentile_metric(const std::string& name, const std::vector<double>& xs,
                         double pct, bool& enough) {
  const Percentile p = nearest_rank(xs, pct);
  enough = enough && p.beyond >= 10;
  return {name, p.value, "ms", sample_note(p)};
}

int run_benchmark(const Args& args) {
  // Wall time per phase, printed so the run's length can be budgeted.
  std::vector<std::pair<const char*, double>> wall;
  auto lap = [&wall, t = Wall::now()](const char* phase) mutable {
    wall.emplace_back(phase, elapsed_s<Wall>(t));
    t = Wall::now();
  };
  std::vector<double> probes;
  add_probes(probes);
  const Workload w =
      make_workload(args.workload, args.seed, args.seconds, kVocab);
  const auto table = request_table(w);

  // --- set-up: model synthesis, OWQ quantization, PreparedModel, engine,
  // warm-up; repeated, the last build serves ---
  std::vector<double> setup_s;
  ModelStack stack;
  std::unique_ptr<opal::ServingEngine> engine;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    stack = {};
    const auto t0 = Clock::now();
    stack = build_model(w.kv_mode);
    engine = make_engine(stack, w, /*trace=*/false, /*profile=*/false);
    warm_up(*engine, w);
    setup_s.push_back(elapsed_s<Clock>(t0));
    probes.push_back(host_probe_ms());
  }
  const std::size_t warm_sent =
      w.warm_prompts.size() + (w.rounds.empty() ? 0 : w.rounds[0].size());
  std::printf("phase %-8s sent %zu, succeeded %zu, failed 0 (per set-up)\n",
              "warm-up", warm_sent, warm_sent);
  lap("set-up");

  // --- timed phase, untraced: the whole schedule, or every round ---
  std::vector<Run> timed;
  const auto t_timed = Clock::now();
  if (w.open_loop) {
    timed.push_back(serve_arrivals(*engine, w, w.arrivals.size()));
    probes.insert(probes.end(), timed.back().probe_ms.begin(),
                  timed.back().probe_ms.end());
  } else {
    for (std::size_t r = 0; r < w.rounds.size(); ++r) {
      timed.push_back(serve_round(*engine, w, r));
      add_probes(probes);
    }
  }
  const double timed_s = elapsed_s<Clock>(t_timed);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  engine.reset();
  lap("timed");

  const Run traced = serve_part(stack, w, /*trace=*/true, /*profile=*/false);
  const Run profiled = args.trace ? serve_part(stack, w, false, true) : Run{};
  lap("traced");

  // --- correctness: every request again, alone ---
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const auto alone = serve_alone(stack, w, threads);
  lap("alone");
  std::vector<const Run*> timed_runs;
  for (const Run& r : timed) timed_runs.push_back(&r);
  const Check timed_check = verify(timed_runs, alone, table, "timed");
  bool correct = timed_check.ok == timed_check.sent;
  const Check traced_check = verify({&traced}, alone, table, "traced");
  correct = correct && traced_check.ok == traced_check.sent;
  if (args.trace) {
    const Check pc = verify({&profiled}, alone, table, "profiled");
    correct = correct && pc.ok == pc.sent;
  }
  const auto alone_ok = static_cast<std::size_t>(
      std::count_if(alone.begin(), alone.end(), [](const auto& r) {
        return r.status == opal::RequestStatus::kFinished;
      }));
  std::printf("phase %-8s sent %zu, succeeded %zu, failed %zu (reference "
              "streams, batch 1)\n",
              "alone", alone.size(), alone_ok, alone.size() - alone_ok);
  if (!w.open_loop) {
    // A closed loop's schedule is a pure function of its inputs: serving
    // round 0 again, traced or profiled, takes the same steps and rows.
    std::vector<const Run*> again = {&traced};
    if (args.trace) again.push_back(&profiled);
    for (const Run* r : again) {
      if (r->step_ms.size() != timed[0].step_ms.size() ||
          r->rows != timed[0].rows || r->generated != timed[0].generated) {
        std::fprintf(stderr,
                     "servebench: round 0 served again took %zu steps / %zu "
                     "rows, untraced %zu / %zu\n",
                     r->step_ms.size(), r->rows, timed[0].step_ms.size(),
                     timed[0].rows);
        correct = false;
      }
    }
  }

  // --- simulated energy of the traced run's step trace ---
  const auto t_replay = Clock::now();
  const opal::ReplayReport opal_rep =
      opal::replay_trace(opal::make_opal_device(4, 7, 4), traced.trace);
  const double replay_host_ms = elapsed_s<Clock>(t_replay) * 1e3;
  const opal::ReplayReport bf16_rep =
      opal::replay_trace(opal::make_bf16_device(), traced.trace);
  if (traced.trace.dropped_steps != 0 || opal_rep.rows_fed != traced.rows) {
    std::fprintf(stderr,
                 "servebench: step trace incomplete (%llu steps dropped, "
                 "%zu rows replayed vs %zu executed)\n",
                 static_cast<unsigned long long>(traced.trace.dropped_steps),
                 opal_rep.rows_fed, traced.rows);
    correct = false;
  }

  // --- end-to-end metrics: host times on the reference host ---
  add_probes(probes);
  const double scale = host_scale(probes);
  std::vector<double> ttft, tpot, gaps, out_rate, prompt_rate;
  std::size_t slo_met = 0;
  std::size_t k = 0;
  for (const Run& r : timed) {
    out_rate.push_back(static_cast<double>(r.generated) / r.span_s * scale);
    prompt_rate.push_back(static_cast<double>(r.prompt_tokens) / r.span_s *
                          scale);
    for (const ServedRequest& s : r.requests) {
      const bool ok = timed_check.ok_each[k++];
      if (s.token_s.empty()) continue;
      const double t_first = (s.token_s.front() - s.due_s) * 1e3 / scale;
      const double t_per = mean_gap(s.token_s) * 1e3 / scale;
      ttft.push_back(t_first);
      if (s.token_s.size() >= 2) tpot.push_back(t_per);
      append_gaps(s.token_s, gaps);
      slo_met += ok && t_first <= w.slo.ttft_ms && t_per <= w.slo.tpot_ms;
    }
  }
  for (double& g : gaps) g *= 1e3 / scale;
  const auto sent = static_cast<double>(timed_check.sent);
  bool enough = true;
  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", nearest_rank(setup_s, 50.0).value / scale, "s",
                 "median of " + std::to_string(kSetupRepeats) + " set-ups"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB",
                 "process peak RSS at the end of the timed phase"});
  e2e.push_back({"ok_frac", static_cast<double>(timed_check.ok) / sent, "ratio",
                 std::to_string(timed_check.ok) + " of " +
                     std::to_string(timed_check.sent) + " verified"});
  e2e.push_back({"output_tok_per_s", nearest_rank(out_rate, 50.0).value,
                 "tok/s",
                 "median of " + std::to_string(timed.size()) + " run(s)"});
  e2e.push_back({"prompt_tok_per_s", nearest_rank(prompt_rate, 50.0).value,
                 "tok/s",
                 "median of " + std::to_string(timed.size()) + " run(s)"});
  e2e.push_back(percentile_metric("ttft_ms_p50", ttft, 50.0, enough));
  e2e.push_back(percentile_metric("ttft_ms_p90", ttft, 90.0, enough));
  e2e.push_back(percentile_metric("tpot_ms_p50", tpot, 50.0, enough));
  e2e.push_back(percentile_metric("tpot_ms_p90", tpot, 90.0, enough));
  e2e.push_back(percentile_metric("itl_ms_p99", gaps, 99.0, enough));
  e2e.push_back({"slo_met_frac", static_cast<double>(slo_met) / sent, "ratio",
                 "TTFT <= " + std::to_string(w.slo.ttft_ms) +
                     " ms and TPOT <= " + std::to_string(w.slo.tpot_ms) +
                     " ms"});
  const auto gen = static_cast<double>(traced.generated);
  e2e.push_back({"opal_uj_per_tok", opal_rep.energy_j * 1e6 / gen, "uJ/tok",
                 "simulated " + opal_rep.device + ", traced run, " +
                     std::to_string(traced.generated) + " tokens"});
  e2e.push_back({"energy_gain_x", bf16_rep.energy_j / opal_rep.energy_j,
                 "ratio", "simulated " + bf16_rep.device + " over " +
                              opal_rep.device + " energy"});
  if (!enough) {
    std::fprintf(stderr, "servebench: too few samples for a percentile\n");
    correct = false;
  }

  std::vector<Metric> layers;
  if (args.trace) {
    LayerInputs in;
    in.workload = &w;
    in.stack = &stack;
    in.timed = &timed;
    in.traced = &traced;
    in.profiled = &profiled;
    in.opal_replay = &opal_rep;
    in.replay_host_ms = replay_host_ms;
    in.trace_overhead =
        busy_ms_per_row(traced) / busy_ms_per_row(timed.front()) - 1.0;
    in.host_probe_ms = nearest_rank(probes, 50.0).value;
    layers = per_layer_metrics(in);
  }
  lap("rest");

  std::printf("workload %s, seed %llu: %zu timed run(s), %.2f CPU-s timed\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              timed.size(), timed_s);
  std::printf("traced run: %zu steps, %zu rows, %zu generated tokens\n",
              traced.step_ms.size(), traced.rows, traced.generated);
  std::printf("host probe: %.3f ms at start, %.3f ms at end (medians), "
              "%.3f ms over all %zu\n",
              nearest_rank({probes.begin(), probes.begin() + kProbeRepeats},
                           50.0)
                  .value,
              nearest_rank({probes.end() - kProbeRepeats, probes.end()}, 50.0)
                  .value,
              nearest_rank(probes, 50.0).value, probes.size());
  std::printf("host scale: %.4f (host-time end-to-end metrics are the CPU "
              "clock's readings over it)\n",
              scale);
  std::printf("wall time (s):");
  for (const auto& [phase, s] : wall) std::printf(" %s %.2f", phase, s);
  std::printf("\n");
  std::printf("output tok/s per run (scaled):");
  for (const double r : out_rate) std::printf(" %.0f", r);
  std::printf("\n");
  print_metrics("end-to-end", e2e);
  if (args.trace) print_metrics("per-layer (traced invocation)", layers);
  std::printf("%s\n", result_json(correct, timed_check.sent,
                                  timed_check.sent - timed_check.ok,
                                  args.trace ? layers : e2e)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
