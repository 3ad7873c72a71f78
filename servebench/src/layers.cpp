#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "cpu_clock.h"
#include "llm/paged_kv_cache.h"
#include "llm/sampler.h"
#include "stats.h"

namespace servebench {

namespace {

using opal::TraceEventKind;
using Clock = CpuClock;

// Sampled tokens land here so the sampler loop cannot be optimized away.
volatile std::size_t g_sampler_sink = 0;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// What the raw trace events of one run add up to.
struct TraceTotals {
  double step_us = 0.0;
  double pass_us = 0.0;
  double decode_us = 0.0, decode_rows = 0.0;
  double chunk_us = 0.0, chunk_rows = 0.0;
  double verify_us = 0.0, verify_rows = 0.0;
  double admissions = 0.0, prefix_hits = 0.0, prefix_positions = 0.0;
  std::vector<double> queue_wait_ms;
  double fill_frac = 0.0;
};

TraceTotals scan_events(const std::vector<opal::TraceEvent>& events,
                        std::size_t blocks_per_position_column,
                        std::size_t block_size) {
  TraceTotals t;
  std::unordered_map<std::uint64_t, std::uint64_t> enqueued_us;
  // Positions held by the sequences that ran in each step: a pass leaves
  // its sequence at start + rows (spec bursts: + rows that survived).
  std::unordered_map<std::uint64_t, double> positions;
  std::uint64_t peak_blocks = 0;
  std::uint64_t peak_step = 0;
  for (const opal::TraceEvent& e : events) {
    const auto dur = static_cast<double>(e.dur_us);
    switch (e.kind) {
      case TraceEventKind::kEnqueue:
        enqueued_us[e.request] = e.ts_us;
        break;
      case TraceEventKind::kAdmit:
        if (auto it = enqueued_us.find(e.request); it != enqueued_us.end()) {
          t.queue_wait_ms.push_back(
              static_cast<double>(e.ts_us - it->second) / 1e3);
          enqueued_us.erase(it);  // first admission only
        }
        t.admissions += 1.0;
        break;
      case TraceEventKind::kPrefixHit:
        t.prefix_hits += 1.0;
        t.prefix_positions += static_cast<double>(e.a);
        break;
      case TraceEventKind::kDecode:
        t.decode_us += dur;
        t.decode_rows += static_cast<double>(e.a);
        t.pass_us += dur;
        positions[e.step] += static_cast<double>(e.b + e.a);
        break;
      case TraceEventKind::kChunk:
        t.chunk_us += dur;
        t.chunk_rows += static_cast<double>(e.a);
        t.pass_us += dur;
        positions[e.step] += static_cast<double>(e.b + e.a);
        break;
      case TraceEventKind::kSpecBurst:
        t.verify_us += dur;
        t.verify_rows += static_cast<double>(e.a);
        t.pass_us += dur;
        positions[e.step] += static_cast<double>(e.b + e.d);
        break;
      case TraceEventKind::kStep:
        t.step_us += dur;
        if (e.c > peak_blocks) {
          peak_blocks = e.c;
          peak_step = e.step;
        }
        break;
      default:
        break;
    }
  }
  const double reserved_positions =
      static_cast<double>(peak_blocks) /
      static_cast<double>(blocks_per_position_column) *
      static_cast<double>(block_size);
  t.fill_frac = ratio(positions[peak_step], reserved_positions);
  return t;
}

std::vector<float> gaussian(SeedRng& rng, std::size_t n, float scale) {
  std::vector<float> out(n);
  for (float& v : out) {
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    v = scale * static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                                   std::cos(6.283185307179586 * u2));
  }
  return out;
}

/// Median over five repeats of `fn` (which does `work` units), in ns/unit.
template <typename Fn>
double median_ns_per_unit(double work, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t = Clock::now();
    fn();
    reps.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t).count() /
        work);
  }
  return nearest_rank(reps, 50.0).value;
}

/// PrecisionPolicy::make_quantizer(site)->quantize_dequantize on
/// activation-like vectors: Gaussian with two 24x outlier channels per
/// 128-element block, the shape the synthetic model plants.
double quant_ns_per_elem(const opal::PrecisionPolicy& policy,
                         opal::ActivationSite site) {
  constexpr std::size_t kElems = 4096;
  constexpr int kCalls = 400;
  SeedRng rng(11);
  std::vector<float> in = gaussian(rng, kElems, 1.0f);
  for (std::size_t b = 0; b < kElems; b += 128) {
    in[b + 17] *= 24.0f;
    in[b + 90] *= 24.0f;
  }
  std::vector<float> out(kElems);
  const auto q = policy.make_quantizer(site);
  return median_ns_per_unit(static_cast<double>(kElems) * kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) q->quantize_dequantize(in, out);
  });
}

/// The workload's own sampler (first request's parameters, log2 softmax
/// codes as the engine builds it) over seeded logits with the model's
/// spread, with the request's prompt as context.
double sampler_us_per_token(const opal::Request& request, int log2_bits,
                            std::size_t vocab) {
  constexpr std::size_t kRows = 16;
  constexpr int kCalls = 1000;
  SeedRng rng(13);
  std::vector<std::vector<float>> rows;
  for (std::size_t r = 0; r < kRows; ++r) {
    rows.push_back(gaussian(rng, vocab, 2.5f));
  }
  const auto sampler = opal::make_sampler(request.sampling, log2_bits);
  opal::SamplerState state;
  state.rng = opal::CounterRng(request.sampling.seed);
  const double ns = median_ns_per_unit(kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      g_sampler_sink = sampler->sample(
          rows[static_cast<std::size_t>(i) % kRows], request.prompt, state);
    }
  });
  return ns / 1e3;
}

}  // namespace

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  const Workload& w = *in.workload;
  const Run& traced = *in.traced;
  const Run& profiled = *in.profiled;
  const opal::ReplayReport& rep = *in.opal_replay;
  const opal::PreparedModel& model = *in.stack->prepared;
  const opal::EngineConfig& ecfg = model.config();
  const opal::ModelConfig& mcfg = model.model_config();
  std::vector<Metric> ms;

  // --- load generator and diagnostics ---
  std::vector<double> lag_ms;
  std::vector<double> step_ms;
  for (const Run& r : *in.timed) {
    for (const ServedRequest& s : r.requests) {
      lag_ms.push_back((s.submit_s - s.due_s) * 1e3);
    }
    step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
  }
  const Percentile lag = nearest_rank(lag_ms, 99.0);
  ms.push_back({"gen.lag_ms_p99", lag.value, "ms", sample_note(lag)});
  ms.push_back({"host.probe_ms", in.host_probe_ms, "ms",
                "fixed non-opal CPU work, median of the run's probes"});
  ms.push_back({"trace.overhead_frac", in.trace_overhead, "ratio",
                "time inside step() per row: traced run over untraced"});

  // --- serving_engine ---
  const Percentile step50 = nearest_rank(step_ms, 50.0);
  const Percentile step99 = nearest_rank(step_ms, 99.0);
  ms.push_back({"engine.step_ms_p50", step50.value, "ms",
                sample_note(step50) + ", untraced runs"});
  ms.push_back({"engine.step_ms_p99", step99.value, "ms",
                sample_note(step99) + ", untraced runs"});
  const auto steps = static_cast<double>(traced.step_ms.size());
  ms.push_back({"engine.rows_per_step",
                ratio(static_cast<double>(traced.rows), steps), "rows", ""});
  ms.push_back({"engine.steps", steps, "count", "traced run"});
  const TraceTotals tt = scan_events(
      traced.events, opal::PagedKvCache::blocks_for(mcfg.n_layers, 1, 1),
      ecfg.kv_block_size);
  const double workers =
      static_cast<double>(std::max<std::size_t>(1, w.serving.n_threads));
  ms.push_back({"engine.serial_frac",
                std::max(0.0, 1.0 - ratio(tt.pass_us / workers, tt.step_us)),
                "ratio",
                "step time outside model passes (pass time / workers)"});
  const Percentile qw = nearest_rank(tt.queue_wait_ms, 50.0);
  ms.push_back({"engine.queue_wait_ms_p50", qw.value, "ms", sample_note(qw)});

  // --- prepared_model ---
  ms.push_back({"model.decode_us_per_row", ratio(tt.decode_us, tt.decode_rows),
                "us", "0 = no such passes"});
  ms.push_back({"model.chunk_us_per_row", ratio(tt.chunk_us, tt.chunk_rows),
                "us", "0 = no such passes"});
  ms.push_back({"model.verify_us_per_row",
                ratio(tt.verify_us, tt.verify_rows), "us",
                "0 = no such passes"});
  const opal::KernelProfile& prof = profiled.profile;
  double phase_ns = 0.0;
  for (const auto& p : prof.phases) phase_ns += static_cast<double>(p.ns);
  for (std::size_t i = 0; i < opal::kLayerPhaseCount; ++i) {
    ms.push_back({"model.phase_frac." +
                      opal::to_string(static_cast<opal::LayerPhase>(i)),
                  ratio(static_cast<double>(prof.phases[i].ns), phase_ns),
                  "ratio", "profiled run"});
  }
  ms.push_back({"model.non_kernel_frac",
                std::max(0.0, 1.0 - ratio(static_cast<double>(
                                              prof.total_kernel_ns()),
                                          phase_ns)),
                "ratio", "profiled pass time outside KernelOps"});

  // --- kernels ---
  // Each workload attends through one KV family (fp32, int8 or log2 fused
  // dequant); its kernels are reported under the fp32 kind names so every
  // workload prints the same metrics.
  using opal::KernelKind;
  const std::vector<std::pair<KernelKind, std::vector<KernelKind>>> kinds = {
      {KernelKind::kMatvec, {KernelKind::kMatvec}},
      {KernelKind::kAxpy, {KernelKind::kAxpy}},
      {KernelKind::kScale, {KernelKind::kScale}},
      {KernelKind::kAttendScores,
       {KernelKind::kAttendScores, KernelKind::kDequantScoresInt8,
        KernelKind::kDequantScoresLog2}},
      {KernelKind::kAttendAccum,
       {KernelKind::kAttendAccum, KernelKind::kDequantAccumInt8,
        KernelKind::kDequantAccumLog2}},
  };
  for (const auto& [kind, family] : kinds) {
    opal::KernelStat sum;
    std::string used;
    for (const KernelKind k : family) {
      const opal::KernelStat& ks = prof.kernels[static_cast<std::size_t>(k)];
      if (ks.calls > 0) used += (used.empty() ? "" : ", ") + opal::to_string(k);
      sum.merge(ks);
    }
    const std::string name = "kernel." + opal::to_string(kind);
    ms.push_back({name + ".calls", static_cast<double>(sum.calls), "count",
                  "profiled run: " + used});
    ms.push_back({name + ".ns_per_call",
                  ratio(static_cast<double>(sum.ns),
                        static_cast<double>(sum.calls)),
                  "ns", ""});
  }
  const opal::KernelStat& mv =
      prof.kernels[static_cast<std::size_t>(opal::KernelKind::kMatvec)];
  const auto macs = static_cast<double>(mv.elems);
  const auto mv_ns = static_cast<double>(mv.ns);
  ms.push_back({"kernel.matvec.gmac_per_s", ratio(macs, mv_ns), "GMAC/s", ""});
  ms.push_back({"kernel.matvec.gb_per_s", ratio(4.0 * macs, mv_ns), "GB/s",
                "bytes computed from tensor sizes: 4 B fp32 weight per MAC"});

  // --- quant ---
  ms.push_back({"quant.ns_per_elem.low",
                quant_ns_per_elem(ecfg.act_policy,
                                  opal::ActivationSite::kPostLayerNorm),
                "ns", ecfg.act_policy.label() + " low-precision site"});
  ms.push_back({"quant.ns_per_elem.high",
                quant_ns_per_elem(ecfg.act_policy,
                                  opal::ActivationSite::kGeneral),
                "ns", ecfg.act_policy.label() + " high-precision site"});

  // --- sampler ---
  const auto table = request_table(w);
  ms.push_back({"sampler.us_per_token",
                sampler_us_per_token(*table.front(),
                                     ecfg.log2_softmax ? ecfg.softmax_bits : 0,
                                     mcfg.vocab),
                "us", "first request's sampling parameters"});

  // --- KV pool and prefix cache ---
  ms.push_back({"kv.peak_blocks", static_cast<double>(traced.stats.blocks_peak),
                "count", ""});
  ms.push_back({"kv.fill_frac", tt.fill_frac, "ratio",
                "positions held over blocks in use, at peak blocks"});
  ms.push_back({"kv.preemptions", static_cast<double>(traced.stats.preemptions),
                "count", "expected 0"});
  ms.push_back({"prefix.hit_frac", ratio(tt.prefix_hits, tt.admissions),
                "ratio", "admissions restoring a cached prefix"});
  ms.push_back({"prefix.token_frac",
                ratio(tt.prefix_positions,
                      static_cast<double>(traced.prompt_tokens)),
                "ratio", "prompt positions restored from the cache"});

  // --- drafter ---
  const opal::ServingEngine::Stats& st = traced.stats;
  ms.push_back({"spec.accept_frac",
                ratio(static_cast<double>(st.spec_accepted),
                      static_cast<double>(st.spec_drafted)),
                "ratio", ""});
  ms.push_back({"spec.tokens_per_burst", st.tokens_per_burst(), "tok", ""});
  ms.push_back({"spec.rows_per_output_tok",
                ratio(tt.decode_rows + tt.verify_rows,
                      static_cast<double>(traced.generated)),
                "rows/tok", "decode and verify rows per generated token"});

  // --- accel replay ---
  const auto gen = static_cast<double>(traced.generated);
  ms.push_back({"replay.dram_mb_per_tok", ratio(rep.dram_bytes / 1e6, gen),
                "MB/tok", rep.device + " device"});
  ms.push_back({"replay.dram_bound_frac",
                ratio(static_cast<double>(rep.dram_bound_steps),
                      static_cast<double>(rep.n_steps)),
                "ratio", ""});
  ms.push_back({"replay.opal_device_us_per_tok",
                ratio(rep.latency_s * 1e6, gen), "us/tok", ""});
  ms.push_back({"replay.host_ms_per_step",
                ratio(in.replay_host_ms, static_cast<double>(rep.n_steps)),
                "ms", "replay_trace CPU time per replayed step"});
  return ms;
}

}  // namespace servebench
