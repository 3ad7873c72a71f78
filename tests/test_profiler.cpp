// Kernel/layer profiler contract: interposition is invisible (profiled
// runs bitwise identical to silent in every kv_mode, threaded or serial,
// with and without speculation), exact (counts match hand-counted kernel
// invocations on a tiny model), structurally free when off (the dispatch
// table is untouched), and the drift auditor built on top of the profiled
// traces is deterministic across trace serialization.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/device.h"
#include "accel/drift.h"
#include "accel/replay.h"
#include "common/kernel_profiler.h"
#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

ModelConfig tiny_config() {
  return scaled_for_eval(llama2_7b(), 128, 2, 64);
}

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(tiny_config(), 42);
  return model;
}

std::shared_ptr<const PreparedModel> prepared(KvQuantMode mode) {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  cfg.kv_block_size = 8;
  cfg.kv_mode = mode;
  return std::make_shared<const PreparedModel>(tiny_model(), cfg);
}

std::vector<Request> workload() {
  std::vector<Request> requests;
  const std::size_t lens[4] = {5, 19, 9, 26};
  const std::size_t gens[4] = {6, 9, 4, 12};
  for (std::size_t r = 0; r < 4; ++r) {
    Request req;
    for (std::size_t i = 0; i < lens[r]; ++i) {
      req.prompt.push_back((i * 13 + 7 * r + 3) % 64);
    }
    req.max_new_tokens = gens[r];
    requests.push_back(std::move(req));
  }
  return requests;
}

struct Served {
  std::vector<std::vector<std::size_t>> tokens;
  KernelProfile profile;
  ServingEngine::Stats stats;
  MetricsRegistry::Snapshot snap;
};

Served serve(const std::shared_ptr<const PreparedModel>& model,
             ServingConfig cfg) {
  Served out;
  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  for (const auto& req : workload()) ids.push_back(engine.submit(req));
  engine.run();
  for (const RequestId id : ids) {
    out.tokens.push_back(engine.result(id).tokens);
  }
  out.profile = engine.profile();
  out.stats = engine.stats();
  out.snap = engine.metrics();
  return out;
}

// --- interposition is invisible: bitwise identity in every kv_mode x
// threading x speculation ---

TEST(Profiler, ProfiledRunBitwiseIdenticalEverywhere) {
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    const auto model = prepared(mode);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
      for (const bool spec : {false, true}) {
        ServingConfig cfg;
        cfg.max_batch = 3;
        cfg.prefill_chunk_tokens = 4;
        cfg.n_threads = threads;
        if (spec) {
          cfg.speculative.policy = DraftPolicy::kRepeat;
          cfg.speculative.draft_tokens = 3;
        }
        const Served silent = serve(model, cfg);
        ServingConfig pcfg = cfg;
        pcfg.profile = true;
        const Served profiled = serve(model, pcfg);
        const std::string where = to_string(mode) + " threads=" +
                                  std::to_string(threads) +
                                  (spec ? " spec" : "");
        EXPECT_EQ(profiled.tokens, silent.tokens) << where;
        EXPECT_EQ(profiled.stats.steps, silent.stats.steps) << where;
        EXPECT_GT(profiled.profile.total_kernel_calls(), 0u) << where;
        EXPECT_EQ(silent.profile.total_kernel_calls(), 0u) << where;
      }
    }
  }
}

// --- threaded fan-out merges to the same counts as serial decode ---

TEST(Profiler, ThreadedCountsMatchSerial) {
  const auto model = prepared(KvQuantMode::kInt8);
  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.profile = true;
  const Served serial = serve(model, cfg);
  cfg.n_threads = 3;
  const Served threaded = serve(model, cfg);
  for (std::size_t k = 0; k < kKernelKindCount; ++k) {
    EXPECT_EQ(threaded.profile.kernels[k].calls,
              serial.profile.kernels[k].calls)
        << to_string(static_cast<KernelKind>(k));
    EXPECT_EQ(threaded.profile.kernels[k].elems,
              serial.profile.kernels[k].elems)
        << to_string(static_cast<KernelKind>(k));
  }
  for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
    EXPECT_EQ(threaded.profile.phases[p].calls,
              serial.profile.phases[p].calls)
        << to_string(static_cast<LayerPhase>(p));
  }
}

// --- registry counters are the same numbers as the engine's profile ---

TEST(Profiler, RegistryCountersMirrorProfile) {
  const auto model = prepared(KvQuantMode::kLog2);
  ServingConfig cfg;
  cfg.profile = true;
  const Served r = serve(model, cfg);
  for (std::size_t k = 0; k < kKernelKindCount; ++k) {
    const std::string base =
        "profile.kernel." + to_string(static_cast<KernelKind>(k));
    EXPECT_EQ(r.snap.counter_value(base + ".calls"),
              r.profile.kernels[k].calls)
        << base;
    EXPECT_EQ(r.snap.counter_value(base + ".elems"),
              r.profile.kernels[k].elems)
        << base;
    EXPECT_EQ(r.snap.counter_value(base + ".ns"), r.profile.kernels[k].ns)
        << base;
  }
  for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
    const std::string base =
        "profile.phase." + to_string(static_cast<LayerPhase>(p));
    EXPECT_EQ(r.snap.counter_value(base + ".calls"),
              r.profile.phases[p].calls)
        << base;
    EXPECT_EQ(r.snap.counter_value(base + ".ns"), r.profile.phases[p].ns)
        << base;
  }
  // A silent engine registers no profile.* families at all.
  ServingConfig off;
  const Served silent = serve(model, off);
  EXPECT_EQ(silent.snap.find_counter("profile.kernel.matvec.calls"),
            nullptr);
}

// --- counts exactly match hand-counted kernel invocations ---

TEST(Profiler, CountsMatchHandCountedInvocations) {
  // fp32 facade of the tiny model, driven token by token with the
  // profiler bound to one local slot. Every dispatch-table call in the
  // forward pass is enumerable by hand:
  //   per step: 6L+1 matvec (Wq,Wk,Wv,Wo,fc1,fc2 per layer + tied
  //   embedding), 2L axpy (both residual adds), 1 scale (logit scale), and
  //   L*H attend_scores + L*H attend_accum (three positions fit one KV
  //   block = one segment per layer, one call per head); norm, softmax,
  //   and the activation are plain loops that never enter the dispatch
  //   table.
  const ModelConfig mc = tiny_config();
  const std::size_t L = mc.n_layers;
  const std::size_t H = mc.n_heads;
  const std::size_t d = mc.d_model;
  const auto model = prepared(KvQuantMode::kFp32);
  PassScratch scratch = model->make_scratch();

  SequenceState silent_seq = model->make_sequence();
  std::vector<std::vector<float>> silent_logits;
  for (const std::size_t tok : {std::size_t{3}, std::size_t{17},
                                std::size_t{42}}) {
    const auto out = model->step(silent_seq, tok, scratch);
    silent_logits.emplace_back(out.begin(), out.end());
  }

  KernelProfile prof;
  KernelProfiler::enable();
  KernelProfiler::bind_slot(&prof);
  SequenceState seq = model->make_sequence();
  std::vector<std::vector<float>> logits;
  for (const std::size_t tok : {std::size_t{3}, std::size_t{17},
                                std::size_t{42}}) {
    const auto out = model->step(seq, tok, scratch);
    logits.emplace_back(out.begin(), out.end());
  }
  KernelProfiler::bind_slot(nullptr);
  KernelProfiler::disable();

  EXPECT_EQ(logits, silent_logits);  // bit-for-bit through the wrapper

  const std::size_t steps = 3;
  auto stat = [&prof](KernelKind k) {
    return prof.kernels[static_cast<std::size_t>(k)];
  };
  EXPECT_EQ(stat(KernelKind::kMatvec).calls, steps * (6 * L + 1));
  EXPECT_EQ(stat(KernelKind::kMatvec).elems,
            steps * (L * (4 * d * d + 2 * d * mc.d_ffn) + mc.vocab * d));
  EXPECT_EQ(stat(KernelKind::kAxpy).calls, steps * 2 * L);
  EXPECT_EQ(stat(KernelKind::kAxpy).elems, steps * 2 * L * d);
  EXPECT_EQ(stat(KernelKind::kScale).calls, steps);
  EXPECT_EQ(stat(KernelKind::kScale).elems, steps * mc.vocab);
  // Attention: one scores + one accum call per layer per head per step;
  // elements grow with the cache (1, then 2, then 3 rows of d_head).
  EXPECT_EQ(stat(KernelKind::kAttendScores).calls, steps * L * H);
  EXPECT_EQ(stat(KernelKind::kAttendAccum).calls, steps * L * H);
  EXPECT_EQ(stat(KernelKind::kAttendScores).elems,
            (1 + 2 + 3) * L * H * mc.d_head());
  EXPECT_EQ(stat(KernelKind::kAttendAccum).elems,
            (1 + 2 + 3) * L * H * mc.d_head());
  // Nothing else fires on the fp32 path.
  EXPECT_EQ(stat(KernelKind::kDequantScoresInt8).calls, 0u);
  EXPECT_EQ(stat(KernelKind::kDequantAccumLog2).calls, 0u);
  EXPECT_EQ(prof.total_kernel_calls(),
            steps * ((6 * L + 1) + 2 * L + 1 + 2 * L * H));
  // Phase attribution saw the same structure: one qkv/attend/ffn section
  // per layer per step, two norm sections, one model-level logits section.
  auto phase = [&prof](LayerPhase p) {
    return prof.phases[static_cast<std::size_t>(p)];
  };
  EXPECT_EQ(phase(LayerPhase::kNorm).calls, steps * 2 * L);
  EXPECT_EQ(phase(LayerPhase::kQkv).calls, steps * L);
  EXPECT_EQ(phase(LayerPhase::kAttend).calls, steps * L);
  EXPECT_EQ(phase(LayerPhase::kFfn).calls, steps * L);
  EXPECT_EQ(phase(LayerPhase::kLogits).calls, steps);
  ASSERT_EQ(prof.layers.size(), L);
  for (std::size_t l = 0; l < L; ++l) {
    EXPECT_EQ(prof.layers[l][static_cast<std::size_t>(LayerPhase::kQkv)]
                  .calls,
              steps);
    EXPECT_EQ(
        prof.layers[l][static_cast<std::size_t>(LayerPhase::kLogits)].calls,
        0u);  // logits is model-level, never per-layer
  }
}

TEST(Profiler, ChunkCountsMatchHandCountedInvocations) {
  // One 3-row prefill_chunk with logits for its last row only: each weight
  // matrix is one multi-row matvec call over all three rows, and the tied
  // embedding one call over the one logits row. elems counts every MAC.
  const ModelConfig mc = tiny_config();
  const std::size_t L = mc.n_layers;
  const std::size_t d = mc.d_model;
  const auto model = prepared(KvQuantMode::kFp32);
  const std::vector<std::size_t> tokens = {3, 17, 42};
  PassScratch scratch = model->make_scratch();

  SequenceState silent_seq = model->make_sequence();
  const auto silent = model->prefill_chunk(silent_seq, tokens, scratch, nullptr, 1);
  const std::vector<float> silent_logits(silent.begin(), silent.end());

  KernelProfile prof;
  KernelProfiler::enable();
  KernelProfiler::bind_slot(&prof);
  SequenceState seq = model->make_sequence();
  const auto out = model->prefill_chunk(seq, tokens, scratch, nullptr, 1);
  const std::vector<float> logits(out.begin(), out.end());
  KernelProfiler::bind_slot(nullptr);
  KernelProfiler::disable();

  EXPECT_EQ(logits, silent_logits);  // bit-for-bit through the wrapper
  const KernelStat& mv =
      prof.kernels[static_cast<std::size_t>(KernelKind::kMatvec)];
  EXPECT_EQ(mv.calls, 6 * L + 1);
  EXPECT_EQ(mv.elems,
            3 * L * (4 * d * d + 2 * d * mc.d_ffn) + mc.vocab * d);
  const KernelStat& sc =
      prof.kernels[static_cast<std::size_t>(KernelKind::kScale)];
  EXPECT_EQ(sc.calls, 1u);
  EXPECT_EQ(sc.elems, mc.vocab);

  // BF16 activations quantize nothing. Under MX-OPAL A4/7 each layer makes
  // one mx_quantize call per site over all three rows: post-norm twice,
  // Q, K, V, the attention output and the FFN hidden, 6 * d + d_ffn
  // (1024) elements a row.
  EXPECT_EQ(
      prof.kernels[static_cast<std::size_t>(KernelKind::kMxQuantize)].calls,
      0u);
  EngineConfig mx_cfg;
  mx_cfg.act_policy = PrecisionPolicy{.scheme = QuantScheme::kMxOpal,
                                      .low_bits = 4,
                                      .high_bits = 7};
  mx_cfg.max_seq_len = 64;
  mx_cfg.kv_block_size = 8;
  const PreparedModel mx_model(tiny_model(), mx_cfg);
  PassScratch mx_scratch = mx_model.make_scratch();
  SequenceState mx_silent_seq = mx_model.make_sequence();
  const auto mx_silent =
      mx_model.prefill_chunk(mx_silent_seq, tokens, mx_scratch, nullptr, 1);
  const std::vector<float> mx_silent_logits(mx_silent.begin(),
                                            mx_silent.end());
  KernelProfile mx_prof;
  KernelProfiler::enable();
  KernelProfiler::bind_slot(&mx_prof);
  SequenceState mx_seq = mx_model.make_sequence();
  const auto mx_out =
      mx_model.prefill_chunk(mx_seq, tokens, mx_scratch, nullptr, 1);
  const std::vector<float> mx_logits(mx_out.begin(), mx_out.end());
  KernelProfiler::bind_slot(nullptr);
  KernelProfiler::disable();

  EXPECT_EQ(mx_logits, mx_silent_logits);
  const KernelStat& mq =
      mx_prof.kernels[static_cast<std::size_t>(KernelKind::kMxQuantize)];
  EXPECT_EQ(mq.calls, 7 * L);
  EXPECT_EQ(mq.elems, 3 * L * (6 * d + mc.d_ffn));
  EXPECT_EQ(6 * d + mc.d_ffn, 1024u);
}

// --- zero overhead when off, restore on disable ---

TEST(Profiler, DispatchTableUntouchedWhenOffAndRestoredAfter) {
  const KernelOps* before = &kernels();
  EXPECT_FALSE(KernelProfiler::enabled());
  EXPECT_NE(std::string(before->name), "profiled");

  // A silent engine run leaves the table pointer alone entirely.
  const auto model = prepared(KvQuantMode::kFp32);
  serve(model, ServingConfig{});
  EXPECT_EQ(&kernels(), before);

  // enable/disable nest; the last disable restores the captured pointer.
  KernelProfiler::enable();
  KernelProfiler::enable();
  EXPECT_TRUE(KernelProfiler::enabled());
  EXPECT_EQ(std::string(kernels().name), "profiled");
  EXPECT_EQ(KernelProfiler::underlying(), before);
  KernelProfiler::disable();
  EXPECT_TRUE(KernelProfiler::enabled());  // still one holder
  KernelProfiler::disable();
  EXPECT_FALSE(KernelProfiler::enabled());
  EXPECT_EQ(&kernels(), before);
}

// --- drift auditor: deterministic across trace serialization ---

/// Every field of two drift reports is the same bits.
void expect_same_drift(const DriftReport& a, const DriftReport& b) {
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.n_steps, b.n_steps);
  EXPECT_EQ(a.skipped_steps, b.skipped_steps);
  EXPECT_EQ(a.measured_s, b.measured_s);
  EXPECT_EQ(a.predicted_s, b.predicted_s);
  EXPECT_EQ(a.predicted_dram_bytes, b.predicted_dram_bytes);
  EXPECT_EQ(a.compute_bound_steps, b.compute_bound_steps);
  EXPECT_EQ(a.dram_bound_steps, b.dram_bound_steps);
  EXPECT_EQ(a.ratio_p50, b.ratio_p50);
  EXPECT_EQ(a.ratio_p95, b.ratio_p95);
  EXPECT_EQ(a.ratio_p99, b.ratio_p99);
  EXPECT_EQ(a.ratio_min, b.ratio_min);
  EXPECT_EQ(a.ratio_max, b.ratio_max);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const DriftStepRecord& x = a.steps[i];
    const DriftStepRecord& y = b.steps[i];
    EXPECT_EQ(x.step, y.step) << i;
    EXPECT_EQ(x.rows, y.rows) << i;
    EXPECT_EQ(x.measured_s, y.measured_s) << i;
    EXPECT_EQ(x.predicted_s, y.predicted_s) << i;
    EXPECT_EQ(x.predicted_dram_bytes, y.predicted_dram_bytes) << i;
    EXPECT_EQ(x.ratio, y.ratio) << i;
    EXPECT_EQ(x.dram_bound, y.dram_bound) << i;
  }
}

TEST(Profiler, DriftAuditDeterministicAcrossSerialization) {
  const auto model = prepared(KvQuantMode::kInt8);
  ServingConfig cfg;
  cfg.max_batch = 3;
  cfg.prefill_chunk_tokens = 4;
  cfg.trace = true;
  ServingEngine engine(model, cfg);
  for (const auto& req : workload()) engine.submit(req);
  engine.run();

  const StepTrace lifted = step_trace_from_tracer(engine.tracer());
  const StepTrace parsed = parse_step_trace(lifted.to_json());

  const DeviceConfig dev = make_opal_device(4, 7, 4);
  const DriftReport a = audit_drift(dev, lifted);
  const DriftReport b = audit_drift(dev, parsed);
  // Steps either audit or are skipped — none vanish.
  EXPECT_EQ(a.n_steps + a.skipped_steps, lifted.steps.size());
  expect_same_drift(a, b);
  expect_same_drift(a, audit_drift(dev, lifted));
  // Percentiles are nearest-rank: always observed ratios.
  if (a.n_steps > 0) {
    EXPECT_GE(a.ratio_p50, a.ratio_min);
    EXPECT_LE(a.ratio_p99, a.ratio_max);
    EXPECT_GT(a.run_ratio(), 0.0);
    EXPECT_EQ(a.compute_bound_steps + a.dram_bound_steps, a.n_steps);
  }
}

}  // namespace
}  // namespace opal
