// Observability must observe, never steer: a traced + metered engine
// produces bitwise identical outputs to an instrumentation-silent one in
// every kv_mode, the registry's counters exactly mirror the Stats fields
// they recount, and the latency histograms hold exactly one TTFT sample
// per request and one inter-token sample per non-first generated token.
// Subsystem counts are the subsystem's own: drafter.* holds for a custom
// drafter that counts nothing, and every engine on a shared pool reports
// the pool's lifetime traffic. A group pass streams each weight once for
// all its members and apportions its time to them by rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/kernel_profiler.h"
#include "eval/schemes.h"
#include "llm/drafter.h"
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
  // A shared prefix (prefix-cache fodder), mixed lengths and budgets.
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 8; ++i) prefix.push_back((i * 11 + 5) % 64);
  std::vector<Request> requests;
  const std::size_t tails[4] = {3, 50, 17, 61};
  const std::size_t gens[4] = {6, 9, 4, 12};
  for (std::size_t r = 0; r < 4; ++r) {
    Request req;
    req.prompt = prefix;
    req.prompt.push_back(tails[r]);
    req.max_new_tokens = gens[r];
    req.priority = static_cast<int>(r % 2);
    requests.push_back(std::move(req));
  }
  return requests;
}

struct Served {
  std::vector<std::vector<std::size_t>> tokens;
  std::size_t generated = 0;
  ServingEngine::Stats stats;
  MetricsRegistry::Snapshot snap;
  std::uint64_t trace_events = 0;
};

Served serve(const std::shared_ptr<const PreparedModel>& model,
             ServingConfig cfg) {
  Served out;
  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  for (const auto& req : workload()) ids.push_back(engine.submit(req));
  engine.run();
  for (const RequestId id : ids) {
    auto res = engine.result(id);
    out.generated += res.generated();
    out.tokens.push_back(std::move(res.tokens));
  }
  out.stats = engine.stats();
  out.snap = engine.metrics();
  out.trace_events = engine.tracer().total_emitted();
  return out;
}

ServingConfig stressed_config() {
  // Small pool + chunked prefill + prefix cache: admissions, chunks,
  // preemptions, and cache traffic all fire.
  ServingConfig cfg;
  cfg.max_batch = 3;
  cfg.prefill_chunk_tokens = 4;
  cfg.enable_prefix_cache = true;
  cfg.kv_pool_blocks = 12;
  return cfg;
}

// --- tracing never changes outputs, in every kv_mode ---

TEST(Observability, TracedRunBitwiseIdenticalEveryKvMode) {
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    const auto model = prepared(mode);
    ServingConfig plain = stressed_config();
    const Served base = serve(model, plain);
    EXPECT_EQ(base.trace_events, 0u) << to_string(mode);

    ServingConfig traced_cfg = stressed_config();
    traced_cfg.trace = true;
    const Served traced = serve(model, traced_cfg);
    EXPECT_GT(traced.trace_events, 0u) << to_string(mode);
    EXPECT_EQ(traced.tokens, base.tokens) << to_string(mode);
    EXPECT_EQ(traced.stats.steps, base.stats.steps) << to_string(mode);
    EXPECT_EQ(traced.stats.preemptions, base.stats.preemptions)
        << to_string(mode);
    EXPECT_EQ(traced.stats.tokens_decoded, base.stats.tokens_decoded)
        << to_string(mode);
  }
}

TEST(Observability, TracedRunIdenticalUnderSpeculation) {
  const auto model = prepared(KvQuantMode::kInt8);
  ServingConfig plain;
  plain.max_batch = 2;
  plain.speculative.policy = DraftPolicy::kRepeat;
  plain.speculative.draft_tokens = 3;
  const Served base = serve(model, plain);

  ServingConfig traced_cfg = plain;
  traced_cfg.trace = true;
  const Served traced = serve(model, traced_cfg);
  EXPECT_EQ(traced.tokens, base.tokens);
  EXPECT_EQ(traced.stats.spec_bursts, base.stats.spec_bursts);
  EXPECT_EQ(traced.stats.spec_accepted, base.stats.spec_accepted);
}

// --- counters exactly mirror Stats ---

TEST(Observability, CountersMirrorStats) {
  const auto model = prepared(KvQuantMode::kInt8);
  const Served r = serve(model, stressed_config());
  const auto& s = r.snap;
  EXPECT_EQ(s.counter_value("serving.steps"), r.stats.steps);
  EXPECT_EQ(s.counter_value("serving.tokens_decoded"),
            r.stats.tokens_decoded);
  EXPECT_EQ(s.counter_value("serving.preemptions"), r.stats.preemptions);
  EXPECT_EQ(s.counter_value("serving.evictions"), r.stats.evictions);
  // Every request admits once, and once more after each preemption (a
  // preemption always takes a running sequence back to the queue).
  EXPECT_EQ(s.counter_value("serving.admissions"),
            4u + r.stats.preemptions);
  EXPECT_EQ(s.counter_value("serving.finished"), 4u);
  EXPECT_EQ(s.counter_value("prefix_cache.hits"), r.stats.prefix_hits);
  EXPECT_EQ(s.counter_value("prefix_cache.hit_positions"),
            r.stats.prefix_hit_tokens);
  // The stress config provokes real traffic: chunked admissions and a
  // pool too small for three full sequences.
  EXPECT_GT(s.counter_value("serving.preemptions"), 0u);
  EXPECT_GT(s.counter_value("prefix_cache.lookups"), 0u);
  EXPECT_GT(s.counter_value("scheduler.admission_picks"), 0u);
  EXPECT_GT(s.counter_value("scheduler.budget_plans"), 0u);
  EXPECT_GT(s.counter_value("kv_pool.allocations"), 0u);
  // Drained engine: gauges read empty, every allocation was returned.
  const auto* running = s.find_gauge("serving.running");
  const auto* queued = s.find_gauge("serving.queued");
  ASSERT_NE(running, nullptr);
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(running->value, 0.0);
  EXPECT_EQ(queued->value, 0.0);
}

// A custom drafter that only appends tokens, like most user drafters: it
// keeps no counts, so every drafter.* series must come from the engine.
class AppendOnlyDrafter final : public Drafter {
 public:
  void draft(std::span<const std::size_t> tokens, std::size_t max_tokens,
             std::vector<std::size_t>& out) override {
    out.insert(out.end(), max_tokens, tokens.back());
  }
};

class SpecCountersMirrorStats : public ::testing::TestWithParam<DraftPolicy> {
};

TEST_P(SpecCountersMirrorStats, ForDrafter) {
  const auto model = prepared(KvQuantMode::kFp32);
  ServingConfig cfg;
  cfg.max_batch = 2;
  cfg.speculative.policy = GetParam();
  cfg.speculative.draft_tokens = 3;
  cfg.speculative.make_custom = [] {
    return std::make_unique<AppendOnlyDrafter>();
  };
  const Served r = serve(model, cfg);
  EXPECT_GT(r.stats.spec_bursts, 0u);
  EXPECT_EQ(r.snap.counter_value("serving.spec_bursts"),
            r.stats.spec_bursts);
  EXPECT_EQ(r.snap.counter_value("serving.spec_drafted"),
            r.stats.spec_drafted);
  EXPECT_EQ(r.snap.counter_value("serving.spec_accepted"),
            r.stats.spec_accepted);
  EXPECT_EQ(r.snap.counter_value("serving.spec_rejected"),
            r.stats.spec_rejected);
  // The drafter's own accounting is consistent with the engine's.
  EXPECT_EQ(r.snap.counter_value("drafter.accepted"),
            r.stats.spec_accepted);
  EXPECT_GE(r.snap.counter_value("drafter.proposed"),
            r.stats.spec_drafted);
  // Every burst took one draft() call that proposed its drafts.
  EXPECT_GE(r.snap.counter_value("drafter.calls"), r.stats.spec_bursts);
}

INSTANTIATE_TEST_SUITE_P(Observability, SpecCountersMirrorStats,
                         ::testing::Values(DraftPolicy::kRepeat,
                                           DraftPolicy::kCustom),
                         [](const ::testing::TestParamInfo<DraftPolicy>& i) {
                           return std::string(i.param == DraftPolicy::kRepeat
                                                  ? "repeat"
                                                  : "custom");
                         });

// --- latency histograms hold exactly the right sample counts ---

TEST(Observability, LatencyHistogramCountsExact) {
  const auto model = prepared(KvQuantMode::kInt8);
  const Served r = serve(model, stressed_config());
  const auto* ttft = r.snap.find_histogram("serving.ttft_ms");
  const auto* itl = r.snap.find_histogram("serving.itl_ms");
  const auto* step = r.snap.find_histogram("serving.step_ms");
  const auto* wait = r.snap.find_histogram("serving.queue_wait_ms");
  ASSERT_NE(ttft, nullptr);
  ASSERT_NE(itl, nullptr);
  ASSERT_NE(step, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(ttft->count, 4u);  // one first token per request
  EXPECT_EQ(itl->count, r.generated - 4u);
  EXPECT_EQ(wait->count, 4u);  // one admission wait per request
  // step_ms is observed on decoding steps only; the drain call that
  // returns 0 counts in steps but measures nothing.
  EXPECT_LT(step->count, r.stats.steps);
  EXPECT_GT(step->count, 0u);
  EXPECT_GE(ttft->p99, ttft->p50);
  EXPECT_GT(step->max, 0.0);
}

// --- a group pass streams each weight once and apportions its time ---

TEST(Observability, GroupPassesShareWeightPassesAndApportionTime) {
  // Eight one-row decodes on two workers: every step runs two group
  // passes of four slots (ServingConfig::n_threads), so the profile counts
  // 6L+1 matvec calls (six weight matrices per layer plus the tied head)
  // per group, not per slot.
  const auto model = prepared(KvQuantMode::kLog2);
  ServingConfig cfg;
  cfg.max_batch = 8;
  cfg.n_threads = 2;
  const auto requests = [] {
    std::vector<Request> out;
    for (std::size_t r = 0; r < 8; ++r) {
      Request req;
      req.prompt = {(r * 7 + 2) % 64};
      req.max_new_tokens = 6;
      req.sampling.policy = SamplePolicy::kTopP;
      req.sampling.top_p = 0.9f;
      req.sampling.seed = 40 + r;
      out.push_back(std::move(req));
    }
    return out;
  }();
  const auto run = [&](ServingConfig c) {
    auto engine = std::make_unique<ServingEngine>(model, c);
    for (const Request& req : requests) engine->submit(req);
    engine->run();
    return engine;
  };
  const auto silent = run(cfg);
  ServingConfig observed_cfg = cfg;
  observed_cfg.profile = true;
  observed_cfg.trace = true;
  const auto observed = run(observed_cfg);
  for (RequestId id = 1; id <= 8; ++id) {
    EXPECT_EQ(observed->result(id).tokens, silent->result(id).tokens);
  }

  const std::size_t layers = tiny_config().n_layers;
  const std::size_t steps = observed->stats().tokens_decoded / 8;
  ASSERT_EQ(steps, 6u);  // every step decoded all eight slots
  const KernelStat& mv =
      observed->profile().kernels[static_cast<std::size_t>(
          KernelKind::kMatvec)];
  EXPECT_EQ(mv.calls, steps * 2 * (6 * layers + 1));

  // Each step's eight pass events, in slot order: two groups of four,
  // each group's members ending together, with shares of one-row members
  // at most 1 us apart that sum to no more than the step.
  std::vector<TraceEvent> passes;
  for (const TraceEvent& e : observed->tracer().events()) {
    if (e.kind == TraceEventKind::kDecode) {
      passes.push_back(e);
      continue;
    }
    if (e.kind != TraceEventKind::kStep) continue;
    ASSERT_EQ(passes.size(), 8u) << "step " << e.step;
    std::uint64_t total = 0;
    for (std::size_t g = 0; g < 2; ++g) {
      std::uint64_t lo = passes[4 * g].dur_us, hi = lo;
      for (std::size_t i = 4 * g; i < 4 * g + 4; ++i) {
        EXPECT_EQ(passes[i].ts_us, passes[4 * g].ts_us) << "step " << e.step;
        lo = std::min(lo, passes[i].dur_us);
        hi = std::max(hi, passes[i].dur_us);
        total += passes[i].dur_us;
      }
      EXPECT_LE(hi - lo, 1u) << "step " << e.step << " group " << g;
    }
    EXPECT_LE(total, 2 * e.dur_us) << "step " << e.step;
    passes.clear();
  }
}

TEST(Observability, OneGroupApportionsTimeByRows) {
  // Serial (one group of every slot) with chunked prefill: members of
  // different widths share one group pass, and each gets the floor-
  // cumulative share of its rows: |share * R - D * rows| < R over the
  // group's R rows and D microseconds (the shares' sum, which fits in the
  // step).
  const auto model = prepared(KvQuantMode::kInt8);
  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.prefill_chunk_tokens = 4;
  cfg.trace = true;
  ServingEngine engine(model, cfg);
  for (const std::size_t len : {1, 6, 11, 3}) {
    Request req;
    for (std::size_t i = 0; i < len; ++i) req.prompt.push_back(i * 5 % 64);
    req.max_new_tokens = 5;
    engine.submit(std::move(req));
  }
  engine.run();
  std::vector<TraceEvent> passes;
  std::size_t mixed_steps = 0;
  for (const TraceEvent& e : engine.tracer().events()) {
    if (e.kind == TraceEventKind::kDecode || e.kind == TraceEventKind::kChunk ||
        e.kind == TraceEventKind::kSpecBurst) {
      passes.push_back(e);
      continue;
    }
    if (e.kind != TraceEventKind::kStep || passes.empty()) continue;
    std::uint64_t rows = 0, dur = 0;
    bool mixed = false;
    for (const TraceEvent& p : passes) {
      EXPECT_EQ(p.ts_us, passes.front().ts_us) << "step " << e.step;
      rows += p.a;
      dur += p.dur_us;
      mixed = mixed || p.a != passes.front().a;
    }
    EXPECT_LE(dur, e.dur_us) << "step " << e.step;
    for (const TraceEvent& p : passes) {
      const auto share = static_cast<double>(p.dur_us * rows);
      const auto exact = static_cast<double>(dur * p.a);
      EXPECT_LT(std::abs(share - exact), static_cast<double>(rows))
          << "step " << e.step;
    }
    mixed_steps += mixed;
    passes.clear();
  }
  EXPECT_GT(mixed_steps, 0u);
}

// --- scheduler policy swap leaves outputs alone, counters follow policy ---

TEST(Observability, PolicyCountersFollowThePolicy) {
  const auto model = prepared(KvQuantMode::kFp32);
  ServingConfig cfg = stressed_config();
  cfg.scheduler = std::make_shared<PriorityScheduler>();
  const Served prio = serve(model, cfg);
  const Served fifo = serve(model, stressed_config());
  EXPECT_EQ(prio.tokens, fifo.tokens);  // policy moves latency, not tokens
  // Picks can exceed admissions (a picked candidate may fail to get its
  // blocks), never vice versa. Every preemption of this run (no manual
  // preempt() call) is the scheduler's victim pick.
  EXPECT_GE(prio.snap.counter_value("scheduler.admission_picks"),
            prio.snap.counter_value("serving.admissions"));
  EXPECT_GT(prio.stats.preemptions, 0u);
  EXPECT_EQ(prio.snap.counter_value("scheduler.victim_picks"),
            prio.stats.preemptions);
}

}  // namespace
}  // namespace opal
