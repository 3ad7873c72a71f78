// Golden end-to-end bits: the paper's operating point (OWQ W4, MX-OPAL A4/7,
// log2 softmax) served through ServingEngine with chunked prefill, hashed
// over every observed logit and every token.
//
// Every other bitwise suite compares two serving paths that share one
// quantizer and one softmax unit, so a change to those would pass all of
// them. These hashes were recorded before the fused activation path
// replaced decode(encode()); any change to the bits of the quantizer, the
// bf16 rounding, the log2 softmax unit or the sampler's use of it fails
// here. Re-record a hash only for a change meant to alter outputs, and say
// so in its commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/serving_engine.h"
#include "serving_invariants.h"

namespace opal {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

const SyntheticModel& golden_model() {
  // d_model 192 puts a 64-element tail block behind every 128-element
  // block of the attention-path activations; d_ffn rounds to 512.
  static const SyntheticModel model(scaled_for_eval(llama2_7b(), 192, 2, 96),
                                    17);
  return model;
}

std::vector<Request> golden_requests() {
  std::vector<Request> requests;
  for (std::size_t r = 0; r < 4; ++r) {
    Request req;
    for (std::size_t i = 0; i < 9 + 5 * r; ++i) {
      req.prompt.push_back((i * 37 + r * 11 + 3) % 96);
    }
    req.max_new_tokens = 10;
    if (r % 2 == 1) {  // seeded top-p on the sampler's log2 path
      req.sampling.policy = SamplePolicy::kTopP;
      req.sampling.temperature = 0.8f;
      req.sampling.top_p = 0.9f;
      req.sampling.seed = 100 + r;
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Runs every hash under the forced-scalar table (the source-order IEEE
/// reference) and under the table the host dispatches to, so a SIMD kernel
/// change that moves served bits fails here too. At W4 A4/7 every double sum
/// is exact, so those hashes are the same on every table; only
/// FacadeStepBf16, whose fp32 sums round, is recorded per table.
class GoldenBits : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { set_force_scalar_kernels(GetParam()); }
  void TearDown() override { set_force_scalar_kernels(false); }
};

INSTANTIATE_TEST_SUITE_P(Tables, GoldenBits, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcedScalar" : "Dispatched";
                         });

std::uint64_t serve_hash(KvQuantMode mode) {
  EngineConfig ecfg = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  ecfg.max_seq_len = 64;
  ecfg.kv_block_size = 8;
  ecfg.kv_mode = mode;
  const auto model = std::make_shared<const PreparedModel>(golden_model(), ecfg);

  ServingConfig scfg;
  scfg.max_batch = 4;
  scfg.prefill_chunk_tokens = 4;
  ServingEngine engine(model, scfg);
  std::uint64_t h = kFnvOffset;
  engine.set_logits_observer(
      [&h](RequestId id, std::size_t pos, std::span<const float> logits) {
        fnv_mix(h, id);
        fnv_mix(h, pos);
        for (const float v : logits) fnv_mix(h, std::bit_cast<std::uint32_t>(v));
      });
  std::vector<RequestId> ids;
  for (const Request& req : golden_requests()) ids.push_back(engine.submit(req));
  engine.run();
  for (const RequestId id : ids) {
    const RequestResult res = engine.result(id);
    EXPECT_EQ(res.status, RequestStatus::kFinished);
    for (const std::size_t t : res.tokens) fnv_mix(h, t);
  }
  return h;
}

TEST_P(GoldenBits, MxOpalLog2ServingFp32Kv) {
  EXPECT_EQ(serve_hash(KvQuantMode::kFp32), 0x16e758c26127343bull);
}

TEST_P(GoldenBits, MxOpalLog2ServingInt8Kv) {
  EXPECT_EQ(serve_hash(KvQuantMode::kInt8), 0x4393bb76422f6c14ull);
}

TEST_P(GoldenBits, MxOpalLog2ServingLog2Kv) {
  EXPECT_EQ(serve_hash(KvQuantMode::kLog2), 0x0aec89d766a889ffull);
}

// --- the engine's decisions ---
//
// The hashes above pin what is served; this one pins how: every admission,
// budget shrink, preemption, prefix hit, pass and retirement of one mixed,
// squeezed run. Hashed: each TraceEvent's kind, step, request and payload
// (not its timestamps), every Stats field, and every counter and gauge of
// metrics(). Recorded before ServingEngine::step was split into phases;
// a restructuring of the engine must leave it unchanged.

void mix_stats(std::uint64_t& h, const ServingEngine::Stats& s) {
  for (const std::size_t v :
       {s.blocks_in_use, s.blocks_free, s.blocks_peak, s.blocks_reclaimable,
        s.running, s.queued, s.evictions, s.preemptions, s.tokens_decoded,
        s.steps, s.prefix_hits, s.prefix_misses, s.prefix_hit_tokens,
        s.prefix_cached_blocks, s.prefix_reclaimed_blocks, s.spec_bursts,
        s.spec_drafted, s.spec_accepted, s.spec_rejected}) {
    fnv_mix(h, v);
  }
  for (const auto& [priority, c] : s.by_priority) {
    fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(priority)));
    for (const std::size_t v :
         {c.submitted, c.finished, c.evicted, c.tokens_served,
          c.queue_wait_steps, c.first_decodes, c.ttft_steps, c.first_tokens}) {
      fnv_mix(h, v);
    }
  }
  for (const auto& [reason, count] : s.finish_reasons) {
    fnv_mix(h, static_cast<std::uint64_t>(reason));
    fnv_mix(h, count);
  }
}

void mix_name(std::uint64_t& h, std::string_view name) {
  for (const char c : name) fnv_mix(h, static_cast<unsigned char>(c));
}

TEST_P(GoldenBits, ServingDecisionTrace) {
  EngineConfig ecfg = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  ecfg.max_seq_len = 64;
  ecfg.kv_block_size = 8;
  ecfg.kv_mode = KvQuantMode::kInt8;
  const auto model = std::make_shared<const PreparedModel>(golden_model(), ecfg);

  ServingConfig scfg;
  scfg.max_batch = 4;
  scfg.n_threads = 2;
  scfg.prefill_chunk_tokens = 8;
  scfg.scheduler = std::make_shared<PriorityScheduler>();
  scfg.speculative.policy = DraftPolicy::kNgram;
  scfg.speculative.draft_tokens = 4;
  scfg.enable_prefix_cache = true;
  scfg.kv_pool_blocks = 24;  // six block columns for four slots
  scfg.trace = true;
  ServingEngine engine(model, scfg);
  std::uint64_t h = kFnvOffset;
  engine.set_logits_observer(
      [&h](RequestId id, std::size_t pos, std::span<const float>) {
        fnv_mix(h, id);
        fnv_mix(h, pos);
      });

  // Two shared 16-token histories (two full blocks each), repetitive enough
  // for the n-gram drafter, under two priority classes.
  const auto request = [](std::size_t history, std::size_t tail, int priority,
                          bool top_p) {
    Request req;
    for (std::size_t i = 0; i < 16; ++i) {
      req.prompt.push_back((history * 29 + (i % 6) * 7) % 96);
    }
    for (std::size_t i = 0; i < tail; ++i) {
      req.prompt.push_back((tail * 13 + i * 5) % 96);
    }
    req.max_new_tokens = 12;
    req.priority = priority;
    if (top_p) {
      req.sampling.policy = SamplePolicy::kTopP;
      req.sampling.temperature = 0.8f;
      req.sampling.top_p = 0.9f;
      req.sampling.seed = 7 + tail;
    }
    return req;
  };
  std::vector<Request> requests;
  std::vector<RequestId> ids;
  const auto submit = [&](Request req) {
    requests.push_back(req);
    ids.push_back(engine.submit(std::move(req)));
  };
  for (std::size_t r = 0; r < 5; ++r) {
    submit(request(r % 2, 3 + r, static_cast<int>(r % 2), r % 3 == 1));
  }
  bool manual_preempt = false;
  for (std::size_t s = 0; s < 400; ++s) {
    if (s == 6) {
      // Late arrivals over the same histories: prefix hits.
      for (std::size_t r = 5; r < 9; ++r) {
        submit(request(r % 2, 2 + r, static_cast<int>(r % 2), r % 3 == 0));
      }
    }
    if (s == 4) {
      for (const RequestId id : ids) {
        const RequestResult res = engine.result(id);
        if (res.status == RequestStatus::kRunning && res.tokens.size() > 6) {
          engine.preempt(id);
          manual_preempt = true;
          break;
        }
      }
    }
    if (engine.step() == 0 && engine.queued() == 0) break;
  }
  ASSERT_TRUE(manual_preempt);
  ASSERT_EQ(engine.running(), 0u);
  ASSERT_EQ(engine.queued(), 0u);

  std::size_t shrinks = 0, preempts = 0, hits = 0, rejecting_bursts = 0;
  for (const TraceEvent& e : engine.tracer().events()) {
    fnv_mix(h, static_cast<std::uint64_t>(e.kind));
    for (const std::uint64_t v : {e.step, e.request, e.a, e.b, e.c, e.d}) {
      fnv_mix(h, v);
    }
    shrinks += e.kind == TraceEventKind::kBudgetShrink;
    preempts += e.kind == TraceEventKind::kPreempt;
    hits += e.kind == TraceEventKind::kPrefixHit;
    rejecting_bursts += e.kind == TraceEventKind::kSpecBurst && e.d < e.a;
  }
  EXPECT_EQ(engine.tracer().truncated_events(), 0u);
  EXPECT_GT(shrinks, 0u);
  EXPECT_GT(preempts, 1u);  // the manual one and at least one under pressure
  EXPECT_GT(hits, 0u);
  EXPECT_GT(rejecting_bursts, 0u);

  mix_stats(h, engine.stats());
  const MetricsRegistry::Snapshot m = engine.metrics();
  for (const auto& c : m.counters) {
    mix_name(h, c.name);
    fnv_mix(h, c.value);
  }
  for (const auto& g : m.gauges) {
    mix_name(h, g.name);
    fnv_mix(h, std::bit_cast<std::uint64_t>(g.value));
  }
  for (const RequestId id : ids) {
    const RequestResult res = engine.result(id);
    fnv_mix(h, static_cast<std::uint64_t>(res.status));
    fnv_mix(h, static_cast<std::uint64_t>(res.finish_reason));
    for (const std::size_t t : res.tokens) fnv_mix(h, t);
  }
  EXPECT_EQ(h, 0x95ff042390db9430ull);

  // Every stream, the preempted one included, is its solo decode: one slot,
  // an unbounded pool, no speculation and no prefix cache.
  for (std::size_t r = 0; r < ids.size(); ++r) {
    EXPECT_EQ(engine.result(ids[r]).tokens,
              solo_serve_tokens(model, requests[r]))
        << "request " << r;
  }
}

// --- the batch-of-1 facade ---
//
// InferenceEngine and ModelDrafter decode through a SequenceState that owns
// its KV storage; ServingEngine never touches it, so the hashes above do not
// cover it. These were recorded while the facade still ran on the dense KV
// backend.

EngineConfig facade_config(EngineConfig ecfg) {
  ecfg.max_seq_len = 64;
  ecfg.kv_block_size = 8;
  return ecfg;
}

std::vector<std::size_t> facade_prompt() {
  // 21 tokens: two full KV blocks and a partly filled third.
  std::vector<std::size_t> prompt;
  for (std::size_t i = 0; i < 21; ++i) prompt.push_back((i * 41 + 7) % 96);
  return prompt;
}

/// Every logit of every InferenceEngine::step over facade_prompt().
std::uint64_t facade_step_hash(const EngineConfig& ecfg) {
  InferenceEngine engine(std::make_shared<const PreparedModel>(
      golden_model(), facade_config(ecfg)));
  std::uint64_t h = kFnvOffset;
  for (const std::size_t token : facade_prompt()) {
    for (const float v : engine.step(token)) {
      fnv_mix(h, std::bit_cast<std::uint32_t>(v));
    }
  }
  return h;
}

constexpr std::uint64_t kFacadeMxOpalHash = 0x3f9acd1fada48bc4ull;

TEST_P(GoldenBits, FacadeStepBf16) {
  // bf16 weights with fp32 activations round their double sums, so these
  // bits follow each table's reduction order.
  const std::string_view table = kernels().name;
  std::uint64_t want = 0;
  if (table == "scalar") {
    want = 0xab3f6a82aa070c7eull;
  } else if (table == "avx2") {
    want = 0x46467fd7b3af4559ull;
  } else {
    GTEST_SKIP() << "no FacadeStepBf16 hash recorded for the " << table
                 << " table";
  }
  EXPECT_EQ(facade_step_hash(scheme_bf16()), want);
}

TEST_P(GoldenBits, FacadeStepMxOpalLog2) {
  EXPECT_EQ(facade_step_hash(scheme_mx_opal(4, 4, 7, true)),
            kFacadeMxOpalHash);
}

TEST_P(GoldenBits, FacadeKeepsFp32KvWhateverKvMode) {
  // kv_mode lays out the serving pools only; the facade's own KV is fp32.
  EngineConfig ecfg = scheme_mx_opal(4, 4, 7, true);
  ecfg.kv_mode = KvQuantMode::kInt8;
  EXPECT_EQ(facade_step_hash(ecfg), kFacadeMxOpalHash);
}

TEST_P(GoldenBits, FacadeGenerateTopP) {
  InferenceEngine engine(std::make_shared<const PreparedModel>(
      golden_model(), facade_config(scheme_mx_opal(4, 4, 7, true))));
  SamplingParams params;
  params.policy = SamplePolicy::kTopP;
  params.temperature = 0.8f;
  params.top_p = 0.9f;
  params.seed = 29;
  const GenerationResult out = engine.generate(facade_prompt(), 16, params);
  std::uint64_t h = kFnvOffset;
  for (const std::size_t t : out.tokens) fnv_mix(h, t);
  EXPECT_EQ(out.tokens.size(), facade_prompt().size() + 16);
  EXPECT_EQ(h, 0xb59e95d1d6e36320ull);
}

TEST_P(GoldenBits, ModelDrafterSpecAccepted) {
  // A bf16 drafter proposing for the MX-OPAL target: acceptance depends on
  // every logit the drafter's private state produces.
  const auto target = std::make_shared<const PreparedModel>(
      golden_model(), facade_config(scheme_mx_opal(4, 4, 7, true)));
  ServingConfig scfg;
  scfg.max_batch = 2;
  scfg.speculative.policy = DraftPolicy::kModel;
  scfg.speculative.draft_tokens = 3;
  scfg.speculative.draft_model = std::make_shared<const PreparedModel>(
      golden_model(), facade_config(scheme_bf16()));
  ServingEngine engine(target, scfg);
  for (const Request& req : golden_requests()) engine.submit(req);
  engine.run();
  EXPECT_EQ(engine.stats().spec_accepted, 15u);
}

}  // namespace
}  // namespace opal
