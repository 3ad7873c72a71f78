// Speculative decoding: committed output must be BITWISE identical to the
// non-speculative engine — greedy and seeded-sampled, in every kv_mode,
// threaded or not, prefix cache on or off, through all-accepted bursts,
// all-rejected mid-block rollbacks, and preempt -> readmit replay. Drafters
// only change how many model passes the stream takes (Stats::spec_*).
#include "llm/drafter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "accel/device.h"
#include "accel/replay.h"
#include "eval/schemes.h"
#include "llm/sampler.h"
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

EngineConfig engine_config(KvQuantMode mode) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;  // small blocks: bursts regularly cross boundaries
  cfg.kv_mode = mode;
  return cfg;
}

constexpr KvQuantMode kAllModes[] = {KvQuantMode::kFp32, KvQuantMode::kInt8,
                                     KvQuantMode::kLog2};

/// Always proposes one fixed token — with that token logit-biased to
/// impossibility, every burst is fully rejected (worst-case rollback).
class ConstDrafter final : public Drafter {
 public:
  explicit ConstDrafter(std::size_t token) : token_(token) {}
  void draft(std::span<const std::size_t> tokens, std::size_t max_tokens,
             std::vector<std::size_t>& out) override {
    (void)tokens;
    out.insert(out.end(), max_tokens, token_);
  }

 private:
  std::size_t token_;
};

struct Outcome {
  std::vector<std::vector<std::size_t>> tokens;    // per request, final
  std::vector<FinishReason> reasons;               // per request
  std::vector<std::vector<std::size_t>> streamed;  // token-observer capture
  std::vector<std::vector<ServingEngine::TokenLogprobInfo>> infos;
  ServingEngine::Stats stats;
};

Outcome serve(const std::shared_ptr<const PreparedModel>& model,
              ServingConfig cfg, const std::vector<Request>& requests,
              bool force_preempt = false) {
  ServingEngine engine(model, cfg);
  std::map<RequestId, std::size_t> index_of;
  Outcome out;
  out.streamed.resize(requests.size());
  out.infos.resize(requests.size());
  engine.set_token_observer([&](RequestId id, std::size_t index,
                                std::size_t token, FinishReason) {
    auto& stream = out.streamed[index_of.at(id)];
    EXPECT_EQ(index, stream.size());  // in order, exactly once each
    stream.push_back(token);
  });
  engine.set_token_logprob_observer(
      [&](RequestId id, std::size_t index,
          const ServingEngine::TokenLogprobInfo& info) {
        auto& infos = out.infos[index_of.at(id)];
        EXPECT_EQ(index, infos.size());  // same cadence as the token stream
        infos.push_back(info);
      });
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const RequestId id = engine.submit(requests[r]);
    index_of.emplace(id, r);
    ids.push_back(id);
  }
  if (force_preempt) {
    for (int i = 0; i < 5; ++i) engine.step();
    for (const RequestId id : ids) {
      if (!engine.finished(id) &&
          engine.result(id).status == RequestStatus::kRunning) {
        engine.preempt(id);
      }
    }
  }
  engine.run();
  out.stats = engine.stats();
  for (const RequestId id : ids) {
    const auto result = engine.result(id);
    EXPECT_EQ(result.status, RequestStatus::kFinished);
    out.tokens.push_back(result.tokens);
    out.reasons.push_back(result.finish_reason);
  }
  return out;
}

void expect_same_output(const Outcome& a, const Outcome& b,
                        const std::string& what) {
  ASSERT_EQ(a.tokens, b.tokens) << what;
  ASSERT_EQ(a.reasons, b.reasons) << what;
  ASSERT_EQ(a.streamed, b.streamed) << what;
}

std::vector<Request> greedy_requests() {
  std::vector<Request> requests;
  Request plain;
  plain.prompt = {3, 9, 27, 17};
  plain.max_new_tokens = 12;
  requests.push_back(plain);
  Request repetitive;  // mid-block frontier: prompt 6 with block size 4
  repetitive.prompt = {5, 6, 7, 5, 6, 7};
  repetitive.max_new_tokens = 10;
  requests.push_back(repetitive);
  Request biased;
  biased.prompt = {40, 41, 2};
  biased.max_new_tokens = 9;
  biased.sampling.repetition_penalty = 1.3f;  // hooks run per verify row too
  requests.push_back(biased);
  return requests;
}

// --- drafter unit behavior ---

TEST(Drafter, NgramProposesMostRecentContinuation) {
  NgramDrafter drafter(3, 1);
  const std::vector<std::size_t> tokens = {5, 6, 7, 5, 6};
  std::vector<std::size_t> out;
  // Suffix [5, 6] matches at position 0; continuation is [7, 5, 6].
  drafter.draft(tokens, 3, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{7, 5, 6}));

  out.clear();
  drafter.draft(tokens, 1, out);  // capped at the requested budget
  EXPECT_EQ(out, (std::vector<std::size_t>{7}));

  out.clear();
  const std::vector<std::size_t> fresh = {1, 2, 3, 4};
  drafter.draft(fresh, 3, out);  // no repeated suffix: no proposals
  EXPECT_TRUE(out.empty());
}

TEST(Drafter, RepeatProposesFrontierToken) {
  RepeatDrafter drafter;
  const std::vector<std::size_t> tokens = {1, 2};
  std::vector<std::size_t> out;
  drafter.draft(tokens, 3, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{2, 2, 2}));
}

TEST(Drafter, FactoryEnforcesPolicyRequirements) {
  SpeculativeConfig config;
  EXPECT_EQ(make_drafter(config), nullptr);  // kNone
  config.policy = DraftPolicy::kModel;       // no draft_model
  EXPECT_THROW(make_drafter(config), std::invalid_argument);
  config.policy = DraftPolicy::kCustom;      // no factory
  EXPECT_THROW(make_drafter(config), std::invalid_argument);
  config.policy = DraftPolicy::kNgram;
  ASSERT_NE(make_drafter(config), nullptr);
  EXPECT_TRUE(config.enabled());
  config.draft_tokens = 0;  // the draft_tokens gate disables any policy
  EXPECT_FALSE(config.enabled());
}

// --- greedy bitwise equality, every mode x drafter x engine shape ---

TEST(Speculative, GreedyBitwiseAcrossModesDraftersAndEngineShapes) {
  const auto requests = greedy_requests();
  for (const KvQuantMode mode : kAllModes) {
    auto model = std::make_shared<const PreparedModel>(tiny_model(),
                                                       engine_config(mode));
    ServingConfig base;
    base.max_batch = 2;  // queueing + continuous refill
    const auto reference = serve(model, base, requests);
    EXPECT_EQ(reference.stats.spec_bursts, 0u);

    ServingConfig ngram = base;
    ngram.speculative.policy = DraftPolicy::kNgram;
    ngram.speculative.draft_tokens = 3;
    ServingConfig repeat = base;
    repeat.speculative.policy = DraftPolicy::kRepeat;
    repeat.speculative.draft_tokens = 4;
    ServingConfig threaded = ngram;
    threaded.n_threads = 3;
    ServingConfig cached = ngram;
    cached.enable_prefix_cache = true;
    ServingConfig chunked = repeat;
    chunked.prefill_chunk_tokens = 4;
    chunked.scheduler = std::make_shared<FairShareScheduler>();

    const std::string tag = to_string(mode);
    const auto repeat_run = serve(model, repeat, requests);
    expect_same_output(reference, serve(model, ngram, requests),
                       tag + " ngram");
    expect_same_output(reference, repeat_run, tag + " repeat");
    expect_same_output(reference, serve(model, threaded, requests),
                       tag + " ngram threads=3");
    expect_same_output(reference, serve(model, cached, requests),
                       tag + " ngram prefix-cache");
    expect_same_output(reference, serve(model, chunked, requests),
                       tag + " repeat chunk4 fair-share");
    // The repeat drafter proposes every step a frontier exists, so bursts
    // demonstrably ran — equality above is not vacuous.
    EXPECT_GT(repeat_run.stats.spec_bursts, 0u) << tag;
    EXPECT_GT(repeat_run.stats.spec_drafted, 0u) << tag;
  }
}

// --- all-accepted: self-drafting with the target model itself ---

TEST(Speculative, ModelDrafterOnTargetModelAcceptsAllAndSavesSteps) {
  // fp32 KV: the drafter's private state computes bitwise the same logits as
  // the engine's paged state, so greedy drafts are always the engine's own
  // next token — every draft accepts, and tokens/burst is maximal.
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  std::vector<Request> requests;
  Request req;
  req.prompt = {3, 9, 27, 17};
  req.max_new_tokens = 12;
  requests.push_back(req);

  ServingConfig base;
  const auto reference = serve(model, base, requests);

  ServingConfig spec = base;
  spec.speculative.policy = DraftPolicy::kModel;
  spec.speculative.draft_tokens = 3;
  spec.speculative.draft_model = model;
  const auto run = serve(model, spec, requests);

  expect_same_output(reference, run, "model-drafter fp32");
  EXPECT_GT(run.stats.spec_bursts, 0u);
  EXPECT_GT(run.stats.spec_drafted, 0u);
  EXPECT_EQ(run.stats.spec_rejected, 0u);
  EXPECT_EQ(run.stats.spec_accepted, run.stats.spec_drafted);
  EXPECT_GT(run.stats.tokens_per_burst(), 1.0);
  // >1 token per model pass: the whole point — fewer engine steps.
  EXPECT_LT(run.stats.steps, reference.stats.steps);
  // Acceptance diagnostics: every committed token except each burst's
  // bonus token matched its fed draft.
  std::size_t hits = 0;
  for (const auto& info : run.infos[0]) hits += info.draft_hit ? 1u : 0u;
  EXPECT_EQ(hits, run.stats.spec_accepted);
}

// --- all-rejected: mid-block rollback, warm prefix cache, every mode ---

TEST(Speculative, AllRejectedRollbackIsBitwiseInEveryModeWithWarmCache) {
  constexpr std::size_t kBanned = 7;
  std::vector<Request> requests;
  for (int copy = 0; copy < 2; ++copy) {
    Request req;
    req.prompt = {5, 6, 7, 5, 6, 7};  // frontier lands mid-block (block 4)
    req.max_new_tokens = 10;
    // The drafter proposes only kBanned; the bias makes sampling it
    // impossible, so every verify burst rejects all its drafts and rolls
    // back — repeatedly, mid-block, over prefix-cache-shared blocks (the
    // second copy admits onto the first's cached prefix).
    req.sampling.logit_bias = {{kBanned, -1e9f}};
    requests.push_back(req);
  }
  for (const KvQuantMode mode : kAllModes) {
    auto model = std::make_shared<const PreparedModel>(tiny_model(),
                                                       engine_config(mode));
    ServingConfig base;
    base.max_batch = 1;  // strictly sequential: copy 2 reuses copy 1's cache
    base.enable_prefix_cache = true;
    const auto reference = serve(model, base, requests);

    ServingConfig spec = base;
    spec.speculative.policy = DraftPolicy::kCustom;
    spec.speculative.draft_tokens = 3;
    spec.speculative.make_custom = [kBanned] {
      return std::make_unique<ConstDrafter>(kBanned);
    };
    const auto run = serve(model, spec, requests);

    const std::string tag = to_string(mode);
    expect_same_output(reference, run, tag + " all-rejected");
    EXPECT_GT(run.stats.spec_bursts, 0u) << tag;
    EXPECT_EQ(run.stats.spec_accepted, 0u) << tag;
    EXPECT_EQ(run.stats.spec_rejected, run.stats.spec_drafted) << tag;
    // Identical prompts + greedy: both copies must emit the same stream,
    // and the cache-warm second copy must have hit the first's prefix.
    EXPECT_EQ(run.tokens[0], run.tokens[1]) << tag;
    EXPECT_GT(run.stats.prefix_hits, 0u) << tag;
  }
}

// --- seeded sampling: bitwise streams + exact replay across preemption ---

TEST(Speculative, SeededSampledStreamsBitwiseAndReplayAcrossPreempt) {
  std::vector<Request> requests;
  Request topp;
  topp.prompt = {5, 6, 7, 5, 6, 7};
  topp.sampling.policy = SamplePolicy::kTopP;
  topp.sampling.temperature = 1.1f;
  topp.sampling.top_k = 16;
  topp.sampling.top_p = 0.85f;
  topp.sampling.seed = 13;
  topp.max_new_tokens = 12;
  requests.push_back(topp);
  Request temp = topp;
  temp.prompt = {3, 9, 27, 17};
  temp.sampling.top_k = 0;  // pure temperature: no top-k, no nucleus
  temp.sampling.top_p = 1.0f;
  temp.sampling.seed = 99;
  requests.push_back(temp);

  for (const KvQuantMode mode : kAllModes) {
    auto model = std::make_shared<const PreparedModel>(tiny_model(),
                                                       engine_config(mode));
    ServingConfig base;
    base.max_batch = 2;
    const auto reference = serve(model, base, requests);

    ServingConfig spec = base;
    spec.speculative.policy = DraftPolicy::kRepeat;
    spec.speculative.draft_tokens = 3;

    const std::string tag = to_string(mode);
    const auto run = serve(model, spec, requests);
    expect_same_output(reference, run, tag + " sampled spec");
    EXPECT_GT(run.stats.spec_bursts, 0u) << tag;
    // Preempt mid-stream: replay re-feeds known tokens without draws, then
    // speculation resumes — the RNG stream must land on the exact same
    // draws (one per generated token, rejected rows consume none).
    expect_same_output(reference, serve(model, spec, requests, true),
                       tag + " sampled spec preempt-replay");
  }
}

// --- stats invariants ---

TEST(Speculative, StatsInvariants) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kInt8));
  const auto requests = greedy_requests();

  ServingConfig off;
  const auto base = serve(model, off, requests);
  EXPECT_EQ(base.stats.spec_bursts, 0u);
  EXPECT_EQ(base.stats.spec_drafted, 0u);
  EXPECT_EQ(base.stats.spec_accepted, 0u);
  EXPECT_EQ(base.stats.spec_rejected, 0u);
  EXPECT_EQ(base.stats.tokens_per_burst(), 0.0);

  ServingConfig on;
  on.speculative.policy = DraftPolicy::kRepeat;
  on.speculative.draft_tokens = 4;
  const auto run = serve(model, on, requests);
  EXPECT_GT(run.stats.spec_bursts, 0u);
  EXPECT_EQ(run.stats.spec_drafted,
            run.stats.spec_accepted + run.stats.spec_rejected);
  // tokens_decoded counts executed rows (incl. rejected); the committed
  // tokens_served accounting must exclude them. Identical streams mean
  // identical committed totals — only the executed-row count may grow.
  EXPECT_GE(run.stats.tokens_decoded, base.stats.tokens_decoded);
  std::size_t base_served = 0, run_served = 0;
  for (const auto& [prio, s] : base.stats.by_priority) {
    base_served += s.tokens_served;
  }
  for (const auto& [prio, s] : run.stats.by_priority) {
    run_served += s.tokens_served;
  }
  EXPECT_EQ(run_served, base_served);
  EXPECT_EQ(run.stats.tokens_decoded - run.stats.spec_rejected, run_served);
}

// --- logits only for the rows someone reads ---

TEST(Speculative, LogitsObserverChangesNoServedBitOrCount) {
  // Chunk-16 prefill of 40-token repetitive prompts, then n-gram verify
  // bursts. Without a logits observer the engine computes logits only for
  // the rows it samples; with one, every row. Both must serve the same
  // tokens, the same Stats and the same replayed generated-token count.
  EngineConfig ecfg = engine_config(KvQuantMode::kInt8);
  ecfg.max_seq_len = 64;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), ecfg);
  std::vector<Request> requests;
  for (std::size_t r = 0; r < 3; ++r) {
    Request req;
    for (std::size_t i = 0; i < 40; ++i) {
      req.prompt.push_back((i % (5 + r)) * 7 + r);
    }
    req.max_new_tokens = 14;
    requests.push_back(req);
  }
  ServingConfig cfg;
  cfg.max_batch = 2;
  cfg.prefill_chunk_tokens = 16;
  cfg.speculative.policy = DraftPolicy::kNgram;
  cfg.speculative.draft_tokens = 4;
  cfg.trace = true;

  struct Run {
    std::vector<std::vector<std::size_t>> tokens;
    ServingEngine::Stats stats;
    std::size_t replay_generated = 0;
    std::size_t observed_rows = 0;
  };
  const auto run = [&](bool observe) {
    ServingEngine engine(model, cfg);
    Run out;
    if (observe) {
      engine.set_logits_observer(
          [&](RequestId, std::size_t, std::span<const float> logits) {
            EXPECT_EQ(logits.size(), tiny_config().vocab);
            ++out.observed_rows;
          });
    }
    std::vector<RequestId> ids;
    for (const Request& req : requests) ids.push_back(engine.submit(req));
    engine.run();
    for (const RequestId id : ids) out.tokens.push_back(engine.result(id).tokens);
    out.stats = engine.stats();
    out.replay_generated =
        replay_trace(make_opal_device(4, 7, 4),
                     step_trace_from_tracer(engine.tracer()))
            .tokens_generated;
    return out;
  };
  const Run silent = run(false);
  const Run observed = run(true);

  ASSERT_GT(silent.stats.spec_bursts, 0u);
  EXPECT_EQ(observed.observed_rows,
            observed.stats.tokens_decoded - observed.stats.spec_rejected);
  EXPECT_EQ(silent.tokens, observed.tokens);
  EXPECT_EQ(silent.replay_generated, observed.replay_generated);
  EXPECT_GT(silent.replay_generated, 0u);
  const ServingEngine::Stats& a = silent.stats;
  const ServingEngine::Stats& b = observed.stats;
  EXPECT_EQ(a.blocks_in_use, b.blocks_in_use);
  EXPECT_EQ(a.blocks_free, b.blocks_free);
  EXPECT_EQ(a.blocks_peak, b.blocks_peak);
  EXPECT_EQ(a.blocks_reclaimable, b.blocks_reclaimable);
  EXPECT_EQ(a.running, b.running);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.tokens_decoded, b.tokens_decoded);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.prefix_hits, b.prefix_hits);
  EXPECT_EQ(a.prefix_misses, b.prefix_misses);
  EXPECT_EQ(a.prefix_hit_tokens, b.prefix_hit_tokens);
  EXPECT_EQ(a.prefix_cached_blocks, b.prefix_cached_blocks);
  EXPECT_EQ(a.prefix_reclaimed_blocks, b.prefix_reclaimed_blocks);
  EXPECT_EQ(a.spec_bursts, b.spec_bursts);
  EXPECT_EQ(a.spec_drafted, b.spec_drafted);
  EXPECT_EQ(a.spec_accepted, b.spec_accepted);
  EXPECT_EQ(a.spec_rejected, b.spec_rejected);
  ASSERT_EQ(a.by_priority.size(), b.by_priority.size());
  for (const auto& [prio, pa] : a.by_priority) {
    const auto& pb = b.by_priority.at(prio);
    EXPECT_EQ(pa.submitted, pb.submitted);
    EXPECT_EQ(pa.finished, pb.finished);
    EXPECT_EQ(pa.evicted, pb.evicted);
    EXPECT_EQ(pa.tokens_served, pb.tokens_served);
    EXPECT_EQ(pa.queue_wait_steps, pb.queue_wait_steps);
    EXPECT_EQ(pa.first_decodes, pb.first_decodes);
    EXPECT_EQ(pa.ttft_steps, pb.ttft_steps);
    EXPECT_EQ(pa.first_tokens, pb.first_tokens);
  }
  EXPECT_EQ(a.finish_reasons, b.finish_reasons);
}

// --- per-token logprobs: normalized, and invariant to speculation ---

TEST(Speculative, TokenLogprobsNormalizedAndInvariantToSpeculation) {
  const auto requests = greedy_requests();
  for (const KvQuantMode mode : {KvQuantMode::kFp32, KvQuantMode::kLog2}) {
    auto model = std::make_shared<const PreparedModel>(tiny_model(),
                                                       engine_config(mode));
    ServingConfig base;
    const auto reference = serve(model, base, requests);
    ServingConfig spec = base;
    spec.speculative.policy = DraftPolicy::kRepeat;
    spec.speculative.draft_tokens = 3;
    const auto run = serve(model, spec, requests);

    for (std::size_t r = 0; r < requests.size(); ++r) {
      ASSERT_EQ(reference.infos[r].size(), reference.streamed[r].size());
      ASSERT_EQ(run.infos[r].size(), reference.infos[r].size());
      for (std::size_t i = 0; i < reference.infos[r].size(); ++i) {
        const auto& a = reference.infos[r][i];
        const auto& b = run.infos[r][i];
        EXPECT_EQ(a.token, reference.streamed[r][i]);
        EXPECT_EQ(b.token, a.token);
        // Same committed token, same logits row -> the same float, with
        // speculation on or off. Normalized: log of a probability.
        EXPECT_EQ(b.logprob, a.logprob);
        EXPECT_LE(a.logprob, 0.0f);
        EXPECT_FALSE(a.speculative);  // speculation off in the reference
      }
      // The speculative run must attribute at least one token to a burst.
      const bool any_spec = std::any_of(
          run.infos[r].begin(), run.infos[r].end(),
          [](const ServingEngine::TokenLogprobInfo& info) {
            return info.speculative;
          });
      EXPECT_TRUE(any_spec) << to_string(mode) << " request " << r;
    }
  }
}

}  // namespace
}  // namespace opal
