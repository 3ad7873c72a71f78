// Sampling subsystem: the greedy limits of every pipeline stage must equal
// GreedySampler bitwise (temperature -> 0, top_k == 1, top_p -> 0); seeded
// sampling must be scheduling-invariant — identical (seed, SamplingParams,
// prompt) produce the identical token stream under every scheduler policy,
// chunk width, kv_mode, thread count, prefix caching, pool pressure, and a
// forced preempt -> readmit replay; stop conditions and the streaming token
// observer must report each generated token exactly once.
#include "llm/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"
#include "softmax/softmax.h"

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
  cfg.kv_block_size = 4;
  cfg.kv_mode = mode;
  return cfg;
}

std::vector<float> random_logits(Rng& rng, std::size_t n, float spread) {
  std::vector<float> v(n);
  fill_gaussian(rng, v, 0.0f, spread);
  return v;
}

// --- pipeline limits: every stage's greedy limit is bitwise greedy ---

TEST(Sampler, GreedyLimitsMatchGreedySamplerBitwise) {
  Rng rng = make_rng(11);
  GreedySampler greedy;
  for (int trial = 0; trial < 200; ++trial) {
    const auto logits = random_logits(rng, 64, 2.5f);
    SamplerState gstate;
    const std::size_t want = greedy.sample(logits, {}, gstate);

    SamplingParams temp0;
    temp0.policy = SamplePolicy::kTemperature;
    temp0.temperature = 0.0f;
    SamplingParams temp_tiny = temp0;
    temp_tiny.temperature = 1e-6f;
    SamplingParams k1;
    k1.policy = SamplePolicy::kTopK;
    k1.temperature = 0.8f;
    k1.top_k = 1;
    SamplingParams p0;
    p0.policy = SamplePolicy::kTopP;
    p0.temperature = 0.9f;
    p0.top_p = 0.0f;
    SamplingParams p_tiny = p0;
    p_tiny.top_p = 1e-6f;

    for (const auto* params : {&temp0, &temp_tiny, &k1, &p0, &p_tiny}) {
      SamplingParams seeded = *params;
      seeded.seed = static_cast<std::uint64_t>(trial);  // any seed: forced
      auto sampler = make_sampler(seeded);
      SamplerState state;
      state.rng = CounterRng(seeded.seed);
      EXPECT_EQ(sampler->sample(logits, {}, state), want)
          << to_string(seeded.policy) << " trial " << trial;
    }
  }
}

TEST(Sampler, DrawDisciplineOneDrawPerSampledToken) {
  Rng rng = make_rng(5);
  const auto logits = random_logits(rng, 64, 2.0f);

  SamplingParams params;
  params.policy = SamplePolicy::kTopP;
  params.temperature = 0.0f;  // even forced outcomes consume their draw
  params.top_k = 4;
  params.top_p = 0.5f;
  auto sampler = make_sampler(params);
  SamplerState state;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sampler->sample(logits, {}, state);
    EXPECT_EQ(state.rng.counter(), i);
  }

  GreedySampler greedy;
  SamplerState gstate;
  for (int i = 0; i < 10; ++i) greedy.sample(logits, {}, gstate);
  EXPECT_EQ(gstate.rng.counter(), 0u);  // greedy never draws
}

TEST(Sampler, StateSerializationRoundTripResumesStream) {
  Rng rng = make_rng(17);
  SamplingParams params;
  params.policy = SamplePolicy::kTemperature;
  params.temperature = 1.2f;
  params.seed = 99;

  auto sampler = make_sampler(params);
  SamplerState state;
  state.rng = CounterRng(params.seed);
  std::vector<std::vector<float>> all_logits;
  std::vector<std::size_t> reference;
  for (int i = 0; i < 20; ++i) {
    all_logits.push_back(random_logits(rng, 64, 2.0f));
    reference.push_back(sampler->sample(all_logits.back(), {}, state));
  }

  // Replay the first half, persist (seed, counter), restore into a FRESH
  // sampler and state, and continue: the tail must match bitwise.
  auto first = make_sampler(params);
  SamplerState st1;
  st1.rng = CounterRng(params.seed);
  for (int i = 0; i < 10; ++i) first->sample(all_logits[static_cast<std::size_t>(i)], {}, st1);
  const std::uint64_t seed = st1.rng.seed();
  const std::uint64_t counter = st1.rng.counter();

  auto resumed = make_sampler(params);
  SamplerState st2;
  st2.rng = CounterRng(seed, counter);
  for (int i = 10; i < 20; ++i) {
    EXPECT_EQ(resumed->sample(all_logits[static_cast<std::size_t>(i)], {}, st2),
              reference[static_cast<std::size_t>(i)]);
  }
}

TEST(Sampler, RepetitionPenaltyAndLogitBiasHooks) {
  // All-positive logits with a clear winner at index 3.
  std::vector<float> logits = {1.0f, 2.0f, 3.0f, 5.0f, 4.0f, 0.5f};
  SamplerState state;

  GreedySampler plain;
  EXPECT_EQ(plain.sample(logits, {}, state), 3u);

  // A huge penalty on a context that contains the winner demotes it.
  SamplingParams pen;
  pen.repetition_penalty = 1e6f;
  GreedySampler penalized(pen);
  const std::vector<std::size_t> context = {3};
  EXPECT_EQ(penalized.sample(logits, context, state), 4u);

  // Bias can force any token, for every policy in the pipeline.
  SamplingParams bias;
  bias.policy = SamplePolicy::kTopP;
  bias.temperature = 0.7f;
  bias.top_k = 2;
  bias.top_p = 0.5f;
  bias.logit_bias = {{5, 1e4f}};
  auto biased = make_sampler(bias);
  EXPECT_EQ(biased->sample(logits, {}, state), 5u);
}

TEST(Sampler, Log2SoftmaxPathSamplesFromUnitCodes) {
  // With the log2 unit active the distribution is built from 2^-code
  // weights. Codes quantize log-probabilities to integers, so tokens
  // within half an octave of the max tie at code 0 and the lower index
  // wins — the top-1 pick is the first token carrying the smallest code.
  Rng rng = make_rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const auto logits = random_logits(rng, 64, 2.5f);
    SamplingParams k1;
    k1.policy = SamplePolicy::kTopK;
    k1.top_k = 1;
    auto log2 = make_sampler(k1, 7);
    SamplerState sb;
    const auto codes = log2_softmax_unit(logits, Log2SoftmaxConfig{7});
    const std::size_t got = log2->sample(logits, {}, sb);
    const std::uint8_t min_code =
        *std::min_element(codes.begin(), codes.end());
    EXPECT_EQ(codes[got], min_code);
    for (std::size_t i = 0; i < got; ++i) EXPECT_GT(codes[i], min_code);
  }
  // Identical seeds give identical streams through the unit path.
  SamplingParams params;
  params.policy = SamplePolicy::kTopP;
  params.temperature = 0.9f;
  params.top_p = 0.8f;
  params.seed = 4;
  auto a = make_sampler(params, 7);
  auto b = make_sampler(params, 7);
  SamplerState sa, sb;
  sa.rng = sb.rng = CounterRng(params.seed);
  for (int i = 0; i < 20; ++i) {
    const auto logits = random_logits(rng, 64, 2.0f);
    EXPECT_EQ(a->sample(logits, {}, sa), b->sample(logits, {}, sb));
  }
}

TEST(Sampler, Log2EightBitUnderflowedTokenNeverSampled) {
  // At 8 bits the underflowed token's code is 255; its weight must be 0,
  // not the 2.0 a wrapped 2^-255 once gave it (which made it the likeliest
  // token).
  const std::vector<float> logits = {0.0f, -200.0f, -0.5f};
  SamplingParams params;
  params.policy = SamplePolicy::kTopP;
  params.top_p = 1.0f;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    params.seed = seed;
    auto sampler = make_sampler(params, 8);
    SamplerState state;
    state.rng = CounterRng(seed);
    EXPECT_NE(sampler->sample(logits, {}, state), 1u) << "seed " << seed;
  }
}

// --- stop conditions ---

TEST(Sampler, CheckStopPriorityAndRegions) {
  SamplingParams params;
  params.eos_token = 9;
  params.stop_tokens = {7};
  params.stop_sequences = {{5, 6}};

  // eos beats stop token beats stop sequence beats budget.
  std::vector<std::size_t> tokens = {1, 2, 9};
  EXPECT_EQ(check_stop(params, tokens, 2, 10), FinishReason::kEos);
  tokens = {1, 2, 7};
  EXPECT_EQ(check_stop(params, tokens, 2, 10), FinishReason::kStopToken);
  tokens = {1, 2, 5, 6};
  EXPECT_EQ(check_stop(params, tokens, 2, 10), FinishReason::kStopSequence);
  tokens = {1, 2, 3};
  EXPECT_EQ(check_stop(params, tokens, 2, 3), FinishReason::kMaxNewTokens);
  EXPECT_EQ(check_stop(params, tokens, 2, 10), FinishReason::kNone);

  // A stop sequence straddling the prompt boundary does not fire: it must
  // lie entirely within the generated region.
  tokens = {1, 5, 6};
  EXPECT_EQ(check_stop(params, tokens, 2, 10), FinishReason::kNone);
  tokens = {1, 5, 6, 5, 6};
  EXPECT_EQ(check_stop(params, tokens, 2, 10), FinishReason::kStopSequence);
}

TEST(Sampler, ResolveMaxNewPrefersParams) {
  SamplingParams params;
  EXPECT_EQ(resolve_max_new(params, 8), 8u);
  params.max_new_tokens = 3;
  EXPECT_EQ(resolve_max_new(params, 8), 3u);
}

// --- serving integration: scheduling invariance of seeded streams ---

std::vector<Request> sampled_requests() {
  // One request per policy, distinct seeds and priorities, different
  // lengths — the batch always holds sequences at different positions.
  std::vector<Request> requests;
  Request greedy;
  greedy.prompt = {3, 1, 4, 1, 5};
  greedy.max_new_tokens = 8;
  greedy.priority = 1;
  requests.push_back(greedy);

  Request temp;
  temp.prompt = {2, 7};
  temp.max_new_tokens = 11;
  temp.sampling.policy = SamplePolicy::kTemperature;
  temp.sampling.temperature = 0.8f;
  temp.sampling.seed = 5;
  requests.push_back(temp);

  Request topk;
  topk.prompt = {9, 2, 6, 5, 3, 5, 8};
  topk.max_new_tokens = 7;
  topk.priority = 2;
  topk.sampling.policy = SamplePolicy::kTopK;
  topk.sampling.temperature = 0.9f;
  topk.sampling.top_k = 8;
  topk.sampling.seed = 9;
  requests.push_back(topk);

  Request topp;
  topp.prompt = {1};
  topp.sampling.policy = SamplePolicy::kTopP;
  topp.sampling.temperature = 1.1f;
  topp.sampling.top_k = 16;
  topp.sampling.top_p = 0.85f;
  topp.sampling.seed = 13;
  topp.sampling.max_new_tokens = 12;  // overrides Request::max_new_tokens
  requests.push_back(topp);
  return requests;
}

struct SampledOutcome {
  std::vector<std::vector<std::size_t>> tokens;   // per request
  std::vector<FinishReason> reasons;              // per request
  std::vector<std::vector<std::size_t>> streamed; // token-observer capture
};

SampledOutcome serve_sampled(const std::shared_ptr<const PreparedModel>& model,
                             ServingConfig cfg,
                             const std::vector<Request>& requests,
                             bool force_preempt = false) {
  ServingEngine engine(model, cfg);
  std::map<RequestId, std::size_t> index_of;
  SampledOutcome out;
  out.streamed.resize(requests.size());
  engine.set_token_observer([&](RequestId id, std::size_t index,
                                std::size_t token, FinishReason) {
    auto& stream = out.streamed[index_of.at(id)];
    EXPECT_EQ(index, stream.size());  // in order, exactly once each
    stream.push_back(token);
  });
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const RequestId id = engine.submit(requests[r]);
    index_of.emplace(id, r);
    ids.push_back(id);
  }
  if (force_preempt) {
    // Let generation get underway, then bounce every runner back to the
    // queue for a full-recompute replay mid-stream.
    for (int i = 0; i < 7; ++i) engine.step();
    for (const RequestId id : ids) {
      if (!engine.finished(id) &&
          engine.result(id).status == RequestStatus::kRunning) {
        engine.preempt(id);
      }
    }
  }
  engine.run();
  for (const RequestId id : ids) {
    const auto result = engine.result(id);
    EXPECT_EQ(result.status, RequestStatus::kFinished);
    out.tokens.push_back(result.tokens);
    out.reasons.push_back(result.finish_reason);
  }
  return out;
}

void expect_same_streams(const SampledOutcome& a, const SampledOutcome& b,
                         const std::vector<Request>& requests,
                         const std::string& what) {
  ASSERT_EQ(a.tokens, b.tokens) << what;
  ASSERT_EQ(a.reasons, b.reasons) << what;
  // The streamed tokens are exactly the generated region, in both runs.
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const std::vector<std::size_t> generated(
        a.tokens[r].begin() +
            static_cast<std::ptrdiff_t>(requests[r].prompt.size()),
        a.tokens[r].end());
    EXPECT_EQ(a.streamed[r], generated) << what << " request " << r;
    EXPECT_EQ(b.streamed[r], generated) << what << " request " << r;
  }
}

TEST(SamplerServing, SeededStreamsInvariantAcrossPoliciesModesAndReplay) {
  const auto requests = sampled_requests();
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    auto model = std::make_shared<const PreparedModel>(tiny_model(),
                                                       engine_config(mode));
    ServingConfig base;
    base.max_batch = 3;  // queueing + continuous refill
    const auto reference = serve_sampled(model, base, requests);

    ServingConfig priority = base;
    priority.scheduler = std::make_shared<PriorityScheduler>();
    priority.prefill_chunk_tokens = 8;
    ServingConfig fair = base;
    fair.scheduler = std::make_shared<FairShareScheduler>();
    fair.prefill_chunk_tokens = 8;
    ServingConfig threaded = base;
    threaded.n_threads = 3;
    ServingConfig cached = base;
    cached.enable_prefix_cache = true;
    cached.prefill_chunk_tokens = 4;
    ServingConfig squeezed = base;
    squeezed.kv_pool_blocks =
        base.max_batch * model->kv_blocks_per_sequence() / 4;

    const std::string tag = to_string(mode);
    expect_same_streams(reference, serve_sampled(model, priority, requests),
                        requests, tag + " priority+chunk8");
    expect_same_streams(reference, serve_sampled(model, fair, requests),
                        requests, tag + " fair-share+chunk8");
    expect_same_streams(reference, serve_sampled(model, threaded, requests),
                        requests, tag + " threads=3");
    expect_same_streams(reference, serve_sampled(model, cached, requests),
                        requests, tag + " prefix-cache+chunk4");
    expect_same_streams(reference, serve_sampled(model, squeezed, requests),
                        requests, tag + " quarter-pool");
    expect_same_streams(reference,
                        serve_sampled(model, priority, requests, true),
                        requests, tag + " forced preempt-replay");
  }
}

TEST(SamplerServing, FacadeGenerateMatchesServingEngine) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  Request request;
  request.prompt = {4, 8, 15, 16, 23};
  request.max_new_tokens = 10;
  request.sampling.policy = SamplePolicy::kTopP;
  request.sampling.temperature = 0.9f;
  request.sampling.top_k = 12;
  request.sampling.top_p = 0.9f;
  request.sampling.seed = 21;

  ServingConfig cfg;
  cfg.max_batch = 2;
  ServingEngine engine(model, cfg);
  const RequestId id = engine.submit(request);
  engine.run();
  const auto served = engine.result(id);

  InferenceEngine facade(model);
  const auto generated =
      facade.generate(request.prompt, request.max_new_tokens,
                      request.sampling);
  EXPECT_EQ(generated.tokens, served.tokens);
  EXPECT_EQ(generated.finish_reason, served.finish_reason);
  EXPECT_EQ(generated.finish_reason, FinishReason::kMaxNewTokens);

  // Default params reproduce the historical greedy loop bitwise.
  ServingEngine greedy_engine(model, cfg);
  const RequestId gid = greedy_engine.submit(Request{{4, 8, 15}, 6});
  greedy_engine.run();
  const auto greedy_gen = facade.generate({{4, 8, 15}}, 6);
  EXPECT_EQ(greedy_gen.tokens, greedy_engine.result(gid).tokens);
}

TEST(SamplerServing, StopConditionsFinishEarlyWithReasonAndStats) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  ServingConfig cfg;
  cfg.max_batch = 4;

  // Pin down what greedy generates so the stop conditions are guaranteed
  // to fire deterministically.
  const std::vector<std::size_t> prompt = {3, 1, 4, 1, 5};
  InferenceEngine facade(model);
  const auto greedy = facade.generate(prompt, 8);
  ASSERT_EQ(greedy.tokens.size(), prompt.size() + 8);
  const std::size_t gen0 = greedy.tokens[prompt.size()];
  const std::size_t gen1 = greedy.tokens[prompt.size() + 1];

  ServingEngine engine(model, cfg);
  Request eos_req;
  eos_req.prompt = prompt;
  eos_req.max_new_tokens = 8;
  eos_req.sampling.eos_token = gen0;
  Request stop_tok;
  stop_tok.prompt = prompt;
  stop_tok.max_new_tokens = 8;
  stop_tok.sampling.stop_tokens = {gen1};
  Request stop_seq;
  stop_seq.prompt = prompt;
  stop_seq.max_new_tokens = 8;
  stop_seq.sampling.stop_sequences = {{gen0, gen1}};
  Request budget;
  budget.prompt = prompt;
  budget.max_new_tokens = 3;

  const RequestId id_eos = engine.submit(eos_req);
  const RequestId id_tok = engine.submit(stop_tok);
  const RequestId id_seq = engine.submit(stop_seq);
  const RequestId id_budget = engine.submit(budget);
  engine.run();

  const auto r_eos = engine.result(id_eos);
  EXPECT_EQ(r_eos.finish_reason, FinishReason::kEos);
  EXPECT_EQ(r_eos.generated(), 1u);  // eos is appended, then stops
  const auto r_tok = engine.result(id_tok);
  EXPECT_EQ(r_tok.finish_reason, FinishReason::kStopToken);
  EXPECT_EQ(r_tok.generated(), 2u);
  const auto r_seq = engine.result(id_seq);
  EXPECT_EQ(r_seq.finish_reason, FinishReason::kStopSequence);
  EXPECT_EQ(r_seq.generated(), 2u);
  const auto r_budget = engine.result(id_budget);
  EXPECT_EQ(r_budget.finish_reason, FinishReason::kMaxNewTokens);
  EXPECT_EQ(r_budget.generated(), 3u);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.finish_reasons.at(FinishReason::kEos), 1u);
  EXPECT_EQ(stats.finish_reasons.at(FinishReason::kStopToken), 1u);
  EXPECT_EQ(stats.finish_reasons.at(FinishReason::kStopSequence), 1u);
  EXPECT_EQ(stats.finish_reasons.at(FinishReason::kMaxNewTokens), 1u);

  // Scoring requests retire with kNone.
  const RequestId id_score = engine.submit(Request{prompt, 0});
  engine.run();
  EXPECT_EQ(engine.result(id_score).finish_reason, FinishReason::kNone);
  EXPECT_EQ(engine.stats().finish_reasons.at(FinishReason::kNone), 1u);
}

TEST(SamplerServing, TokenObserverStreamsEachTokenExactlyOnceAcrossPreempt) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  ServingConfig cfg;
  cfg.max_batch = 2;
  ServingEngine engine(model, cfg);

  Request request;
  request.prompt = {2, 7, 2};
  request.max_new_tokens = 9;
  request.sampling.policy = SamplePolicy::kTemperature;
  request.sampling.temperature = 0.9f;
  request.sampling.seed = 33;

  std::vector<std::size_t> streamed;
  FinishReason final_reason = FinishReason::kNone;
  std::size_t final_reports = 0;
  engine.set_token_observer([&](RequestId, std::size_t index,
                                std::size_t token, FinishReason reason) {
    ASSERT_EQ(index, streamed.size());
    streamed.push_back(token);
    if (reason != FinishReason::kNone) {
      final_reason = reason;
      ++final_reports;
    }
  });

  const RequestId id = engine.submit(request);
  // Decode into generation, then force a full-recompute preemption: the
  // replayed tokens are known tokens and must NOT be re-streamed.
  for (int i = 0; i < 6; ++i) engine.step();
  EXPECT_GT(engine.result(id).generated(), 0u);
  engine.preempt(id);
  engine.run();

  const auto result = engine.result(id);
  EXPECT_EQ(result.status, RequestStatus::kFinished);
  const std::vector<std::size_t> generated(
      result.tokens.begin() +
          static_cast<std::ptrdiff_t>(request.prompt.size()),
      result.tokens.end());
  EXPECT_EQ(streamed, generated);
  EXPECT_EQ(final_reports, 1u);
  EXPECT_EQ(final_reason, result.finish_reason);
  EXPECT_EQ(final_reason, FinishReason::kMaxNewTokens);
}

}  // namespace
}  // namespace opal
