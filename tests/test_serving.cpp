// Batching equivalence: a ServingEngine running N interleaved sequences
// must produce logits bitwise identical to N independent single-sequence
// InferenceEngine runs — under BF16, under OWQ weights + log2 softmax, with
// the thread pool on, and across preemption (release + replay).
#include "llm/serving_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "eval/perplexity.h"
#include "eval/schemes.h"
#include "llm/engine.h"
#include "reference_decode.h"

namespace opal {
namespace {

ModelConfig tiny_config() {
  return scaled_for_eval(llama2_7b(), 128, 2, 64);
}

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(tiny_config(), 42);
  return model;
}

ServingConfig scfg(std::size_t max_batch, std::size_t n_threads,
                   std::size_t kv_pool_blocks = 0) {
  ServingConfig cfg;
  cfg.max_batch = max_batch;
  cfg.n_threads = n_threads;
  cfg.kv_pool_blocks = kv_pool_blocks;
  return cfg;
}

struct Captured {
  std::map<std::size_t, std::vector<float>> logits_at;  // position -> logits
};

void expect_bitwise_equal(const Decoded& ref,
                          const std::vector<std::size_t>& got_tokens,
                          const Captured& got, const std::string& what) {
  ASSERT_EQ(ref.tokens, got_tokens) << what;
  ASSERT_EQ(ref.logits.size(), got.logits_at.size()) << what;
  for (std::size_t p = 0; p < ref.logits.size(); ++p) {
    const auto it = got.logits_at.find(p);
    ASSERT_NE(it, got.logits_at.end()) << what << " position " << p;
    ASSERT_EQ(ref.logits[p].size(), it->second.size());
    for (std::size_t i = 0; i < ref.logits[p].size(); ++i) {
      ASSERT_EQ(ref.logits[p][i], it->second[i])
          << what << " position " << p << " logit " << i;
    }
  }
}

std::vector<Request> interleaved_requests() {
  // Different lengths and different generation budgets, so the batch holds
  // sequences at different positions on every step.
  return {
      Request{{3, 1, 4, 1, 5}, 6},
      Request{{2, 7}, 9},
      Request{{9, 2, 6, 5, 3, 5, 8}, 3},
      Request{{1}, 12},
      Request{{4, 4, 4}, 0},
  };
}

void run_equivalence(const std::shared_ptr<const PreparedModel>& model,
                     ServingConfig cfg, const std::string& what) {
  const auto requests = interleaved_requests();
  ServingEngine engine(model, cfg);

  std::map<RequestId, Captured> captured;
  engine.set_logits_observer([&](RequestId id, std::size_t pos,
                                 std::span<const float> logits) {
    captured[id].logits_at[pos].assign(logits.begin(), logits.end());
  });

  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));
  engine.run();
  EXPECT_EQ(engine.running(), 0u);
  EXPECT_EQ(engine.queued(), 0u);

  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto ref = reference_decode(model, requests[r].prompt,
                                      requests[r].max_new_tokens);
    const auto& result = engine.result(ids[r]);
    EXPECT_EQ(result.status, RequestStatus::kFinished);
    EXPECT_EQ(result.prompt_len, requests[r].prompt.size());
    expect_bitwise_equal(ref, result.tokens, captured[ids[r]],
                         what + " request " + std::to_string(r));
  }
}

TEST(ServingEngine, BatchOfNMatchesNSingleRuns_Bf16) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  run_equivalence(model, scfg(4, 0), "bf16 batch=4");
}

TEST(ServingEngine, BatchSmallerThanRequestsStillMatches) {
  // max_batch = 2 forces queueing + continuous refill while 5 requests run.
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  run_equivalence(model, scfg(2, 0), "bf16 batch=2");
}

TEST(ServingEngine, BatchMatchesSingles_OwqWeightsAndLog2Softmax) {
  const auto calibration = calibrate_model(tiny_model(), 32, 3);
  EngineConfig cfg = scheme_mx_opal(4, 4, 7);
  cfg.log2_softmax = true;
  cfg.softmax_bits = 7;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg,
                                                     &calibration);
  ASSERT_GT(model->fp_weight_fraction(), 0.0);  // OWQ actually active
  run_equivalence(model, scfg(4, 0), "owq+log2 batch=4");
  // Same config through the thread pool: this is what actually exercises
  // the shared-quantizer thread-safety contract documented in quantizer.h
  // (the BF16 threaded test runs with null quantizers).
  run_equivalence(model, scfg(4, 3), "owq+log2 batch=4 threads=3");
}

TEST(ServingEngine, ThreadPoolDecodeIsBitwiseDeterministic) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  run_equivalence(model, scfg(4, 3), "bf16 batch=4 threads=3");

  // Log2 KV with seeded top-p, as servebench's decode-batch serves it:
  // every batch width and thread count splits the batch into different
  // pass groups, and every split must serve the streams of a batch of one.
  EngineConfig log2_cfg;
  log2_cfg.max_seq_len = 32;
  log2_cfg.kv_block_size = 4;
  log2_cfg.kv_mode = KvQuantMode::kLog2;
  auto log2_model =
      std::make_shared<const PreparedModel>(tiny_model(), log2_cfg);
  std::vector<Request> requests;
  for (std::size_t r = 0; r < 11; ++r) {
    Request req;
    for (std::size_t i = 0; i < 1 + (r * 5) % 9; ++i) {
      req.prompt.push_back((r * 17 + i * 7 + 1) % 64);
    }
    req.max_new_tokens = 3 + (r * 7) % 11;
    req.sampling.policy = SamplePolicy::kTopP;
    req.sampling.temperature = 0.9f;
    req.sampling.top_p = 0.9f;
    req.sampling.seed = 100 + r;
    requests.push_back(std::move(req));
  }
  const auto streams = [&](std::size_t max_batch, std::size_t n_threads) {
    ServingConfig c = scfg(max_batch, n_threads);
    c.prefill_chunk_tokens = 4;  // chunks and decodes share groups
    ServingEngine engine(log2_model, c);
    std::vector<RequestId> ids;
    for (const Request& req : requests) ids.push_back(engine.submit(req));
    engine.run();
    std::vector<std::vector<std::size_t>> out;
    for (const RequestId id : ids) out.push_back(engine.result(id).tokens);
    return out;
  };
  const auto solo = streams(1, 0);
  for (std::size_t max_batch = 1; max_batch <= 8; ++max_batch) {
    for (std::size_t n_threads = 0; n_threads <= 3; ++n_threads) {
      EXPECT_EQ(streams(max_batch, n_threads), solo)
          << "log2 top-p batch=" << max_batch << " threads=" << n_threads;
    }
  }
}

TEST(ServingEngine, PreemptReplayPreservesSampledStream) {
  // The replay guarantee extends to seeded sampling: a preempted-and-
  // readmitted request must emit the identical continuation, because the
  // RNG stream is checkpointed across the KV release and replayed tokens
  // are fed as known tokens (no draws consumed).
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  Request request;
  request.prompt = {3, 1, 4, 1, 5};
  request.max_new_tokens = 9;
  request.sampling.policy = SamplePolicy::kTopP;
  request.sampling.temperature = 0.9f;
  request.sampling.top_k = 16;
  request.sampling.top_p = 0.9f;
  request.sampling.seed = 77;

  ServingEngine uninterrupted(model, scfg(2, 0));
  const RequestId ref_id = uninterrupted.submit(request);
  uninterrupted.run();
  const auto ref = uninterrupted.result(ref_id);
  ASSERT_EQ(ref.status, RequestStatus::kFinished);
  ASSERT_EQ(ref.generated(), 9u);

  ServingEngine engine(model, scfg(2, 0));
  const RequestId id = engine.submit(request);
  for (int i = 0; i < 7; ++i) engine.step();  // two tokens generated
  ASSERT_GT(engine.result(id).generated(), 0u);
  engine.preempt(id);
  engine.run();
  const auto result = engine.result(id);
  EXPECT_EQ(result.status, RequestStatus::kFinished);
  EXPECT_EQ(result.tokens, ref.tokens);
  EXPECT_EQ(result.finish_reason, ref.finish_reason);
}

TEST(ServingEngine, PreemptReleasesKvAndReplaysBitwise) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  const std::vector<std::size_t> prompt = {3, 1, 4, 1, 5};
  const std::size_t max_new = 6;
  const auto ref = reference_decode(model, prompt, max_new);

  ServingEngine engine(model, scfg(2, 0));
  Captured captured;
  const RequestId id = engine.submit(Request{prompt, max_new});
  engine.set_logits_observer([&](RequestId rid, std::size_t pos,
                                 std::span<const float> logits) {
    if (rid != id) return;
    std::vector<float> now(logits.begin(), logits.end());
    // Replayed positions must reproduce the original logits bitwise.
    const auto it = captured.logits_at.find(pos);
    if (it != captured.logits_at.end()) {
      ASSERT_EQ(it->second, now) << "replay diverged at position " << pos;
    }
    captured.logits_at[pos] = std::move(now);
  });

  for (int i = 0; i < 6; ++i) engine.step();  // one token generated
  ASSERT_GT(engine.result(id).generated(), 0u);
  engine.preempt(id);
  // The queued sequence holds no KV: every block is back in the pool.
  EXPECT_EQ(engine.queued(), 1u);
  EXPECT_EQ(engine.stats().blocks_in_use, 0u);
  engine.run();

  const auto result = engine.result(id);
  EXPECT_EQ(result.status, RequestStatus::kFinished);
  expect_bitwise_equal(ref, result.tokens, captured, "preempt/replay");
  EXPECT_EQ(engine.stats().preemptions, 1u);
}

TEST(ServingEngine, EvictsWhenKvCacheExhausted) {
  EngineConfig cfg;
  cfg.max_seq_len = 6;
  cfg.kv_block_size = 6;  // one block column per sequence
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  const RequestId longer = engine.submit(Request{{1, 2, 3}, 10});  // wants 13
  const RequestId fits = engine.submit(Request{{5, 6}, 2});
  engine.run();
  EXPECT_EQ(engine.result(longer).status, RequestStatus::kEvicted);
  EXPECT_EQ(engine.result(longer).tokens.size(), 7u);  // 6 fed + 1 generated
  EXPECT_EQ(engine.result(fits).status, RequestStatus::kFinished);
  EXPECT_EQ(engine.result(fits).tokens.size(), 4u);
  // max_new_tokens SIZE_MAX means "until a stop or the KV limit": the
  // target saturates instead of wrapping below the prompt, so the request
  // runs to eviction at max_seq_len, token-equal to the facade's stream.
  const std::vector<std::size_t> prompt = {1, 2, 3};
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
  const RequestId unbounded = engine.submit(Request{prompt, kUnbounded});
  engine.run();
  const RequestResult res = engine.result(unbounded);
  EXPECT_EQ(res.status, RequestStatus::kEvicted);
  EXPECT_EQ(res.tokens.size(), cfg.max_seq_len + 1);
  InferenceEngine facade(model);
  EXPECT_EQ(res.tokens, facade.generate(prompt, kUnbounded).tokens);
}

TEST(ServingEngine, ThrowingObserverLeavesEngineConsistent) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  const std::vector<std::size_t> prompt = {3, 1, 4};
  const std::size_t max_new = 5;
  const auto ref = reference_decode(model, prompt, max_new);

  ServingEngine engine(model, scfg(2, 0));
  const RequestId id = engine.submit(Request{prompt, max_new});
  int calls = 0;
  engine.set_logits_observer(
      [&](RequestId, std::size_t, std::span<const float>) {
        if (++calls == 2) throw std::runtime_error("observer boom");
      });
  EXPECT_EQ(engine.step(), 1u);
  EXPECT_THROW(engine.step(), std::runtime_error);
  // The step's bookkeeping completed before the throw: continuing decodes
  // the exact same tokens as an uninterrupted run.
  engine.set_logits_observer(nullptr);
  engine.run();
  const auto result = engine.result(id);
  EXPECT_EQ(result.status, RequestStatus::kFinished);
  EXPECT_EQ(result.tokens, ref.tokens);
}

TEST(ServingEngine, ObserverThrowOnFinishingStepDoesNotStrandSequence) {
  // The throw lands on the step where the scoring request completes: the
  // sequence must still retire as kFinished on the next step instead of
  // being fed past the end of its token vector.
  EngineConfig cfg;
  cfg.max_seq_len = 16;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  const RequestId id = engine.submit(Request{{3, 1}, 0});
  int calls = 0;
  engine.set_logits_observer(
      [&](RequestId, std::size_t, std::span<const float>) {
        if (++calls == 2) throw std::runtime_error("observer boom");
      });
  EXPECT_EQ(engine.step(), 1u);
  EXPECT_THROW(engine.step(), std::runtime_error);  // finishing step
  engine.run();
  EXPECT_EQ(engine.result(id).status, RequestStatus::kFinished);
  EXPECT_EQ(engine.result(id).tokens.size(), 2u);
  EXPECT_EQ(engine.running(), 0u);
}

TEST(ServingEngine, CompletesAtExactKvCapacityBoundary) {
  // prompt + max_new == max_seq_len + 1: every requested token fits because
  // the final generated token is never fed, so this must be kFinished, not
  // kEvicted.
  EngineConfig cfg;
  cfg.max_seq_len = 6;
  cfg.kv_block_size = 6;  // one block column per sequence
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(1, 0));
  const RequestId id = engine.submit(Request{{1, 2, 3}, 4});  // target 7
  engine.run();
  const auto result = engine.result(id);
  EXPECT_EQ(result.status, RequestStatus::kFinished);
  EXPECT_EQ(result.tokens.size(), 7u);
  EXPECT_EQ(result.generated(), 4u);
}

TEST(ServingEngine, SequencesAtDifferentPositionsCoexist) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  engine.submit(Request{{1, 2, 3, 4, 5, 6}, 2});
  engine.submit(Request{{7}, 3});
  // After two steps: seq A is mid-prompt (position 2), seq B has finished
  // its prompt and is generating (position 2 but token index 2 of 4).
  engine.step();
  engine.step();
  EXPECT_EQ(engine.running(), 2u);
  const auto decoded = engine.step();
  EXPECT_EQ(decoded, 2u);  // both still decode in the same step
  engine.run();
}

TEST(ServingEngine, RejectsEmptyPromptAndUnknownId) {
  EngineConfig cfg;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  EXPECT_THROW(engine.submit(Request{{}, 4}), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(engine.result(123)), std::invalid_argument);
  EXPECT_THROW(engine.preempt(123), std::invalid_argument);
  // Out-of-vocab tokens are rejected at submit time: a throw mid-batch
  // would desync the co-batched sequences' KV caches.
  const std::size_t vocab = tiny_model().config().vocab;
  EXPECT_THROW(engine.submit(Request{{1, vocab}, 0}), std::invalid_argument);
  const RequestId ok = engine.submit(Request{{1, vocab - 1}, 1});
  engine.run();
  EXPECT_EQ(engine.result(ok).status, RequestStatus::kFinished);
}

TEST(ServingEngine, ClearFinishedDropsRetainedResults) {
  EngineConfig cfg;
  cfg.max_seq_len = 16;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  const RequestId id = engine.submit(Request{{3, 4}, 2});
  engine.run();
  EXPECT_TRUE(engine.finished(id));
  engine.clear_finished();
  EXPECT_THROW(static_cast<void>(engine.result(id)), std::invalid_argument);
  // The engine keeps serving after a harvest.
  const RequestId next = engine.submit(Request{{5}, 1});
  engine.run();
  EXPECT_EQ(engine.result(next).status, RequestStatus::kFinished);
}

TEST(ServingEngine, SharedPreparedModelAcrossFacadesAndServing) {
  // One PreparedModel serves an InferenceEngine facade and a batched
  // engine at the same time; storage accounting is shared, not repeated.
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  InferenceEngine facade(model);
  ServingEngine serving(model, scfg(2, 0));
  EXPECT_EQ(facade.weight_storage_bits(), model->weight_storage_bits());
  const RequestId id = serving.submit(Request{{3}, 2});
  serving.run();
  const auto logits = facade.step(3);
  EXPECT_EQ(serving.result(id).tokens.size(), 3u);
  EXPECT_EQ(logits.size(), tiny_model().config().vocab);
}

TEST(Perplexity, BatchedEvaluationMatchesPerStream) {
  EngineConfig cfg;
  cfg.max_seq_len = 48;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);

  std::vector<std::vector<std::size_t>> streams;
  InferenceEngine generator(model);
  for (std::uint64_t s = 0; s < 4; ++s) {
    streams.push_back(generate_stream(generator, 24, 100 + s));
  }

  const auto batched = evaluate_perplexity_batched(*model, streams, 2);
  ASSERT_EQ(batched.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    InferenceEngine single(model);
    const double expected = evaluate_perplexity(single, streams[s]);
    EXPECT_EQ(batched[s], expected) << "stream " << s;  // bitwise
  }
}

TEST(Perplexity, BatchedEvaluationRejectsOverlongStream) {
  EngineConfig cfg;
  cfg.max_seq_len = 8;
  cfg.kv_block_size = 8;
  const PreparedModel model(tiny_model(), cfg);
  // 9 predictions need 9 cached positions > 8: must fail loudly instead of
  // silently scoring a truncated prefix.
  std::vector<std::vector<std::size_t>> streams = {
      {0, 1, 2, 3, 4, 5, 6, 7, 0, 1}};
  EXPECT_THROW(
      static_cast<void>(evaluate_perplexity_batched(model, streams)),
      std::invalid_argument);
  // A stream needing exactly max_seq_len fed tokens is fine.
  streams[0].pop_back();
  const auto ppl = evaluate_perplexity_batched(model, streams);
  EXPECT_TRUE(std::isfinite(ppl[0]));
}

TEST(PreparedModel, RefusesKvBlockOutsideOneToMaxSeqLen) {
  // A zero block once reached ServingEngine, whose pool sizing divided by
  // it (SIGFPE); a block past max_seq_len commits rows no sequence fills.
  const auto expect_refused = [](auto&& build) {
    try {
      build();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("kv_block_size"),
                std::string::npos)
          << e.what();
    }
  };
  EngineConfig cfg = scheme_owq(4);
  cfg.max_seq_len = 8;
  for (const std::size_t bad : {std::size_t{0}, std::size_t{9}}) {
    cfg.kv_block_size = bad;
    expect_refused([&] { PreparedModel m(tiny_model(), cfg); });
  }
  cfg.kv_block_size = 8;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(1, 0));
  const RequestId id = engine.submit(Request{{1, 2}, 3});
  engine.run();
  EXPECT_EQ(engine.result(id).status, RequestStatus::kFinished);
}

// --- Paged KV / memory-aware serving ---

TEST(ServingEngine, QuarterFootprintPoolServesFullBatchIdentically) {
  // Acceptance: the pool holds 1/4 of the dense-cache footprint of
  // max_batch sequences — dense allocation could keep exactly ONE
  // max_seq_len cache in that memory — yet the paged engine runs all 4
  // slots concurrently and every result is bitwise identical to the dense
  // fp32 baseline.
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 8;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);

  const std::size_t full_blocks = 4 * model->kv_blocks_per_sequence();
  ServingConfig serving = scfg(4, 0, full_blocks / 4);
  ASSERT_EQ(full_blocks / 4, 16u);  // 2 layers * 2 (K,V) * 4 columns
  ServingEngine engine(model, serving);
  EXPECT_EQ(engine.kv_pool().n_blocks(), full_blocks / 4);

  // Every request stays within one block column (<= 8 fed positions), so
  // four of them fit the squeezed pool simultaneously.
  const std::vector<Request> requests = {
      Request{{3, 1, 4}, 5}, Request{{2, 7}, 6},  Request{{9, 2, 6, 5}, 4},
      Request{{1}, 8},       Request{{4, 4}, 7},  Request{{8, 3, 5}, 6},
  };
  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));

  std::size_t max_running = 0;
  while (engine.step() > 0) {
    max_running = std::max(max_running, engine.running());
  }
  // Strictly more concurrency than the one dense cache this memory holds.
  EXPECT_EQ(max_running, 4u);

  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto ref = reference_decode(model, requests[r].prompt,
                                      requests[r].max_new_tokens);
    const auto result = engine.result(ids[r]);
    EXPECT_EQ(result.status, RequestStatus::kFinished) << "request " << r;
    EXPECT_EQ(result.tokens, ref.tokens) << "request " << r;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.blocks_in_use, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ServingEngine, PoolExhaustionPreemptsThenReadmitsIdentically) {
  // A pool far below the batch's working set: sequences crossing block
  // boundaries trigger recompute preemption mid-flight, and the replayed
  // positions must reproduce the original logits bitwise (fp32 KV).
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  const auto requests = interleaved_requests();

  ServingEngine engine(model, scfg(4, 0, 20));
  std::map<RequestId, Captured> captured;
  engine.set_logits_observer([&](RequestId id, std::size_t pos,
                                 std::span<const float> logits) {
    std::vector<float> now(logits.begin(), logits.end());
    auto& slot = captured[id].logits_at[pos];
    if (!slot.empty()) {
      ASSERT_EQ(slot, now) << "replay diverged at position " << pos;
    }
    slot = std::move(now);
  });
  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));
  engine.run();

  EXPECT_GT(engine.stats().preemptions, 0u);  // pressure actually happened
  EXPECT_EQ(engine.stats().evictions, 0u);    // ...but nothing was dropped
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto ref = reference_decode(model, requests[r].prompt,
                                      requests[r].max_new_tokens);
    const auto result = engine.result(ids[r]);
    EXPECT_EQ(result.status, RequestStatus::kFinished) << "request " << r;
    expect_bitwise_equal(ref, result.tokens, captured[ids[r]],
                         "exhaustion/readmit request " + std::to_string(r));
  }
}

TEST(ServingEngine, LoneSequenceThePoolCannotGrowIsEvicted) {
  // One block column only: a request needing more positions than one
  // column covers cannot grow and there is nobody to preempt, so it
  // retires as kEvicted (forward progress instead of livelock).
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0, 4));  // 2 layers * 2 = one column
  const RequestId id = engine.submit(Request{{1, 2, 3}, 10});
  engine.run();
  const auto result = engine.result(id);
  EXPECT_EQ(result.status, RequestStatus::kEvicted);
  EXPECT_EQ(result.tokens.size(), 5u);  // 4 fed positions + 1 generated
  EXPECT_EQ(engine.stats().evictions, 1u);
  EXPECT_EQ(engine.stats().blocks_in_use, 0u);
}

TEST(ServingEngine, StatsTrackBlocksAndCounters) {
  EngineConfig cfg;
  cfg.max_seq_len = 16;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  EXPECT_EQ(engine.stats().blocks_in_use, 0u);
  EXPECT_EQ(engine.stats().blocks_free, engine.kv_pool().n_blocks());

  engine.submit(Request{{3, 1, 4}, 2});
  engine.submit(Request{{2}, 3});
  engine.step();
  const auto mid = engine.stats();
  EXPECT_EQ(mid.running, 2u);
  EXPECT_GT(mid.blocks_in_use, 0u);
  EXPECT_EQ(mid.tokens_decoded, 2u);

  engine.run();
  const auto end = engine.stats();
  EXPECT_EQ(end.running, 0u);
  EXPECT_EQ(end.queued, 0u);
  EXPECT_EQ(end.blocks_in_use, 0u);
  EXPECT_EQ(end.blocks_free, engine.kv_pool().n_blocks());
  // 4 fed + 1 last-generated-not-fed, and 3 fed + 1, per feeding rule.
  EXPECT_EQ(end.tokens_decoded, 7u);
  EXPECT_EQ(end.preemptions, 0u);
  EXPECT_EQ(end.evictions, 0u);
  // The high-water mark outlives the blocks that set it.
  EXPECT_GE(end.blocks_peak, mid.blocks_in_use);
  EXPECT_GT(end.blocks_peak, 0u);
  // No prefix cache configured: its counters stay zero.
  EXPECT_EQ(end.blocks_reclaimable, 0u);
  EXPECT_EQ(end.prefix_hits + end.prefix_misses, 0u);
  EXPECT_EQ(engine.prefix_cache(), nullptr);
}

TEST(ServingEngine, ReleaseDropsOneHarvestedResult) {
  EngineConfig cfg;
  cfg.max_seq_len = 16;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, scfg(2, 0));
  const RequestId a = engine.submit(Request{{3, 4}, 2});
  const RequestId b = engine.submit(Request{{5}, 2});
  EXPECT_FALSE(engine.release(a));  // still in flight: nothing retained yet
  engine.run();
  EXPECT_TRUE(engine.release(a));
  EXPECT_FALSE(engine.release(a));  // already dropped
  EXPECT_THROW(static_cast<void>(engine.result(a)), std::invalid_argument);
  EXPECT_EQ(engine.result(b).status, RequestStatus::kFinished);  // untouched
}

TEST(ServingEngine, QuantizedKvModesAreDeterministic) {
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    std::vector<std::vector<std::size_t>> tokens_per_run;
    for (int run = 0; run < 2; ++run) {
      ServingEngine engine(model, scfg(2, 0));
      const RequestId a = engine.submit(Request{{3, 1, 4, 1, 5}, 6});
      const RequestId b = engine.submit(Request{{2, 7}, 8});
      engine.run();
      EXPECT_EQ(engine.result(a).status, RequestStatus::kFinished);
      EXPECT_EQ(engine.result(b).status, RequestStatus::kFinished);
      EXPECT_EQ(engine.result(a).generated(), 6u);
      EXPECT_EQ(engine.result(b).generated(), 8u);
      tokens_per_run.push_back(engine.result(a).tokens);
    }
    EXPECT_EQ(tokens_per_run[0], tokens_per_run[1])
        << "kv mode " << to_string(mode);
  }
}

TEST(Perplexity, QuantizedKvStaysCloseToFp32) {
  std::vector<std::vector<std::size_t>> streams;
  {
    EngineConfig gen_cfg;
    gen_cfg.max_seq_len = 48;
    auto teacher = std::make_shared<const PreparedModel>(tiny_model(),
                                                         gen_cfg);
    InferenceEngine generator(teacher);
    for (std::uint64_t s = 0; s < 2; ++s) {
      streams.push_back(generate_stream(generator, 32, 200 + s));
    }
  }
  double ppl_by_mode[3] = {};
  const KvQuantMode modes[3] = {KvQuantMode::kFp32, KvQuantMode::kInt8,
                                KvQuantMode::kLog2};
  for (int m = 0; m < 3; ++m) {
    EngineConfig cfg;
    cfg.max_seq_len = 48;
    cfg.kv_block_size = 8;
    cfg.kv_mode = modes[m];
    const PreparedModel model(tiny_model(), cfg);
    const auto ppl = evaluate_perplexity_batched(model, streams);
    double log_sum = 0.0;
    for (const double p : ppl) log_sum += std::log(p);
    ppl_by_mode[m] = std::exp(log_sum / 2.0);
    EXPECT_TRUE(std::isfinite(ppl_by_mode[m]));
  }
  // int8 KV barely moves perplexity; log2-7bit costs more but must stay in
  // the same regime (not a blow-up) — the paper's narrow-bit thesis.
  EXPECT_LT(std::fabs(std::log(ppl_by_mode[1] / ppl_by_mode[0])), 0.1);
  EXPECT_LT(std::fabs(std::log(ppl_by_mode[2] / ppl_by_mode[0])), 0.7);
}

}  // namespace
}  // namespace opal
