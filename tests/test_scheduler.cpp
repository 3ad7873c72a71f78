// Scheduler subsystem: chunked multi-token prefill must be bitwise
// identical to token-by-token stepping in every kv_mode, the FIFO policy at
// chunk 1 must reproduce the pre-scheduler engine decision-for-decision,
// priority must order admission/preemption by Request::priority, and fair
// share must be starvation-free with bounded token accounts. Policies may
// only reorder WHO decodes WHEN — never change any request's tokens or
// logits.
#include "llm/scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/schemes.h"
#include "llm/serving_engine.h"
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

EngineConfig engine_config(KvQuantMode mode,
                           std::size_t max_seq_len = 32,
                           std::size_t block = 4) {
  EngineConfig cfg;
  cfg.max_seq_len = max_seq_len;
  cfg.kv_block_size = block;
  cfg.kv_mode = mode;
  return cfg;
}

std::vector<std::size_t> prompt_tokens(std::size_t n, std::size_t seed = 3) {
  std::vector<std::size_t> tokens;
  for (std::size_t i = 0; i < n; ++i) {
    tokens.push_back((i * 7 + seed) % tiny_config().vocab);
  }
  return tokens;
}

// Per-request capture keyed by submit order (ids differ between engines).
using Logged = std::map<std::size_t, std::vector<float>>;  // pos -> logits

struct ServeOutcome {
  std::vector<std::vector<std::size_t>> tokens;  // per request
  std::vector<Logged> logged;                    // per request
  ServingEngine::Stats stats;
};

ServeOutcome serve(const std::shared_ptr<const PreparedModel>& model,
                   ServingConfig cfg, const std::vector<Request>& requests) {
  ServingEngine engine(model, cfg);
  std::map<RequestId, std::size_t> index_of;
  ServeOutcome out;
  out.logged.resize(requests.size());
  engine.set_logits_observer([&](RequestId id, std::size_t pos,
                                 std::span<const float> logits) {
    out.logged[index_of.at(id)][pos].assign(logits.begin(), logits.end());
  });
  std::vector<RequestId> ids;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const RequestId id = engine.submit(requests[r]);
    index_of.emplace(id, r);
    ids.push_back(id);
  }
  engine.run();
  for (const RequestId id : ids) {
    out.tokens.push_back(engine.result(id).tokens);
  }
  out.stats = engine.stats();
  return out;
}

void expect_same_serve(const ServeOutcome& a, const ServeOutcome& b,
                       const std::string& what) {
  ASSERT_EQ(a.tokens, b.tokens) << what;
  ASSERT_EQ(a.logged.size(), b.logged.size()) << what;
  for (std::size_t r = 0; r < a.logged.size(); ++r) {
    ASSERT_EQ(a.logged[r].size(), b.logged[r].size())
        << what << " request " << r;
    for (const auto& [pos, logits] : a.logged[r]) {
      const auto it = b.logged[r].find(pos);
      ASSERT_NE(it, b.logged[r].end()) << what << " request " << r
                                       << " position " << pos;
      ASSERT_EQ(logits, it->second)
          << what << " request " << r << " position " << pos;  // bitwise
    }
  }
}

std::vector<Request> mixed_requests() {
  // Different lengths, generation budgets, and priorities, so the batch
  // holds sequences at different positions (and classes) on every step.
  return {
      Request{{3, 1, 4, 1, 5}, 6, 0},
      Request{{2, 7}, 9, 2},
      Request{{9, 2, 6, 5, 3, 5, 8}, 3, 1},
      Request{{1}, 12, 2},
      Request{{4, 4, 4}, 0, 0},
  };
}

// --- prefill_chunk: bitwise equivalence with single-token stepping ---

TEST(PrefillChunk, MatchesTokenByTokenBitwise_AllKvModes) {
  const auto tokens = prompt_tokens(19);  // crosses blocks, ends unaligned
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    const PreparedModel model(tiny_model(), engine_config(mode));
    auto pool = model.make_kv_pool(2.0);
    PassScratch scratch = model.make_scratch();

    // Reference: 19 single steps, logits copied per position.
    SequenceState ref = model.make_sequence(pool);
    std::vector<std::vector<float>> ref_logits;
    for (const std::size_t token : tokens) {
      const auto logits = model.step(ref, token, scratch);
      ref_logits.emplace_back(logits.begin(), logits.end());
    }

    // Same tokens through uneven chunks (5, 7, then the rest).
    SequenceState chunked = model.make_sequence(pool);
    const std::size_t cuts[] = {5, 7, tokens.size() - 12};
    std::size_t fed = 0;
    for (const std::size_t n : cuts) {
      const auto last = model.prefill_chunk(
          chunked, std::span<const std::size_t>(tokens).subspan(fed, n),
          scratch);
      ASSERT_EQ(chunked.chunk_tokens(), n);
      for (std::size_t j = 0; j < n; ++j) {
        const auto row = chunked.chunk_logits_row(j);
        ASSERT_EQ(ref_logits[fed + j],
                  std::vector<float>(row.begin(), row.end()))
            << to_string(mode) << " chunk position " << fed + j;
      }
      // logits() keeps meaning "the most recent decode's logits".
      ASSERT_EQ(std::vector<float>(last.begin(), last.end()),
                ref_logits[fed + n - 1]);
      fed += n;
    }
    ASSERT_EQ(chunked.position(), ref.position());
  }
}

TEST(PrefillChunk, WholePromptInOneChunkMatchesOnPrivatePool) {
  const auto tokens = prompt_tokens(13);
  const PreparedModel model(tiny_model(), engine_config(KvQuantMode::kFp32));
  PassScratch scratch = model.make_scratch();
  SequenceState ref = model.make_sequence();  // facade's private pool
  std::vector<std::vector<float>> ref_logits;
  for (const std::size_t token : tokens) {
    const auto logits = model.step(ref, token, scratch);
    ref_logits.emplace_back(logits.begin(), logits.end());
  }
  SequenceState chunked = model.make_sequence();
  model.prefill_chunk(chunked, tokens, scratch);
  for (std::size_t j = 0; j < tokens.size(); ++j) {
    const auto row = chunked.chunk_logits_row(j);
    EXPECT_EQ(ref_logits[j], std::vector<float>(row.begin(), row.end()))
        << "position " << j;
  }
}

TEST(PrefillChunk, TrailingLogitRowsMatchAllRowsAndSteps_AllKvModes) {
  // A 3-token chunk, then a 9-token chunk that crosses blocks and ends
  // unaligned, computing logits for only its last k rows.
  const auto tokens = prompt_tokens(12);
  const std::size_t head = 3;
  const std::size_t n = tokens.size() - head;
  const auto first = std::span<const std::size_t>(tokens).first(head);
  const auto chunk = std::span<const std::size_t>(tokens).subspan(head);
  const std::size_t next = 11;  // one step past the chunk
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    const PreparedModel model(tiny_model(), engine_config(mode));
    auto pool = model.make_kv_pool(3.0);
    PassScratch scratch = model.make_scratch();
    SequenceState ref = model.make_sequence(pool);
    std::vector<std::vector<float>> step_logits;
    for (const std::size_t token : tokens) {
      const auto logits = model.step(ref, token, scratch);
      step_logits.emplace_back(logits.begin(), logits.end());
    }
    const auto ref_next = model.step(ref, next, scratch);
    const std::vector<float> want_next(ref_next.begin(), ref_next.end());

    SequenceState all_rows = model.make_sequence(pool);
    model.prefill_chunk(all_rows, first, scratch);
    model.prefill_chunk(all_rows, chunk, scratch);

    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n}) {
      const std::string what =
          to_string(mode) + " logit_rows=" + std::to_string(k);
      SequenceState seq = model.make_sequence(pool);
      model.prefill_chunk(seq, first, scratch);
      const auto last = model.prefill_chunk(seq, chunk, scratch, nullptr, k);
      ASSERT_EQ(seq.chunk_tokens(), n) << what;
      for (std::size_t j = 0; j < n; ++j) {
        if (j + k < n) {
          EXPECT_THROW((void)seq.chunk_logits_row(j), std::invalid_argument)
              << what << " row " << j;
          continue;
        }
        const auto row = seq.chunk_logits_row(j);
        const std::vector<float> got(row.begin(), row.end());
        const auto full = all_rows.chunk_logits_row(j);
        EXPECT_EQ(got, std::vector<float>(full.begin(), full.end()))
            << what << " row " << j;
        EXPECT_EQ(got, step_logits[head + j]) << what << " row " << j;
      }
      if (k == 0) {
        EXPECT_TRUE(last.empty()) << what;
        EXPECT_TRUE(seq.logits().empty()) << what;
      } else {
        EXPECT_EQ(std::vector<float>(last.begin(), last.end()),
                  step_logits.back())
            << what;
      }
      // Skipping logits leaves the KV cache exactly as the steps left it.
      const auto after = model.step(seq, next, scratch);
      EXPECT_EQ(std::vector<float>(after.begin(), after.end()), want_next)
          << what;
    }
  }
}

// --- serving equivalence across policies, chunks, modes ---

TEST(SchedulerServing, FifoChunkOneBitwiseEqualsDefaultConfig) {
  // The explicit FifoScheduler at chunk 1 must reproduce the default
  // engine decision-for-decision under real pool pressure: identical
  // logits, tokens, and preemption/eviction counts.
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  const auto requests = mixed_requests();

  ServingConfig base;
  base.max_batch = 4;
  base.kv_pool_blocks = 20;  // forces recompute preemption mid-flight
  const auto a = serve(model, base, requests);

  ServingConfig fifo = base;
  fifo.scheduler = std::make_shared<FifoScheduler>();
  fifo.prefill_chunk_tokens = 1;
  const auto b = serve(model, fifo, requests);

  expect_same_serve(a, b, "default vs explicit fifo");
  EXPECT_EQ(a.stats.preemptions, b.stats.preemptions);
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.stats.tokens_decoded, b.stats.tokens_decoded);
  EXPECT_GT(a.stats.preemptions, 0u);  // pressure actually happened
}

TEST(SchedulerServing, AllPoliciesAllModesMatchTokenByTokenBitwise) {
  // The acceptance property: chunked prefill under every policy returns
  // the same tokens AND the same per-position logits as the single-token
  // FIFO path, in every kv_mode — scheduling shapes latency, not results.
  const auto requests = mixed_requests();
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    auto model = std::make_shared<const PreparedModel>(tiny_model(),
                                                       engine_config(mode));
    ServingConfig base;
    base.max_batch = 2;  // queueing + continuous refill
    const auto reference = serve(model, base, requests);

    const auto policies =
        std::vector<std::pair<std::string, std::shared_ptr<Scheduler>>>{
            {"fifo", std::make_shared<FifoScheduler>()},
            {"priority", std::make_shared<PriorityScheduler>()},
            {"fair-share", std::make_shared<FairShareScheduler>()},
        };
    for (const auto& [name, scheduler] : policies) {
      ServingConfig cfg = base;
      cfg.scheduler = scheduler;
      cfg.prefill_chunk_tokens = 5;  // unaligned with block size 4
      const auto got = serve(model, cfg, requests);
      expect_same_serve(reference, got,
                        name + " chunked, " + to_string(mode));
    }
  }
}

TEST(SchedulerServing, ChunkedThreadedAndPrefixCachedStayLossless) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  const auto requests = mixed_requests();
  ServingConfig base;
  base.max_batch = 4;
  const auto reference = serve(model, base, requests);

  // Thread-pool fan-out with chunked prefill: still bitwise.
  ServingConfig threaded = base;
  threaded.prefill_chunk_tokens = 4;
  threaded.n_threads = 3;
  expect_same_serve(reference, serve(model, threaded, requests),
                    "threaded chunked");

  // Prefix cache + chunking: tokens must match exactly (the observer is
  // silenced for restored positions, so compare tokens, not logits).
  ServingConfig cached = base;
  cached.prefill_chunk_tokens = 4;
  cached.enable_prefix_cache = true;
  const auto got = serve(model, cached, requests);
  EXPECT_EQ(reference.tokens, got.tokens);
}

// --- priority policy ordering ---

TEST(SchedulerServing, PriorityAdmitsMostUrgentFirst) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  ServingConfig cfg;
  cfg.max_batch = 1;  // admissions fully serialized
  cfg.scheduler = std::make_shared<PriorityScheduler>();
  ServingEngine engine(model, cfg);
  const RequestId low = engine.submit(Request{{3, 1}, 2, 0});
  const RequestId high = engine.submit(Request{{2, 7}, 2, 5});
  const RequestId mid = engine.submit(Request{{9, 2}, 2, 2});

  std::map<RequestId, std::size_t> finish_step;
  std::size_t steps = 0;
  while (engine.step() > 0) {
    ++steps;
    for (const RequestId id : {low, high, mid}) {
      if (!finish_step.contains(id) && engine.finished(id)) {
        finish_step[id] = steps;
      }
    }
  }
  ASSERT_EQ(finish_step.size(), 3u);
  EXPECT_LT(finish_step[high], finish_step[mid]);
  EXPECT_LT(finish_step[mid], finish_step[low]);

  // Queue-wait accounting mirrors the ordering per class.
  const auto by_prio = engine.stats().by_priority;
  EXPECT_EQ(by_prio.at(5).queue_wait_steps, 0u);
  EXPECT_GT(by_prio.at(2).queue_wait_steps, 0u);
  EXPECT_GT(by_prio.at(0).queue_wait_steps,
            by_prio.at(2).queue_wait_steps);
}

TEST(SchedulerServing, PriorityPreemptsLowestPriorityNotYoungest) {
  // Two sequences cross a block boundary together against a pool one
  // column short. FIFO's historical rule preempts the youngest (the
  // high-priority B, admitted second); PriorityScheduler must instead
  // preempt the low-priority A and keep B running throughout.
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  const std::vector<std::size_t> prompt_a = {3, 1, 4};
  const std::vector<std::size_t> prompt_b = {2, 7};
  const auto ref_a = reference_decode(model, prompt_a, 9);
  const auto ref_b = reference_decode(model, prompt_b, 7);

  for (const bool priority : {false, true}) {
    ServingConfig cfg;
    cfg.max_batch = 2;
    cfg.kv_pool_blocks = 12;  // 3 columns of 2 layers x 2 (K,V)
    if (priority) cfg.scheduler = std::make_shared<PriorityScheduler>();
    ServingEngine engine(model, cfg);
    const RequestId a = engine.submit(Request{prompt_a, 9, 0});   // low
    const RequestId b = engine.submit(Request{prompt_b, 7, 5});   // high
    bool b_started = false, b_preempted = false, a_preempted = false;
    while (engine.step() > 0) {
      const auto sa = engine.finished(a) ? RequestStatus::kFinished
                                         : engine.result(a).status;
      const auto sb = engine.finished(b) ? RequestStatus::kFinished
                                         : engine.result(b).status;
      b_started = b_started || sb == RequestStatus::kRunning;
      b_preempted = b_preempted ||
                    (b_started && sb == RequestStatus::kQueued);
      a_preempted = a_preempted || sa == RequestStatus::kQueued;
    }
    EXPECT_GT(engine.stats().preemptions, 0u) << "no pressure?";
    EXPECT_TRUE(b_started);
    if (priority) {
      EXPECT_FALSE(b_preempted) << "priority victim must be the low class";
      EXPECT_TRUE(a_preempted);
    } else {
      EXPECT_TRUE(b_preempted) << "fifo preempts the youngest";
    }
    // Either way, results are untouched by the scheduling difference.
    EXPECT_EQ(engine.result(a).tokens, ref_a.tokens);
    EXPECT_EQ(engine.result(b).tokens, ref_b.tokens);
  }
}

// --- fair share: starvation-freedom and bounded accounts ---

TEST(SchedulerServing, FairShareEveryRequestFinishesWithBoundedAccounts) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  FairShareScheduler::Config fair_cfg;
  fair_cfg.quantum = 3;
  fair_cfg.max_credit_quanta = 4;
  auto scheduler = std::make_shared<FairShareScheduler>(fair_cfg);
  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.scheduler = scheduler;
  cfg.prefill_chunk_tokens = 8;
  ServingEngine engine(model, cfg);

  std::vector<RequestId> ids;
  std::vector<Request> requests = {
      Request{prompt_tokens(20, 1), 4, 0}, Request{prompt_tokens(20, 2), 4, 0},
      Request{{5, 6, 7}, 3, 1},            Request{{8, 9}, 3, 1},
      Request{{1, 2, 3}, 3, 1},            Request{{4, 5}, 3, 1},
  };
  for (const auto& req : requests) ids.push_back(engine.submit(req));

  const long long bound =
      static_cast<long long>(fair_cfg.quantum * fair_cfg.max_credit_quanta +
                             cfg.prefill_chunk_tokens);
  while (engine.step() > 0) {
    EXPECT_LE(scheduler->max_abs_credit(), bound);  // accounts bounded
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(engine.result(ids[r]).status, RequestStatus::kFinished)
        << "request " << r << " starved";
    const auto ref = reference_decode(model, requests[r].prompt,
                                      requests[r].max_new_tokens);
    EXPECT_EQ(engine.result(ids[r]).tokens, ref.tokens) << "request " << r;
  }
  EXPECT_EQ(scheduler->account_count(), 0u);  // retired accounts dropped
}

TEST(SchedulerServing, FairShareThrottlesBulkPrefillBesideShortWork) {
  // A bulk prompt and a short request co-resident on two slots: FIFO hands
  // the bulk its full chunk every step, fair share meters it by quantum —
  // by the time the short request finishes, the bulk must have been served
  // strictly fewer tokens than FIFO would have served it.
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32, 48, 4));
  const auto long_prompt = prompt_tokens(30);

  auto served_at_short_finish =
      [&](std::shared_ptr<Scheduler> scheduler) -> std::size_t {
    ServingConfig cfg;
    cfg.max_batch = 2;
    cfg.prefill_chunk_tokens = 16;
    cfg.scheduler = std::move(scheduler);
    ServingEngine engine(model, cfg);
    engine.submit(Request{long_prompt, 4, 0});
    const RequestId short_id = engine.submit(Request{{2, 7}, 2, 1});
    while (!engine.finished(short_id)) {
      if (engine.step() == 0) {
        ADD_FAILURE() << "engine stalled before the short request finished";
        break;
      }
    }
    return engine.stats().by_priority.at(0).tokens_served;
  };

  FairShareScheduler::Config fair_cfg;
  fair_cfg.quantum = 4;
  const auto fifo_served =
      served_at_short_finish(std::make_shared<FifoScheduler>());
  const auto fair_served = served_at_short_finish(
      std::make_shared<FairShareScheduler>(fair_cfg));
  EXPECT_LT(fair_served, fifo_served);
  EXPECT_GE(fifo_served, long_prompt.size());  // fifo prefilled it already
}

// --- per-priority stats plumbing ---

TEST(SchedulerServing, PerPriorityStatsAccounting) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  ServingConfig cfg;
  cfg.max_batch = 1;  // the second request must wait
  ServingEngine engine(model, cfg);
  engine.submit(Request{{3, 1}, 2, 2});     // generates: gets a TTFT sample
  engine.submit(Request{{9, 2, 6}, 0, 7});  // pure scoring: no TTFT sample
  engine.run();

  const auto stats = engine.stats();
  ASSERT_EQ(stats.by_priority.size(), 2u);
  const auto& p2 = stats.by_priority.at(2);
  const auto& p7 = stats.by_priority.at(7);
  EXPECT_EQ(p2.submitted, 1u);
  EXPECT_EQ(p7.submitted, 1u);
  EXPECT_EQ(p2.finished, 1u);
  EXPECT_EQ(p7.finished, 1u);
  EXPECT_EQ(p2.tokens_served + p7.tokens_served, stats.tokens_decoded);
  // FIFO ran the priority-2 request first: it never waited, the scoring
  // request waited out the whole first request.
  EXPECT_EQ(p2.first_decodes, 1u);
  EXPECT_EQ(p2.queue_wait_steps, 0u);
  EXPECT_EQ(p7.first_decodes, 1u);
  EXPECT_GT(p7.queue_wait_steps, 0u);
  // TTFT samples only exist where something was generated.
  EXPECT_EQ(p2.first_tokens, 1u);
  EXPECT_GT(p2.ttft_steps, 0u);
  EXPECT_EQ(p7.first_tokens, 0u);
  EXPECT_EQ(p7.ttft_steps, 0u);
  EXPECT_EQ(stats.steps, engine.stats().steps);
}

// --- policy unit behavior (no engine) ---

TEST(SchedulerPolicy, FifoPicksFrontAndYoungestVictim) {
  FifoScheduler fifo;
  std::vector<SchedRequest> reqs(3);
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i + 1;
  EXPECT_EQ(fifo.pick_admission(reqs, {}), 0u);
  EXPECT_EQ(fifo.pick_victim(reqs), 2u);
  std::vector<std::size_t> budgets(3, 1);
  fifo.plan_budgets(reqs, budgets, 8);
  EXPECT_EQ(budgets, (std::vector<std::size_t>{8, 8, 8}));
  EXPECT_EQ(fifo.pick_admission({}, {}), Scheduler::kNone);
}

TEST(SchedulerPolicy, PriorityTieBreaksFifoOnAdmissionYoungestOnVictim) {
  PriorityScheduler prio;
  std::vector<SchedRequest> reqs(4);
  reqs[0].priority = 1;
  reqs[1].priority = 3;
  reqs[2].priority = 3;  // same level as 1: FIFO within the level
  reqs[3].priority = 0;
  EXPECT_EQ(prio.pick_admission(reqs, {}), 1u);
  EXPECT_EQ(prio.pick_victim(reqs), 3u);  // lowest level
  reqs[3].priority = 1;  // two lowest-level runners: youngest loses
  EXPECT_EQ(prio.pick_victim(reqs), 3u);
  std::vector<std::size_t> budgets(4, 1);
  prio.plan_budgets(reqs, budgets, 8);
  EXPECT_EQ(budgets, (std::vector<std::size_t>{1, 8, 8, 1}));
}

TEST(SchedulerPolicy, FairShareBanksSpendsAndCapsCredit) {
  FairShareScheduler::Config cfg;
  cfg.quantum = 4;
  cfg.max_credit_quanta = 2;  // cap = 8
  FairShareScheduler fair(cfg);
  std::vector<SchedRequest> reqs(1);
  reqs[0].id = 42;
  std::vector<std::size_t> budgets(1, 1);

  fair.plan_budgets(reqs, budgets, 16);
  EXPECT_EQ(budgets[0], 4u);  // one banked quantum
  fair.on_served(42, 1);      // decode-like spend
  fair.plan_budgets(reqs, budgets, 16);
  EXPECT_EQ(budgets[0], 7u);  // 4 - 1 + 4
  // Unspent credit saturates at the cap instead of accruing a monopoly.
  for (int i = 0; i < 5; ++i) fair.plan_budgets(reqs, budgets, 16);
  EXPECT_EQ(budgets[0], 8u);
  EXPECT_LE(fair.max_abs_credit(), 8);
  fair.on_retired(42);
  EXPECT_EQ(fair.account_count(), 0u);
}

// --- admission around a memory-blocked candidate ---

TEST(SchedulerPolicy, BlockedAdmissionHooks) {
  std::vector<SchedRequest> reqs(3);
  reqs[0].priority = 2;
  reqs[1].priority = 0;
  reqs[2].priority = 1;
  const std::vector<std::size_t> blocked = {0};

  FifoScheduler fifo;  // strict head-of-line
  EXPECT_EQ(fifo.pick_admission(reqs, blocked), Scheduler::kNone);
  PriorityScheduler prio;  // next-highest level not blocked
  EXPECT_EQ(prio.pick_admission(reqs, blocked), 2u);
  FairShareScheduler fair;  // arrival order, skipping the blocked
  EXPECT_EQ(fair.pick_admission(reqs, blocked), 1u);
  const std::vector<std::size_t> all = {0, 1, 2};
  EXPECT_EQ(prio.pick_admission(reqs, all), Scheduler::kNone);
  EXPECT_EQ(fair.pick_admission(reqs, all), Scheduler::kNone);
}

// Builds the admission-around scenario on a pool of three block columns.
// W's run leaves two columns cached; A runs in the third. Urgent H matches
// W's columns, but its next position needs a new column: adoption pins its
// own match, so H is memory-blocked and drops the adoption. L, submitted
// after H with no match, can then reclaim those cached columns. Returns
// the engine one step past that state.
struct AroundScenario {
  std::unique_ptr<ServingEngine> engine;
  RequestId a = 0, h = 0, l = 0;
};

AroundScenario run_around_scenario(
    const std::shared_ptr<const PreparedModel>& model,
    std::shared_ptr<Scheduler> scheduler) {
  ServingConfig cfg;
  cfg.max_batch = 2;
  cfg.kv_pool_blocks = 12;  // 3 block columns of 4 blocks
  cfg.enable_prefix_cache = true;
  cfg.scheduler = std::move(scheduler);
  AroundScenario out;
  out.engine = std::make_unique<ServingEngine>(model, cfg);
  const std::vector<std::size_t> history = prompt_tokens(8);
  out.engine->submit(Request{history, 1});
  out.engine->run();  // W: two full columns cached
  out.a = out.engine->submit(Request{{5, 9, 2}, 2});
  out.engine->step();  // A holds the free column
  Request urgent;
  urgent.prompt = history;
  urgent.prompt.push_back(11);
  urgent.max_new_tokens = 2;
  urgent.priority = 1;
  out.h = out.engine->submit(urgent);
  out.l = out.engine->submit(Request{{7}, 3});
  out.engine->step();
  return out;
}

TEST(SchedulerServing, PriorityAdmitsSmallRequestAroundBlockedCandidate) {
  auto model = std::make_shared<const PreparedModel>(
      tiny_model(), engine_config(KvQuantMode::kFp32));
  // Priority picks urgent H first; H cannot get a block column, so the
  // policy offers L, which reclaims H's dropped match and admits around H.
  // H keeps its queue position and holds no blocks.
  const auto prio =
      run_around_scenario(model, std::make_shared<PriorityScheduler>());
  EXPECT_EQ(prio.engine->running(), 2u);
  EXPECT_EQ(prio.engine->queued(), 1u);
  EXPECT_EQ(prio.engine->result(prio.h).status, RequestStatus::kQueued);
  EXPECT_EQ(prio.engine->result(prio.l).status, RequestStatus::kRunning);
  EXPECT_GT(prio.engine->stats().prefix_reclaimed_blocks, 0u);

  // Fair share admits around in arrival order.
  const auto fair =
      run_around_scenario(model, std::make_shared<FairShareScheduler>());
  EXPECT_EQ(fair.engine->result(fair.h).status, RequestStatus::kQueued);
  EXPECT_EQ(fair.engine->result(fair.l).status, RequestStatus::kRunning);

  // FIFO's bitwise-default contract is strict arrival order: the blocked
  // head of the queue blocks everything behind it, and the cache keeps
  // H's whole match, unpinned.
  const auto fifo =
      run_around_scenario(model, std::make_shared<FifoScheduler>());
  EXPECT_EQ(fifo.engine->running(), 1u);
  EXPECT_EQ(fifo.engine->queued(), 2u);
  EXPECT_EQ(fifo.engine->result(fifo.h).status, RequestStatus::kQueued);
  EXPECT_EQ(fifo.engine->result(fifo.l).status, RequestStatus::kQueued);
  EXPECT_EQ(fifo.engine->stats().blocks_reclaimable, 8u);

  // Every policy still drains with the solo tokens.
  std::vector<std::size_t> prompt_h = prompt_tokens(8);
  prompt_h.push_back(11);
  const auto ref_h = reference_decode(model, prompt_h, 2).tokens;
  const auto ref_l = reference_decode(model, {7}, 3).tokens;
  for (const AroundScenario* run : {&prio, &fair, &fifo}) {
    run->engine->run();
    EXPECT_EQ(run->engine->result(run->h).tokens, ref_h);
    EXPECT_EQ(run->engine->result(run->l).tokens, ref_l);
  }
}

}  // namespace
}  // namespace opal
