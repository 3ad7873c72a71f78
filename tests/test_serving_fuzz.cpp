// Randomized differential harness over ServingEngine: seeded random
// sequences of submit / step / preempt / release against engines
// that vary the pool (down to one block column), kv_mode, scheduler, chunk
// width, speculation, the prefix cache and the thread count.
//
// After every op the pool's accounting balances (every in-use block has a
// holder, allocations - frees == blocks in use, the cache-only blocks are
// exactly the reclaimable ones, committed storage equals the in-use peak).
// After every step the token observer has fired exactly once, in order, per
// generated token, every preemption is a scheduler victim pick or a manual
// preempt(), and a step that decodes nothing leaves nothing running or
// queued. At the end: every finished stream equals its solo decode bitwise
// (an evicted one is a prefix of it), and releasing every id and clearing
// the prefix cache returns every block. Every other seed is traced: its step trace
// must read back from its JSON form and balance on replay (the replayed
// generated tokens are the requests' generated tokens, and the replayed
// rows are the engine's tokens_decoded).
//
// The solo decode is the InferenceEngine facade under fp32 KV. The facade's
// own KV is always fp32, so under int8 / log2 KV the reference is the same
// request served alone by a one-slot engine with an unbounded pool, no
// speculation and no prefix cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "accel/replay.h"
#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/serving_engine.h"
#include "serving_invariants.h"

namespace opal {
namespace {

constexpr std::size_t kBlockSize = 4;
constexpr std::size_t kMaxSeqLen = 32;

const SyntheticModel& fuzz_model() {
  static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                    5);
  return model;
}

std::shared_ptr<const PreparedModel> prepared(KvQuantMode mode) {
  EngineConfig ecfg = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  ecfg.max_seq_len = kMaxSeqLen;
  ecfg.kv_block_size = kBlockSize;
  ecfg.kv_mode = mode;
  return std::make_shared<const PreparedModel>(fuzz_model(), ecfg);
}

/// Raw mt19937_64 draws reduced by modulo: the standard fixes the engine's
/// output sequence, not the distributions', so the op sequence is the same
/// on every standard library.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : gen_(seed) {}
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(gen_() % n);
  }
  bool chance(std::size_t percent) { return below(100) < percent; }

 private:
  std::mt19937_64 gen_;
};

/// Three shared 8-token histories (two KV blocks each) so the prefix cache
/// finds hits and the n-gram drafter finds matches.
Request random_request(Draw& draw) {
  Request req;
  const std::size_t history = draw.below(3);
  const std::size_t shared = draw.below(9);
  for (std::size_t i = 0; i < shared; ++i) {
    req.prompt.push_back((history * 11 + (i % 3) * 5) % 64);
  }
  const std::size_t tail = 1 + draw.below(6);
  for (std::size_t i = 0; i < tail; ++i) req.prompt.push_back(draw.below(64));
  req.max_new_tokens = draw.below(9);
  req.priority = static_cast<int>(draw.below(2));
  if (draw.chance(40)) {
    req.sampling.policy = SamplePolicy::kTopP;
    req.sampling.temperature = 0.9f;
    req.sampling.top_p = 0.9f;
    req.sampling.seed = draw.below(1000);
  }
  if (draw.chance(20)) req.sampling.stop_tokens = {draw.below(64)};
  return req;
}

struct FuzzCase {
  KvQuantMode mode = KvQuantMode::kFp32;
  ServingConfig scfg;
  bool observe_logits = false;
  std::string describe;
};

FuzzCase random_case(Draw& draw, std::uint64_t seed) {
  static constexpr KvQuantMode kModes[] = {
      KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2};
  FuzzCase c;
  c.mode = kModes[draw.below(3)];
  c.scfg.max_batch = 1 + draw.below(4);
  c.scfg.n_threads = draw.chance(50) ? 2 : 0;
  c.scfg.prefill_chunk_tokens = 1 + draw.below(6);
  switch (draw.below(3)) {
    case 0:
      break;  // FIFO
    case 1:
      c.scfg.scheduler = std::make_shared<PriorityScheduler>();
      break;
    default:
      c.scfg.scheduler = std::make_shared<FairShareScheduler>();
      break;
  }
  if (draw.chance(50)) {
    c.scfg.speculative.policy = DraftPolicy::kNgram;
    c.scfg.speculative.draft_tokens = 1 + draw.below(4);
  }
  c.scfg.enable_prefix_cache = draw.chance(50);
  c.observe_logits = draw.chance(50);
  // Parity, not a draw, so tracing leaves every seed's op sequence as it
  // was. The ring holds the 2000-step cap at 32 events a step.
  c.scfg.trace = seed % 2 == 0;
  c.scfg.trace_capacity = 1 << 16;
  // One block column (2 * n_layers blocks) up to the dense footprint.
  static constexpr std::size_t kColumns[] = {1, 2, 3, 5, 8, 32};
  c.scfg.kv_pool_blocks = 4 * kColumns[draw.below(6)];
  c.describe = "seed " + std::to_string(seed) + " kv " + to_string(c.mode) +
               " batch " + std::to_string(c.scfg.max_batch) + " threads " +
               std::to_string(c.scfg.n_threads) + " chunk " +
               std::to_string(c.scfg.prefill_chunk_tokens) + " sched " +
               (c.scfg.scheduler ? c.scfg.scheduler->name() : "fifo") +
               " spec " +
               std::to_string(c.scfg.speculative.draft_tokens *
                              c.scfg.speculative.enabled()) +
               " prefix " + std::to_string(c.scfg.enable_prefix_cache) +
               " pool " + std::to_string(c.scfg.kv_pool_blocks) + " trace " +
               std::to_string(c.scfg.trace);
  return c;
}

/// The request served with nobody else around.
std::vector<std::size_t> solo_tokens(
    const std::shared_ptr<const PreparedModel>& model, const Request& req) {
  if (model->config().kv_mode == KvQuantMode::kFp32) {
    InferenceEngine facade(model);
    return facade.generate(req.prompt, req.max_new_tokens, req.sampling)
        .tokens;
  }
  return solo_serve_tokens(model, req);
}

void run_case(std::uint64_t seed) {
  Draw draw(seed);
  FuzzCase c = random_case(draw, seed);
  SCOPED_TRACE(c.describe);
  const auto model = prepared(c.mode);

  std::map<RequestId, Request> requests;
  std::map<RequestId, RequestResult> harvested;
  std::map<RequestId, std::vector<std::size_t>> streamed;
  std::map<RequestId, FinishReason> last_reason;
  std::size_t manual_preempts = 0;
  {
    ServingEngine engine(model, c.scfg);
    engine.set_token_observer([&](RequestId id, std::size_t index,
                                  std::size_t token, FinishReason reason) {
      auto& stream = streamed[id];
      ASSERT_EQ(index, stream.size()) << "request " << id;
      ASSERT_EQ(last_reason[id], FinishReason::kNone) << "request " << id;
      stream.push_back(token);
      last_reason[id] = reason;
    });
    if (c.observe_logits) {
      // Widens every pass to logits for all its rows.
      engine.set_logits_observer(
          [](RequestId, std::size_t, std::span<const float>) {});
    }
    const auto harvest = [&](RequestId id) {
      if (!engine.finished(id)) return;
      harvested.emplace(id, engine.result(id));
      ASSERT_TRUE(engine.release(id));
    };

    std::size_t steps = 0;
    const std::size_t n_ops = 40 + draw.below(40);
    for (std::size_t op = 0; op < n_ops || engine.running() > 0 ||
                             engine.queued() > 0;
         ++op) {
      ASSERT_LT(steps, 2000u) << "engine did not drain";
      const std::size_t kind = op < n_ops ? draw.below(10) : 9;
      if (kind < 3) {
        const Request req = random_request(draw);
        requests.emplace(engine.submit(req), req);
      } else if (kind == 3) {
        std::vector<RequestId> running;
        for (const auto& [id, req] : requests) {
          if (!harvested.contains(id) &&
              engine.result(id).status == RequestStatus::kRunning) {
            running.push_back(id);
          }
        }
        if (running.empty()) continue;
        engine.preempt(running[draw.below(running.size())]);
        ++manual_preempts;
      } else if (kind == 4 && !requests.empty()) {
        auto it = requests.begin();
        std::advance(it,
                     static_cast<std::ptrdiff_t>(draw.below(requests.size())));
        if (!harvested.contains(it->first)) harvest(it->first);
      } else {
        const std::size_t decoded = engine.step();
        ++steps;
        const std::string what = "after step " + std::to_string(steps);
        if (decoded == 0) {
          // A zero step means the engine has drained, never a stall.
          ASSERT_EQ(engine.running(), 0u) << what;
          ASSERT_EQ(engine.queued(), 0u) << what;
        }
        ASSERT_EQ(engine.stats().preemptions,
                  engine.scheduler().counts().victim_picks + manual_preempts)
            << what;
        for (const auto& [id, req] : requests) {
          if (harvested.contains(id)) continue;
          const RequestResult res = engine.result(id);
          ASSERT_EQ(streamed[id].size(), res.generated())
              << what << " request " << id;
        }
      }
      expect_pool_balanced(engine.kv_pool(), engine.stats(),
                           "after op " + std::to_string(op));
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const auto& [id, req] : requests) {
      if (!harvested.contains(id)) harvest(id);
    }
    ASSERT_EQ(harvested.size(), requests.size());
    if (c.scfg.trace) {
      const StepTrace trace = step_trace_from_tracer(engine.tracer());
      ASSERT_EQ(trace.truncated_events, 0u);
      // Every pass stays within max_seq_len, so the file form reads back.
      EXPECT_TRUE(parse_step_trace(trace.to_json()) == trace);
      std::size_t generated = 0;
      for (const auto& [id, res] : harvested) generated += res.generated();
      const ReplayReport rep = replay_trace(make_bf16_device(), trace);
      EXPECT_EQ(rep.tokens_generated, generated);
      EXPECT_EQ(rep.rows_fed, engine.stats().tokens_decoded);
    }
    if (engine.prefix_cache() != nullptr) engine.prefix_cache()->clear();
    EXPECT_EQ(engine.kv_pool().blocks_in_use(), 0u) << "blocks leaked";
  }

  for (const auto& [id, req] : requests) {
    const RequestResult& res = harvested.at(id);
    const std::vector<std::size_t> solo = solo_tokens(model, req);
    const std::vector<std::size_t> generated(
        res.tokens.begin() + static_cast<std::ptrdiff_t>(res.prompt_len),
        res.tokens.end());
    EXPECT_EQ(streamed[id], generated) << "request " << id;
    if (res.status == RequestStatus::kFinished) {
      EXPECT_EQ(res.tokens, solo) << "request " << id;
      EXPECT_EQ(last_reason[id], res.generated() > 0 ? res.finish_reason
                                                     : FinishReason::kNone)
          << "request " << id;
    } else {
      ASSERT_EQ(res.status, RequestStatus::kEvicted) << "request " << id;
      ASSERT_LE(res.tokens.size(), solo.size()) << "request " << id;
      EXPECT_TRUE(std::equal(res.tokens.begin(), res.tokens.end(),
                             solo.begin()))
          << "request " << id;
    }
  }
}

class ServingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServingFuzz, MatchesSoloDecodeAndBalancesThePool) {
  run_case(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace opal
