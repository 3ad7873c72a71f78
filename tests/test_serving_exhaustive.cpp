// Exhaustive small-scope check of ServingEngine: every op string up to
// kMaxOps ops over a seven-op alphabet — submit a short or a long request
// at priority 0 or 1, step, preempt the oldest running request, release the
// oldest finished one — on a one-layer model with two-position blocks, two
// slots and pools of one to three block columns, under each scheduler, with
// the prefix cache on and off.
//
// After every op: the pool's accounting balances, committed storage equals
// the in-use peak, and every preemption is a scheduler victim pick or a
// manual preempt(). After every step: the token observer has fired exactly
// once, in order, per generated token, and step() returns 0 exactly when
// nothing is left running or queued. Then the engine drains within a cap
// derived from the work left, and every finished stream equals its solo
// decode (an evicted one is a prefix of it). A failure prints the op
// string; a thrown engine bound fails the same way instead of hanging.
//
// An op that changes nothing (preempt with nothing running, release with
// nothing finished) leaves the engine in the state of the shorter string
// without it, so strings containing one are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "llm/serving_engine.h"
#include "serving_invariants.h"

namespace opal {
namespace {

constexpr std::size_t kMaxOps = 4;
constexpr std::size_t kBlockSize = 2;
constexpr std::size_t kMaxSeqLen = 8;

// The alphabet, one character per op in a printed op string.
constexpr char kOps[] = {'s', 'S', 'l', 'L', '.', 'p', 'r'};
constexpr std::size_t kNumOps = sizeof(kOps);

std::shared_ptr<const PreparedModel> tiny_model() {
  static const SyntheticModel synthetic(scaled_for_eval(llama2_7b(), 64, 1, 32),
                                        11);
  EngineConfig ecfg;
  ecfg.max_seq_len = kMaxSeqLen;
  ecfg.kv_block_size = kBlockSize;
  static const auto model =
      std::make_shared<const PreparedModel>(synthetic, ecfg);
  return model;
}

/// 's' / 'S': a two-token prompt and one generated token (one block column,
/// two fed positions). 'l' / 'L': four prompt tokens extending the short
/// prompt and two generated ones (three columns, five fed positions), so a
/// long request matches a cached short or long prefix. Upper case is
/// priority 1.
Request request_for(char op) {
  const bool is_long = op == 'l' || op == 'L';
  Request req;
  req.prompt = is_long ? std::vector<std::size_t>{5, 9, 2, 7}
                       : std::vector<std::size_t>{5, 9};
  req.max_new_tokens = is_long ? 2 : 1;
  req.priority = op == 'S' || op == 'L' ? 1 : 0;
  return req;
}

struct Config {
  std::size_t columns = 1;
  int scheduler = 0;  // 0 FIFO, 1 priority, 2 fair share
  bool prefix_cache = false;

  [[nodiscard]] ServingConfig serving() const {
    ServingConfig scfg;
    scfg.max_batch = 2;
    scfg.prefill_chunk_tokens = 2;
    scfg.kv_pool_blocks = 2 * columns;  // one layer: K and V per column
    scfg.enable_prefix_cache = prefix_cache;
    if (scheduler == 1) scfg.scheduler = std::make_shared<PriorityScheduler>();
    if (scheduler == 2) scfg.scheduler = std::make_shared<FairShareScheduler>();
    return scfg;
  }
  [[nodiscard]] std::string describe() const {
    static const char* const kNames[] = {"fifo", "priority", "fair"};
    return "pool " + std::to_string(columns) + " columns, " +
           kNames[scheduler] + ", prefix cache " +
           (prefix_cache ? "on" : "off");
  }
};

class Checker {
 public:
  Checker(const Config& config, std::set<std::string>& states)
      : config_(config), engine_(tiny_model(), config.serving()),
        states_(states) {
    engine_.set_token_observer([this](RequestId id, std::size_t index,
                                      std::size_t token, FinishReason) {
      auto& stream = streamed_[id];
      if (index != stream.size()) ADD_FAILURE() << "token index skipped";
      stream.push_back(token);
    });
  }

  /// Applies one op; false when it would change nothing.
  bool apply(char op) {
    switch (op) {
      case '.':
        step();
        break;
      case 'p': {
        const auto it = std::find_if(ids_.begin(), ids_.end(),
                                     [this](RequestId id) {
                                       return !released_.contains(id) &&
                                              engine_.result(id).status ==
                                                  RequestStatus::kRunning;
                                     });
        if (it == ids_.end()) return false;
        engine_.preempt(*it);
        ++manual_preempts_;
        break;
      }
      case 'r': {
        const auto it =
            std::find_if(ids_.begin(), ids_.end(), [this](RequestId id) {
              return !released_.contains(id) && engine_.finished(id);
            });
        if (it == ids_.end()) return false;
        released_.emplace(*it, engine_.result(*it));
        if (!engine_.release(*it)) ADD_FAILURE() << "release refused";
        break;
      }
      default: {
        const Request req = request_for(op);
        const RequestId id = engine_.submit(req);
        ids_.push_back(id);
        requests_.emplace(id, req);
        break;
      }
    }
    check_pool();
    record_state();
    return true;
  }

  /// Steps until drained, within a cap from the work left: each step
  /// advances every running sequence, so one admission of a live request
  /// takes at most its target length in steps; the cap allows each live
  /// request as many admissions as there are requests, plus one.
  void drain() {
    std::size_t work = 1;
    for (const RequestId id : ids_) {
      if (released_.contains(id) || engine_.finished(id)) continue;
      const Request& req = requests_.at(id);
      work += (req.prompt.size() + req.max_new_tokens) * (ids_.size() + 1);
    }
    for (std::size_t s = 0; s < work; ++s) {
      if (engine_.running() == 0 && engine_.queued() == 0) break;
      step();
      if (::testing::Test::HasFailure()) return;
    }
    ASSERT_EQ(engine_.running() + engine_.queued(), 0u)
        << "not drained within " << work << " steps";
    ASSERT_EQ(step(), 0u);
  }

  /// Every stream against its solo decode.
  void check_streams(const std::map<char, std::vector<std::size_t>>& solo) {
    for (const RequestId id : ids_) {
      const RequestResult res = released_.contains(id) ? released_.at(id)
                                                       : engine_.result(id);
      const std::vector<std::size_t> generated(
          res.tokens.begin() + static_cast<std::ptrdiff_t>(res.prompt_len),
          res.tokens.end());
      EXPECT_EQ(streamed_[id], generated) << "request " << id;
      const Request& req = requests_.at(id);
      const std::vector<std::size_t>& ref =
          solo.at(req.prompt.size() == 2 ? 's' : 'l');
      if (res.status == RequestStatus::kFinished) {
        EXPECT_EQ(res.tokens, ref) << "request " << id;
      } else {
        ASSERT_EQ(res.status, RequestStatus::kEvicted) << "request " << id;
        ASSERT_LE(res.tokens.size(), ref.size()) << "request " << id;
        EXPECT_TRUE(std::equal(res.tokens.begin(), res.tokens.end(),
                               ref.begin()))
            << "request " << id;
      }
    }
  }

 private:
  std::size_t step() {
    // A drained engine decodes nothing, and a step that decodes nothing
    // leaves the engine drained (an eviction inside it may drain it).
    const bool drained = engine_.running() == 0 && engine_.queued() == 0;
    const std::size_t decoded = engine_.step();
    if (drained) {
      EXPECT_EQ(decoded, 0u);
    }
    if (decoded == 0) {
      EXPECT_EQ(engine_.running() + engine_.queued(), 0u) << "stalled";
    }
    for (const RequestId id : ids_) {
      if (released_.contains(id)) continue;
      EXPECT_EQ(streamed_[id].size(), engine_.result(id).generated())
          << "request " << id;
    }
    check_pool();
    return decoded;
  }

  void check_pool() {
    const ServingEngine::Stats stats = engine_.stats();
    expect_pool_balanced(engine_.kv_pool(), stats, "");
    EXPECT_EQ(stats.preemptions,
              engine_.scheduler().counts().victim_picks + manual_preempts_);
  }

  /// The engine state as the public API shows it.
  void record_state() {
    const ServingEngine::Stats stats = engine_.stats();
    std::string state = config_.describe() + "|" +
                        std::to_string(stats.blocks_in_use) + "," +
                        std::to_string(stats.blocks_reclaimable) + "|";
    for (const RequestId id : ids_) {
      if (released_.contains(id)) {
        state += "x";
        continue;
      }
      const RequestResult res = engine_.result(id);
      state += std::to_string(requests_.at(id).prompt.size()) +
               std::to_string(requests_.at(id).priority) +
               std::to_string(static_cast<int>(res.status)) +
               std::to_string(res.generated()) + ";";
    }
    states_.insert(std::move(state));
  }

  const Config& config_;
  ServingEngine engine_;
  std::set<std::string>& states_;
  std::vector<RequestId> ids_;  // submission order
  std::map<RequestId, Request> requests_;
  std::map<RequestId, RequestResult> released_;
  std::map<RequestId, std::vector<std::size_t>> streamed_;
  std::size_t manual_preempts_ = 0;
};

/// Runs `ops` then drains; false on the first failure.
bool check_string(const Config& config, const std::string& ops,
                  const std::map<char, std::vector<std::size_t>>& solo,
                  std::set<std::string>& states, bool& skipped) {
  SCOPED_TRACE(config.describe() + ", ops \"" + ops + "\"");
  skipped = false;
  try {
    Checker checker(config, states);
    for (const char op : ops) {
      if (!checker.apply(op)) {
        skipped = true;
        return true;
      }
      if (::testing::Test::HasFailure()) return false;
    }
    checker.drain();
    if (::testing::Test::HasFailure()) return false;
    checker.check_streams(solo);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw: " << e.what();
  }
  return !::testing::Test::HasFailure();
}

TEST(ServingExhaustive, EveryOpStringKeepsTheInvariants) {
  const std::map<char, std::vector<std::size_t>> solo = {
      {'s', solo_serve_tokens(tiny_model(), request_for('s'))},
      {'l', solo_serve_tokens(tiny_model(), request_for('l'))}};
  std::set<std::string> states;
  std::size_t strings = 0;
  for (std::size_t columns = 1; columns <= 3; ++columns) {
    for (int scheduler = 0; scheduler < 3; ++scheduler) {
      for (const bool prefix_cache : {false, true}) {
        const Config config{columns, scheduler, prefix_cache};
        // Strings in length order; index i's digits in base kNumOps.
        std::size_t count = 1;
        for (std::size_t len = 0; len <= kMaxOps; ++len) {
          for (std::size_t i = 0; i < count; ++i) {
            std::string ops;
            for (std::size_t rest = i, k = 0; k < len; ++k) {
              ops.push_back(kOps[rest % kNumOps]);
              rest /= kNumOps;
            }
            bool skipped = false;
            if (!check_string(config, ops, solo, states, skipped)) return;
            strings += !skipped;
          }
          count *= kNumOps;
        }
      }
    }
  }
  std::printf("[ exhaustive ] %zu op strings, %zu distinct engine states\n",
              strings, states.size());
  RecordProperty("op_strings", static_cast<int>(strings));
  RecordProperty("distinct_states", static_cast<int>(states.size()));
}

}  // namespace
}  // namespace opal
