// Pluggable serving scheduler: the control plane ServingEngine consults
// every step to decide WHO runs and HOW MUCH each runner may process.
//
// The engine's data plane (paged KV, prefix cache, preemption/eviction
// machinery) already makes any schedule safe — per-sequence computation is
// deterministic, full-recompute preemption replays bitwise in every
// kv_mode, and cached prefix blocks hold exactly the codes a replay would
// produce. A Scheduler therefore only shapes *latency and ordering*, never
// results: every policy yields token-for-token (and logit-for-logit)
// identical outputs per request; what changes is which request gets them
// first.
//
// Contract (engine -> scheduler), in the order hooks fire within one
// ServingEngine::step():
//
//   1. pick_admission(queued, blocked): which queued request the engine
//      should try to admit next, skipping the queue indices in `blocked`
//      (those already found inadmissible for lack of KV blocks this step).
//      Called repeatedly while slots and blocks last, first with `blocked`
//      empty. When the chosen candidate's KV demand cannot be met, the
//      engine adds it to `blocked` and calls again, so the policy may offer
//      the next candidate and let a small request admit around a
//      memory-blocked large one. FifoScheduler returns kNone once
//      `blocked` is non-empty: strict head-of-line blocking, which FIFO's
//      bitwise-default contract requires. A blocked candidate is never
//      reordered: it keeps its queue position (and adopted prefix) and is
//      offered first again next step; it can only be overtaken while it
//      waits for blocks.
//   2. plan_budgets(running, budgets, max_chunk): how many tokens each
//      running sequence may process this step. Budgets apply to KNOWN
//      tokens (prompt prefill and post-preemption replay); the engine
//      clamps every budget to [1, min(known, max_chunk, KV space)], so a
//      budget of 1 is always honored and generation always advances at one
//      token per step. Under pool pressure the engine shrinks budgets
//      toward 1 BEFORE preempting anyone — a chunk is a luxury, a running
//      sequence is a commitment.
//   3. pick_victim(running): which running sequence to recompute-preempt
//      when, with every budget already at 1, the pool still cannot cover
//      the batch's next step. Fires once per shortfall until it clears.
//   4. on_served(id, tokens) after each step, and on_retired(id) when a
//      request leaves the engine for good — the accounting feedback
//      stateful policies (fair share) consume.
//
// Between two hook calls the engine guarantees: the views passed in are
// snapshots (never retained by the engine after the call returns); indices
// a hook returns refer to the view it was handed; the engine never calls a
// hook re-entrantly. Schedulers may keep internal state keyed on RequestId
// with no synchronization of their own — every hook fires on the engine's
// serial phase — but ONE scheduler instance must then not be shared by
// engines stepped concurrently from different threads (stateless policies
// like FifoScheduler/PriorityScheduler are safe to share; FairShareScheduler
// is not).
//
// Policies:
//   * FifoScheduler — arrival order, full chunk to everyone, preempt the
//     youngest runner. With prefill_chunk_tokens == 1 this reproduces the
//     pre-scheduler engine decision-for-decision (the bitwise-preserving
//     default).
//   * PriorityScheduler — strict priority levels (higher Request::priority
//     first): admission takes the highest-priority queued request (FIFO
//     within a level), only the top priority present keeps its full prefill
//     chunk (lower levels trickle at 1 token/step while more urgent work is
//     in flight — but never starve), preemption takes the lowest-priority
//     (then youngest) runner first.
//   * FairShareScheduler — deficit round robin over per-request token
//     accounts: every step each runner banks `quantum` tokens of credit and
//     may spend its balance (capped, so idle credit cannot accumulate into
//     a later monopoly); preemption takes the most-served runner. No
//     request can be starved: every runner nets at least one token per
//     step, and admission stays arrival-ordered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

namespace opal {

using RequestId = std::uint64_t;

/// Engine -> scheduler snapshot of one request (queued or running).
struct SchedRequest {
  RequestId id = 0;
  int priority = 0;             // Request::priority; higher is more urgent
  std::size_t prompt_len = 0;
  std::size_t target_len = 0;   // generation_target(prompt_len, max_new)
  std::size_t fed = 0;          // tokens already decoded into the KV cache
  std::size_t known = 0;        // known-but-unfed tokens (prefill / replay)
  std::size_t tokens_served = 0;   // cumulative decodes for this request
  std::uint64_t submit_step = 0;   // engine step counter at submit()
};

class Scheduler {
 public:
  /// Sentinel for pick_admission: admit nothing this step.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Index (into `queued`, never empty) of the next admission candidate,
  /// not in `blocked` — the queue indices already found inadmissible this
  /// step (ascending) — or kNone to admit nothing more this step.
  virtual std::size_t pick_admission(std::span<const SchedRequest> queued,
                                     std::span<const std::size_t> blocked) = 0;

  /// Fills budgets[i] with the token budget for running[i] (same length,
  /// pre-filled with 1). `max_chunk` is ServingConfig::prefill_chunk_tokens;
  /// the engine clamps each budget to [1, min(known, max_chunk, KV space)].
  virtual void plan_budgets(std::span<const SchedRequest> running,
                            std::span<std::size_t> budgets,
                            std::size_t max_chunk) = 0;

  /// Index (into `running`, size >= 2) of the sequence to recompute-preempt
  /// under pool pressure.
  virtual std::size_t pick_victim(
      std::span<const SchedRequest> running) = 0;

  /// `tokens` tokens were COMMITTED for `id` this step — fed positions
  /// that stuck. Speculative verify rows that were rejected and rolled
  /// back are not billed (a request must not pay fair-share credit for
  /// tokens it never kept); without speculation this equals the executed
  /// decode count.
  virtual void on_served(RequestId id, std::size_t tokens) {
    (void)id;
    (void)tokens;
  }
  /// `id` retired (finished or evicted) — drop any per-request state.
  virtual void on_retired(RequestId id) { (void)id; }

  /// Lifetime decision counts, published by ServingEngine::metrics() as
  /// scheduler.admission_picks / blocked_picks / victim_picks /
  /// budget_plans. A scheduler shared between engines counts the decisions
  /// it made for every sharer.
  struct Counts {
    std::uint64_t admission_picks = 0;  // chose one, nothing blocked yet
    std::uint64_t blocked_picks = 0;    // chose one around blocked ones
    std::uint64_t victim_picks = 0;     // pick_victim chose a victim
    std::uint64_t budget_plans = 0;     // plan_budgets ran for a batch
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }

 protected:
  /// The built-in policies bump these; custom policies may too.
  Counts counts_;
};

/// Arrival order, full chunks, youngest-first preemption: the engine's
/// historical behavior as a policy object (and its default).
class FifoScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "fifo"; }
  std::size_t pick_admission(std::span<const SchedRequest> queued,
                             std::span<const std::size_t> blocked) override;
  void plan_budgets(std::span<const SchedRequest> running,
                    std::span<std::size_t> budgets,
                    std::size_t max_chunk) override;
  std::size_t pick_victim(std::span<const SchedRequest> running) override;
};

/// Strict priority levels; see the header comment.
class PriorityScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "priority"; }
  /// The highest-priority (then oldest) request not blocked; admits around
  /// memory-blocked candidates.
  std::size_t pick_admission(std::span<const SchedRequest> queued,
                             std::span<const std::size_t> blocked) override;
  void plan_budgets(std::span<const SchedRequest> running,
                    std::span<std::size_t> budgets,
                    std::size_t max_chunk) override;
  std::size_t pick_victim(std::span<const SchedRequest> running) override;
};

/// Deficit round robin over per-request token accounts; see the header
/// comment. Stateful: do not share one instance between engines.
class FairShareScheduler final : public Scheduler {
 public:
  struct Config {
    /// Tokens of credit banked per runner per step; 0 means "use the
    /// engine's prefill_chunk_tokens".
    std::size_t quantum = 0;
    /// Credit balance cap, in quanta: a runner blocked (or decoding at one
    /// token per step) for a while cannot bank more than this and then
    /// monopolize later steps. Must be >= 1.
    std::size_t max_credit_quanta = 4;
  };

  FairShareScheduler();
  explicit FairShareScheduler(Config config);

  [[nodiscard]] std::string name() const override { return "fair-share"; }
  /// The oldest request not blocked: bounded wait stays bounded — a
  /// blocked candidate is retried first next step — while free blocks
  /// never idle behind one oversized request.
  std::size_t pick_admission(std::span<const SchedRequest> queued,
                             std::span<const std::size_t> blocked) override;
  void plan_budgets(std::span<const SchedRequest> running,
                    std::span<std::size_t> budgets,
                    std::size_t max_chunk) override;
  std::size_t pick_victim(std::span<const SchedRequest> running) override;
  void on_served(RequestId id, std::size_t tokens) override;
  void on_retired(RequestId id) override;

  /// Live per-request accounts (for tests: accounts are dropped on retire,
  /// so a drained engine leaves this at 0).
  [[nodiscard]] std::size_t account_count() const { return credit_.size(); }
  /// Largest |balance| across live accounts — the boundedness invariant:
  /// never exceeds max(cap, quantum) + max_chunk of the last plan.
  [[nodiscard]] long long max_abs_credit() const;

 private:
  Config config_;
  std::unordered_map<RequestId, long long> credit_;
};

}  // namespace opal
