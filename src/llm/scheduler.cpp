#include "llm/scheduler.h"

#include <algorithm>

#include "common/tensor.h"

namespace opal {

namespace {

bool is_blocked(std::span<const std::size_t> blocked, std::size_t i) {
  return std::binary_search(blocked.begin(), blocked.end(), i);
}

/// Counts a successful pick: a first pick of the step, or one made around
/// memory-blocked candidates.
std::size_t counted(Scheduler::Counts& counts,
                    std::span<const std::size_t> blocked, std::size_t pick) {
  if (pick != Scheduler::kNone) {
    ++(blocked.empty() ? counts.admission_picks : counts.blocked_picks);
  }
  return pick;
}

}  // namespace

// --- FifoScheduler ---

std::size_t FifoScheduler::pick_admission(
    std::span<const SchedRequest> queued,
    std::span<const std::size_t> blocked) {
  // Strict head-of-line: nothing admits around a blocked head.
  if (queued.empty() || !blocked.empty()) return kNone;
  ++counts_.admission_picks;
  return 0;
}

void FifoScheduler::plan_budgets(std::span<const SchedRequest> running,
                                 std::span<std::size_t> budgets,
                                 std::size_t max_chunk) {
  if (!running.empty()) ++counts_.budget_plans;
  for (auto& b : budgets) b = max_chunk;
}

std::size_t FifoScheduler::pick_victim(
    std::span<const SchedRequest> running) {
  ++counts_.victim_picks;
  // Youngest first: admissions append, so the last slot is the newest — the
  // engine's historical hardcode.
  return running.size() - 1;
}

// --- PriorityScheduler ---

std::size_t PriorityScheduler::pick_admission(
    std::span<const SchedRequest> queued,
    std::span<const std::size_t> blocked) {
  std::size_t best = kNone;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    if (is_blocked(blocked, i)) continue;
    // Strictly higher priority wins; FIFO (lower index) within a level.
    if (best == kNone || queued[i].priority > queued[best].priority) best = i;
  }
  return counted(counts_, blocked, best);
}

void PriorityScheduler::plan_budgets(std::span<const SchedRequest> running,
                                     std::span<std::size_t> budgets,
                                     std::size_t max_chunk) {
  if (running.empty()) return;
  ++counts_.budget_plans;
  int top = running[0].priority;
  for (const auto& seq : running) top = std::max(top, seq.priority);
  // Only the most urgent class present prefills at full chunk width; lower
  // classes trickle at one token per step, so a bulk prompt cannot inflate
  // the wall-clock of steps an interactive request is waiting on. When the
  // urgent work drains, the next class becomes `top` and opens back up.
  for (std::size_t i = 0; i < running.size(); ++i) {
    budgets[i] = running[i].priority == top ? max_chunk : 1;
  }
}

std::size_t PriorityScheduler::pick_victim(
    std::span<const SchedRequest> running) {
  ++counts_.victim_picks;
  std::size_t victim = 0;
  for (std::size_t i = 1; i < running.size(); ++i) {
    // Lowest priority first; youngest (highest index) within a level.
    if (running[i].priority <= running[victim].priority) victim = i;
  }
  return victim;
}

// --- FairShareScheduler ---

FairShareScheduler::FairShareScheduler() : FairShareScheduler(Config{}) {}

FairShareScheduler::FairShareScheduler(Config config) : config_(config) {
  require(config_.max_credit_quanta >= 1,
          "FairShareScheduler: max_credit_quanta must be >= 1");
}

std::size_t FairShareScheduler::pick_admission(
    std::span<const SchedRequest> queued,
    std::span<const std::size_t> blocked) {
  // Arrival order, skipping the blocked: admission fairness is
  // starvation-freedom, and FIFO is the only order that gives every request
  // a bounded wait unconditionally. The sharing happens in plan_budgets,
  // between requests already running.
  for (std::size_t i = 0; i < queued.size(); ++i) {
    if (!is_blocked(blocked, i)) return counted(counts_, blocked, i);
  }
  return kNone;
}

void FairShareScheduler::plan_budgets(std::span<const SchedRequest> running,
                                      std::span<std::size_t> budgets,
                                      std::size_t max_chunk) {
  if (!running.empty()) ++counts_.budget_plans;
  const std::size_t quantum =
      config_.quantum != 0 ? config_.quantum : max_chunk;
  const long long cap = static_cast<long long>(quantum) *
                        static_cast<long long>(config_.max_credit_quanta);
  for (std::size_t i = 0; i < running.size(); ++i) {
    long long& credit = credit_[running[i].id];
    credit = std::min(credit + static_cast<long long>(quantum), cap);
    // Deficit round robin: spend the balance, floor 1 (every runner always
    // advances — the starvation-freedom guarantee), ceiling max_chunk (the
    // engine clamps to known tokens and KV space on top).
    budgets[i] = static_cast<std::size_t>(std::clamp(
        credit, 1LL, static_cast<long long>(std::max<std::size_t>(
                         max_chunk, 1))));
  }
}

std::size_t FairShareScheduler::pick_victim(
    std::span<const SchedRequest> running) {
  ++counts_.victim_picks;
  std::size_t victim = 0;
  for (std::size_t i = 1; i < running.size(); ++i) {
    // Most-served first — it has had the largest share of the engine; ties
    // go to the youngest, matching the FIFO policy's bias.
    if (running[i].tokens_served >= running[victim].tokens_served) {
      victim = i;
    }
  }
  return victim;
}

void FairShareScheduler::on_served(RequestId id, std::size_t tokens) {
  const auto it = credit_.find(id);
  if (it == credit_.end()) return;
  // The budget floor of 1 can overdraw an empty account by at most one
  // token per step, and the account re-banks a quantum before it is spent
  // from again — so balances stay within [-max_chunk, cap] forever.
  it->second -= static_cast<long long>(tokens);
}

void FairShareScheduler::on_retired(RequestId id) { credit_.erase(id); }

long long FairShareScheduler::max_abs_credit() const {
  long long worst = 0;
  for (const auto& [id, credit] : credit_) {
    worst = std::max(worst, credit < 0 ? -credit : credit);
  }
  return worst;
}

}  // namespace opal
