// Tests of the benchmark's own logic: seeded inputs, nearest-rank
// percentiles, per-request TPOT and the host scale. Exit code 0 when every
// check holds.
#include <cstdio>
#include <string>
#include <vector>

#include "probe.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace servebench;

int failures = 0;

void check(bool cond, const std::string& what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool same_request(const opal::Request& a, const opal::Request& b) {
  return a.prompt == b.prompt && a.max_new_tokens == b.max_new_tokens &&
         a.sampling.policy == b.sampling.policy &&
         a.sampling.seed == b.sampling.seed &&
         a.sampling.temperature == b.sampling.temperature &&
         a.sampling.top_p == b.sampling.top_p &&
         a.sampling.repetition_penalty == b.sampling.repetition_penalty;
}

bool same_inputs(const Workload& a, const Workload& b) {
  if (a.arrivals.size() != b.arrivals.size() ||
      a.rounds.size() != b.rounds.size() ||
      a.warm_prompts != b.warm_prompts) {
    return false;
  }
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    if (a.arrivals[i].due_s != b.arrivals[i].due_s ||
        !same_request(a.arrivals[i].request, b.arrivals[i].request)) {
      return false;
    }
  }
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.rounds[r].size() != b.rounds[r].size()) return false;
    for (std::size_t c = 0; c < a.rounds[r].size(); ++c) {
      const auto& la = a.rounds[r][c];
      const auto& lb = b.rounds[r][c];
      if (la.size() != lb.size()) return false;
      for (std::size_t i = 0; i < la.size(); ++i) {
        if (!same_request(la[i], lb[i])) return false;
      }
    }
  }
  return true;
}

void test_seeded_inputs() {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 42, 10.0, 512);
    const Workload b = make_workload(name, 42, 10.0, 512);
    const Workload c = make_workload(name, 43, 10.0, 512);
    check(same_inputs(a, b), name + ": same seed gives the same inputs");
    check(!same_inputs(a, c), name + ": another seed gives other inputs");
    std::size_t requests = a.arrivals.size();
    for (const auto& round : make_workload(name, 42, 1.0, 512).rounds) {
      for (const auto& list : round) requests += list.size();
    }
    check(requests >= 100 || a.open_loop,
          name + ": at least 100 requests even for a short run");
  }
}

void test_open_loop_schedule() {
  const Workload w = make_workload("chat-poisson", 5, 10.0, 512);
  check(w.arrivals.size() == 800, "chat-poisson: 20 req/s for 40 s");
  bool sorted = true;
  for (std::size_t i = 1; i < w.arrivals.size(); ++i) {
    sorted = sorted && w.arrivals[i - 1].due_s <= w.arrivals[i].due_s;
  }
  check(sorted, "chat-poisson: due times ascend");
  check(w.arrivals.front().due_s >= 0.0 && w.arrivals.back().due_s < 40.0,
        "chat-poisson: due times within the span");
  check(make_workload("chat-poisson", 5, 1.0, 512).arrivals.size() == 100,
        "chat-poisson: at least 100 arrivals for a p90");
}

void test_nearest_rank() {
  const std::vector<double> five = {35, 20, 50, 15, 40};
  check(nearest_rank(five, 30).value == 20, "p30 of five is rank 2");
  check(nearest_rank(five, 40).value == 20, "p40 of five is rank 2");
  check(nearest_rank(five, 50).value == 35, "p50 of five is rank 3");
  check(nearest_rank(five, 100).value == 50, "p100 is the maximum");
  check(nearest_rank(five, 50).beyond == 2, "two samples beyond the median");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Percentile p90 = nearest_rank(hundred, 90);
  check(p90.value == 90 && p90.beyond == 10 && p90.samples == 100,
        "p90 of 1..100 is 90 with ten beyond");
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  const Percentile p99 = nearest_rank(thousand, 99);
  check(p99.value == 990 && p99.beyond == 10, "p99 of 1..1000 is 990");
  check(nearest_rank({}, 50).value == 0 && nearest_rank({}, 50).samples == 0,
        "empty input");
  check(nearest_rank({7}, 99).value == 7, "single sample");
}

void test_tpot_with_bursts() {
  // A plain token, then a speculative burst committing three tokens at
  // once (zero gaps), then one more after a long step.
  const std::vector<double> t = {0.0, 10.0, 10.0, 10.0, 40.0};
  check(mean_gap(t) == 10.0, "TPOT spreads a burst over its tokens");
  std::vector<double> gaps;
  append_gaps(t, gaps);
  check(gaps == std::vector<double>({10.0, 0.0, 0.0, 30.0}),
        "raw gaps keep the zeros");
  check(nearest_rank(gaps, 50).value == 0.0,
        "raw-gap median reads zero under bursts");
  check(mean_gap({5.0}) == 0.0 && mean_gap({}) == 0.0,
        "TPOT needs two tokens");
  check(mean_gap({2.0, 2.0, 2.0}) == 0.0, "one burst: zero TPOT");
}

}  // namespace

/// The scale is the probes' median over the reference: one slow outlier
/// does not move it, and a host twice as slow scales by 2.
void test_host_scale() {
  const double ref = kReferenceProbeMs;
  check(host_scale({}) == 1.0, "host scale: 1 without probes");
  check(host_scale({2 * ref, 2 * ref, 50 * ref}) == 2.0,
        "host scale: median of the probes over the reference");
  check(host_scale({ref}) == 1.0, "host scale: 1 on the reference host");
}

int main() {
  test_seeded_inputs();
  test_open_loop_schedule();
  test_nearest_rank();
  test_tpot_with_bursts();
  test_host_scale();
  if (failures == 0) std::printf("servebench logic: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
