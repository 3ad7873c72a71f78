// Workload generation for the serving benchmark.
//
// Every input the engine sees is made here from the run's seed: the same
// seed gives the same request list and arrival schedule, byte for byte.
// The model itself is fixed (it is part of the program's set-up, not an
// input), so simulated energy is comparable across seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "llm/serving_engine.h"

namespace servebench {

/// SplitMix64: a small, portable seed stream (std:: distributions are not
/// reproducible across standard libraries).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  std::size_t between(std::size_t lo, std::size_t hi);

 private:
  std::uint64_t state_;
};

/// One request of an open-loop schedule, due `due_s` seconds after the
/// schedule starts.
struct Arrival {
  double due_s = 0.0;
  opal::Request request;
};

/// Latency limits a request must meet to count in slo_met_frac.
struct SloLimits {
  double ttft_ms = 0.0;
  double tpot_ms = 0.0;
};

struct Workload {
  std::string name;
  opal::KvQuantMode kv_mode = opal::KvQuantMode::kFp32;
  /// Engine settings; trace/profile are set per run by the benchmark.
  opal::ServingConfig serving;
  /// Open loop: `arrivals`, sorted by due time; the traced run serves the
  /// first `traced_arrivals` of them.
  bool open_loop = false;
  std::vector<Arrival> arrivals;
  std::size_t traced_arrivals = 0;
  /// Closed loop: rounds[r][c] is the list client c sends in round r, one
  /// request after another, the next as soon as the previous finishes. A
  /// round ends when every client's list is done; every round holds
  /// distinct requests, and the traced run serves round 0 again.
  std::vector<std::vector<std::vector<opal::Request>>> rounds;
  /// Prompts served (pure scoring) before timing to warm the prefix cache.
  std::vector<std::vector<std::size_t>> warm_prompts;
  SloLimits slo;
};

/// The workload names, in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`, sized in proportion to `seconds`:
/// an open loop draws a fixed number of arrivals per second, a closed loop
/// a fixed number of rounds, each workload as many as its metrics need to
/// repeat from seed to seed. Either way at least 100 requests, so a p90
/// has ten samples beyond it. Throws std::invalid_argument for an unknown
/// name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, double seconds,
                                     std::size_t vocab);

}  // namespace servebench
