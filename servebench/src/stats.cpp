#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servebench {

Percentile nearest_rank(std::vector<double> samples, double pct) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  // pct * n first: exact for integral percentiles, so ranks on exact
  // multiples (p90 of 100 samples = rank 90) do not round up.
  auto rank = static_cast<std::size_t>(std::ceil(pct * n / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

std::string sample_note(const Percentile& p) {
  return "nearest rank, " + std::to_string(p.samples) + " samples, " +
         std::to_string(p.beyond) + " beyond";
}

double mean_gap(const std::vector<double>& token_times) {
  if (token_times.size() < 2) return 0.0;
  return (token_times.back() - token_times.front()) /
         static_cast<double>(token_times.size() - 1);
}

void append_gaps(const std::vector<double>& token_times,
                 std::vector<double>& out) {
  for (std::size_t i = 1; i < token_times.size(); ++i) {
    out.push_back(token_times[i] - token_times[i - 1]);
  }
}

}  // namespace servebench
