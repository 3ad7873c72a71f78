// Sample statistics the benchmark reports: nearest-rank percentiles over
// raw samples (no bucketing, no interpolation) and per-request token gaps.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace servebench {

/// A percentile read off raw samples, with the sample count it rests on.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly above the percentile's rank.
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the sample of 1-based rank ceil(pct/100 * n)
/// in ascending order. `pct` in (0, 100]; an empty input gives value 0.
[[nodiscard]] Percentile nearest_rank(std::vector<double> samples,
                                      double pct);

/// "nearest rank, N samples, K beyond": how a percentile is printed.
[[nodiscard]] std::string sample_note(const Percentile& p);

/// Time per output token of one request: the mean gap between its
/// generated tokens, (last - first) / (n - 1). Tokens committed together by
/// one speculative burst share a timestamp, so their gaps are zero; the
/// mean still spreads the burst's cost over the tokens it produced. Needs
/// at least two tokens (returns 0 otherwise).
[[nodiscard]] double mean_gap(const std::vector<double>& token_times);

/// Appends every raw gap between consecutive token times to `out`.
void append_gaps(const std::vector<double>& token_times,
                 std::vector<double>& out);

}  // namespace servebench
