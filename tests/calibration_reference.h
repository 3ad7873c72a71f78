// Shared test helper: OWQ's channel ranking over a CalibrationStats, as a
// reference the calibration tests check against. Sensitivity is the
// Hessian-diagonal proxy (CalibrationStats::hessian_diag); OWQ's own column
// selection (owq/owq.h) reads the same diagonal.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "owq/calibration.h"

namespace opal::calibration_reference {

/// Channels sorted by descending sensitivity (ties keep index order).
inline std::vector<std::size_t> ranked_channels(
    const CalibrationStats& stats) {
  const auto diag = stats.hessian_diag();
  std::vector<std::size_t> idx(diag.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return diag[a] > diag[b];
  });
  return idx;
}

/// The `count` most sensitive channels, sorted by index.
inline std::vector<std::size_t> top_channels(const CalibrationStats& stats,
                                             std::size_t count) {
  auto ranked = ranked_channels(stats);
  ranked.resize(std::min(count, ranked.size()));
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

}  // namespace opal::calibration_reference
