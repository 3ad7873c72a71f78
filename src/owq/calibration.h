// Calibration statistics for OWQ column selection.
//
// OWQ [5] ranks weight input-channels by the diagonal of the layer Hessian,
// which for the squared-error objective is H_jj ∝ Σ_tokens x_j². Channels
// where activation outliers live therefore dominate the ranking — exactly the
// channels whose weights must stay in bfloat16 for the activation-outlier ×
// weight products to stay accurate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace opal {

class CalibrationStats {
 public:
  explicit CalibrationStats(std::size_t dim) : sum_sq_(dim, 0.0) {}

  /// Accumulates one activation vector (one token) into the statistics.
  void accumulate(std::span<const float> activation);

  /// Hessian-diagonal proxy per input channel: Σ x_j² over all accumulated
  /// tokens.
  [[nodiscard]] std::span<const double> hessian_diag() const {
    return sum_sq_;
  }

  [[nodiscard]] std::size_t dim() const { return sum_sq_.size(); }
  [[nodiscard]] std::size_t tokens_seen() const { return tokens_; }

 private:
  std::vector<double> sum_sq_;
  std::size_t tokens_ = 0;
};

}  // namespace opal
