// Data distributor (Fig 6(b)) — functional model.
//
// For each 128-element activation block the distributor routes non-outlier
// codes to the INT MUs and routes (a) activation outliers and (b) products
// against bf16 weight columns to the FP units. Because activation outliers
// are ~3% and weight outliers ~0.3%, almost all products stay on the INT
// path (the paper's 96.9% figure).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "quant/format.h"

namespace opal {

struct RoutedBlock {
  /// In-block positions multiplied on INT MUs.
  std::vector<std::size_t> int_positions;
  /// In-block positions multiplied on FP units (activation outliers and
  /// bf16 weight columns).
  std::vector<std::size_t> fp_positions;

  [[nodiscard]] std::size_t size() const {
    return int_positions.size() + fp_positions.size();
  }
  [[nodiscard]] double fp_fraction() const {
    return size() == 0 ? 0.0
                       : static_cast<double>(fp_positions.size()) /
                             static_cast<double>(size());
  }
};

/// Routes one encoded activation block. `base_col` is the block's first
/// column in the weight matrix; `fp_weight_cols` is the sorted list of bf16
/// weight columns (from OWQ). route_block and route_tensor are functional
/// hardware models of the paper's data distributor: only tests call them,
/// since the device model prices routing without running it.
[[nodiscard]] RoutedBlock route_block(
    const QuantizedBlock& block, std::size_t base_col,
    std::span<const std::size_t> fp_weight_cols);

/// Routing statistics over a whole encoded tensor.
struct RoutingStats {
  std::size_t int_products = 0;
  std::size_t fp_products = 0;

  [[nodiscard]] double int_fraction() const {
    const std::size_t total = int_products + fp_products;
    return total == 0 ? 1.0
                      : static_cast<double>(int_products) /
                            static_cast<double>(total);
  }
};

[[nodiscard]] RoutingStats route_tensor(
    const QuantizedTensor& qt, std::span<const std::size_t> fp_weight_cols);

}  // namespace opal
