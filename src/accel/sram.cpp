#include "accel/sram.h"

#include <cmath>

#include "common/tensor.h"

namespace opal {

namespace {
constexpr double kAnchorBytes = 64.0 * 1024.0;
}

SramModel::SramModel(std::size_t capacity_bytes, SramParams params)
    : capacity_(capacity_bytes), params_(params) {
  require(capacity_bytes > 0, "SramModel: capacity must be positive");
}

double SramModel::read_energy_pj() const {
  const double ratio = static_cast<double>(capacity_) / kAnchorBytes;
  return params_.read_energy_pj_at_64kb * std::sqrt(ratio);
}

double SramModel::leakage_mw() const {
  const double ratio = static_cast<double>(capacity_) / kAnchorBytes;
  return params_.leakage_mw_at_64kb * ratio;
}

double SramModel::read_energy_j(std::size_t bytes) const {
  const double accesses = static_cast<double>(bytes) / 8.0;  // 64-bit words
  return accesses * read_energy_pj() * 1e-12;
}

double SramModel::leakage_energy_j(double seconds) const {
  return leakage_mw() * 1e-3 * seconds;
}

}  // namespace opal
