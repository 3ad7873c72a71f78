// Analytical SRAM model standing in for CACTI 6.0 (DESIGN.md §2).
//
// The paper uses CACTI to size the 512 KB global buffer and 2 KB softmax
// buffer and to charge their leakage into the per-token energy (leakage is
// the dominant on-chip term because single-batch generation is
// latency-bound). We fit the standard CACTI trends at 65 nm: leakage grows
// ~linearly with capacity, read energy grows ~sqrt(capacity)
// (wordline/bitline halves per doubling of subarrays). Buffers are only
// read and leak in the device model, so area and write energy are not
// modeled (the core's area comes from tech.h).
#pragma once

#include <cstddef>

namespace opal {

struct SramParams {
  // Calibration anchors at 64 KB, 65 nm, 64-bit words. The leakage anchor
  // follows CACTI's high-performance 65 nm cells (~0.9 mW/KB), which is what
  // makes buffer leakage a first-order term of Fig 8 at multi-second
  // per-token latencies.
  double read_energy_pj_at_64kb = 18.0;  // per 64-bit access
  double leakage_mw_at_64kb = 56.0;
};

class SramModel {
 public:
  SramModel(std::size_t capacity_bytes, SramParams params = {});

  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_; }
  /// Energy of one 64-bit read access, pJ.
  [[nodiscard]] double read_energy_pj() const;
  [[nodiscard]] double leakage_mw() const;

  /// Dynamic energy to stream `bytes` through the array (reads), joules.
  [[nodiscard]] double read_energy_j(std::size_t bytes) const;
  /// Leakage energy over `seconds`, joules.
  [[nodiscard]] double leakage_energy_j(double seconds) const;

 private:
  std::size_t capacity_;
  SramParams params_;
};

/// Off-chip DRAM interface model: bandwidth bound + per-bit access energy.
struct DramModel {
  double bandwidth_gbps = 18.0;   // GB/s, single-batch LPDDR-class
  double energy_pj_per_bit = 4.0;

  /// Seconds to stream `bytes`.
  [[nodiscard]] double transfer_seconds(std::size_t bytes) const {
    return static_cast<double>(bytes) / (bandwidth_gbps * 1e9);
  }
  /// Joules to stream `bytes`.
  [[nodiscard]] double transfer_energy_j(std::size_t bytes) const {
    return static_cast<double>(bytes) * 8.0 * energy_pj_per_bit * 1e-12;
  }
};

}  // namespace opal
