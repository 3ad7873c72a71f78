// OPAL core (Fig 6(a)) — cycle-level simulator with functional output.
//
// A core executes matrix-vector products over MX-OPAL-encoded activations
// and OWQ weights: eight data distributors feed eight compute lanes, lane
// outputs meet in the FP adder tree, Q.K^T results pass through the log2
// softmax unit, and outputs are re-encoded by the MX-OPAL quantizer before
// leaving the core. Cycle counts follow the paper's throughput table
// (256/512/1024 MACs per cycle by MU mode); energy is activity-based using
// the Table 3 component powers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "accel/int_mu.h"
#include "accel/lane.h"
#include "accel/tech.h"
#include "common/tensor.h"
#include "quant/format.h"

namespace opal {

/// Per-component dynamic energy of an operation, joules.
struct EnergyBreakdown {
  double int_mac = 0.0;
  double fp_mac = 0.0;
  double adder_trees = 0.0;  // INT trees + Int-to-FP + core FP tree
  double distributor = 0.0;
  double softmax = 0.0;
  double quantizer = 0.0;

  [[nodiscard]] double total() const {
    return int_mac + fp_mac + adder_trees + distributor + softmax + quantizer;
  }
};

/// Cost + routing statistics of one core-level operation.
struct OpStats {
  std::size_t cycles = 0;
  std::size_t int_macs = 0;
  std::size_t fp_macs = 0;
  MuMode mode = MuMode::kHighHigh;
  EnergyBreakdown energy;

  [[nodiscard]] double int_fraction() const {
    const auto total = int_macs + fp_macs;
    return total == 0 ? 1.0
                      : static_cast<double>(int_macs) /
                            static_cast<double>(total);
  }
};

class OpalCore {
 public:
  OpalCore(CoreConfig config, TechParams tech);

  [[nodiscard]] const CoreConfig& config() const { return config_; }
  [[nodiscard]] const TechParams& tech() const { return tech_; }
  [[nodiscard]] const CoreCost& cost() const { return cost_; }

  /// Functional MxV: y = W x with `act` the MX-OPAL encoding of x and
  /// `w_dequant` the OWQ-dequantized weights with bf16 columns
  /// `fp_weight_cols`. Returns cost stats; writes the result to `out`.
  /// A functional hardware model of the paper's core: only tests call it,
  /// checking its output against a float MxV; the device model uses the
  /// cost-only mxv_cost below.
  OpStats run_mxv(const QuantizedTensor& act, const Matrix& w_dequant,
                  std::span<const std::size_t> fp_weight_cols,
                  int weight_bits, std::span<float> out) const;

  /// Cost-only MxV for the device-level model: [rows x cols] with the given
  /// operand widths and outlier fractions (no data needed).
  [[nodiscard]] OpStats mxv_cost(std::size_t rows, std::size_t cols,
                                 int weight_bits, int act_bits,
                                 double act_outlier_fraction,
                                 double weight_fp_fraction) const;

  /// Log2 softmax over `len` attention scores.
  [[nodiscard]] OpStats softmax_cost(std::size_t len) const;

  /// MX-OPAL re-encoding of `len` output values.
  [[nodiscard]] OpStats quantize_cost(std::size_t len) const;

  /// MU mode for a (weight_bits, act_bits) operand pair.
  [[nodiscard]] MuMode mode_for_op(int weight_bits, int act_bits) const {
    return mode_for(weight_bits, act_bits, config_.low_bits);
  }

  /// Core INT MAC throughput per cycle in `mode`.
  [[nodiscard]] std::size_t macs_per_cycle(MuMode mode) const;

 private:
  [[nodiscard]] EnergyBreakdown mac_energy(std::size_t int_macs,
                                           std::size_t fp_macs, MuMode mode,
                                           std::size_t cycles) const;

  CoreConfig config_;
  TechParams tech_;
  CoreCost cost_;
};

}  // namespace opal
