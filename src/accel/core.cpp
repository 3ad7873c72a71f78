#include "accel/core.h"

#include <algorithm>
#include <cmath>

namespace opal {

OpalCore::OpalCore(CoreConfig config, TechParams tech)
    : config_(config), tech_(tech), cost_(core_cost(config, tech)) {}

std::size_t OpalCore::macs_per_cycle(MuMode mode) const {
  return config_.lanes * config_.mus_per_lane * mu_throughput(mode);
}

EnergyBreakdown OpalCore::mac_energy(std::size_t int_macs,
                                     std::size_t fp_macs, MuMode mode,
                                     std::size_t cycles) const {
  EnergyBreakdown e;
  const int tput = static_cast<int>(mu_throughput(mode));
  e.int_mac = static_cast<double>(int_macs) *
              tech_.int_mac_energy_pj(config_.low_bits, config_.high_bits,
                                      tput) *
              1e-12;
  e.fp_mac =
      static_cast<double>(fp_macs) * tech_.fp_mac_energy_pj() * 1e-12;
  // Adder trees, Int-to-FP, core FP tree, and distributors burn their block
  // power for the duration of the op (pJ = mW / GHz per cycle).
  const double cyc = static_cast<double>(cycles);
  const double per_cycle_pj_to_j = 1e-12 / tech_.clock_ghz;
  const double tree_power = static_cast<double>(config_.lanes) *
                                (tech_.int_adder_tree_power +
                                 tech_.int_to_fp_power) +
                            tech_.fp_adder_tree_power;
  e.adder_trees = tree_power * cyc * per_cycle_pj_to_j;
  e.distributor = static_cast<double>(config_.lanes) *
                  tech_.distributor_power * cyc * per_cycle_pj_to_j;
  return e;
}

OpStats OpalCore::run_mxv(const QuantizedTensor& act, const Matrix& w_dequant,
                          std::span<const std::size_t> fp_weight_cols,
                          int weight_bits, std::span<float> out) const {
  require(act.count == w_dequant.cols(), "run_mxv: activation/weight dims");
  require(out.size() == w_dequant.rows(), "run_mxv: output dim");

  const int act_bits = act.format.bits;
  const MuMode mode = mode_for_op(weight_bits, act_bits);

  // Route each activation block once; reuse across all output rows (the
  // distributor holds the routing for the whole MxV).
  std::vector<RoutedBlock> routing;
  routing.reserve(act.blocks.size());
  std::size_t base = 0;
  for (const auto& block : act.blocks) {
    routing.push_back(route_block(block, base, fp_weight_cols));
    base += block.codes.size();
  }

  OpStats stats;
  stats.mode = mode;
  for (std::size_t r = 0; r < w_dequant.rows(); ++r) {
    const auto w_row = w_dequant.row(r);
    double acc = 0.0;
    std::size_t col = 0;
    for (std::size_t b = 0; b < act.blocks.size(); ++b) {
      const auto& block = act.blocks[b];
      const auto result =
          lane_block_dot(block, act.block_scale(b), act_bits,
                         w_row.subspan(col, block.codes.size()), routing[b]);
      acc += result.value;
      stats.int_macs += result.int_products;
      stats.fp_macs += result.fp_products;
      col += block.codes.size();
    }
    out[r] = static_cast<float>(acc);
  }

  // Cycles: INT MACs ride the 8 lanes at the mode throughput; FP MACs ride
  // the 32 FP units concurrently. The slower path sets the op latency.
  const std::size_t int_cycles =
      (stats.int_macs + macs_per_cycle(mode) - 1) / macs_per_cycle(mode);
  const std::size_t fp_rate = config_.fp_macs_per_cycle();
  const std::size_t fp_cycles = (stats.fp_macs + fp_rate - 1) / fp_rate;
  stats.cycles = std::max<std::size_t>(1, std::max(int_cycles, fp_cycles));
  stats.energy = mac_energy(stats.int_macs, stats.fp_macs, mode, stats.cycles);
  return stats;
}

OpStats OpalCore::mxv_cost(std::size_t rows, std::size_t cols,
                           int weight_bits, int act_bits,
                           double act_outlier_fraction,
                           double weight_fp_fraction) const {
  OpStats stats;
  stats.mode = mode_for_op(weight_bits, act_bits);
  const double total =
      static_cast<double>(rows) * static_cast<double>(cols);
  const double fp_fraction = std::min(
      1.0, act_outlier_fraction + weight_fp_fraction);  // union upper bound
  stats.fp_macs = static_cast<std::size_t>(total * fp_fraction);
  stats.int_macs = static_cast<std::size_t>(total) - stats.fp_macs;

  const std::size_t int_rate = macs_per_cycle(stats.mode);
  const std::size_t fp_rate = config_.fp_macs_per_cycle();
  const std::size_t int_cycles = (stats.int_macs + int_rate - 1) / int_rate;
  const std::size_t fp_cycles = (stats.fp_macs + fp_rate - 1) / fp_rate;
  stats.cycles = std::max<std::size_t>(1, std::max(int_cycles, fp_cycles));
  stats.energy =
      mac_energy(stats.int_macs, stats.fp_macs, stats.mode, stats.cycles);
  return stats;
}

OpStats OpalCore::softmax_cost(std::size_t len) const {
  OpStats stats;
  // The unit consumes one score per lane-port per cycle (8/cycle) in two
  // passes (exp+sum, then Eq. (3) per element), fully pipelined.
  const std::size_t per_cycle = config_.lanes;
  stats.cycles = 2 * ((len + per_cycle - 1) / per_cycle) + 4;
  stats.energy.softmax = tech_.log2_softmax_power * 1e-12 /
                         tech_.clock_ghz * static_cast<double>(stats.cycles);
  return stats;
}

OpStats OpalCore::quantize_cost(std::size_t len) const {
  OpStats stats;
  // Comparator tree finds the top-4 per 128-block at 8 elements/cycle, then
  // shifts produce the codes in the same pass.
  const std::size_t per_cycle = config_.lanes;
  stats.cycles = (len + per_cycle - 1) / per_cycle + 4;
  stats.energy.quantizer = tech_.mx_quantizer_power * 1e-12 /
                           tech_.clock_ghz *
                           static_cast<double>(stats.cycles);
  return stats;
}

}  // namespace opal
