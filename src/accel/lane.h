// Compute lane (Section 4.3.2) — functional + cost model of one of the
// eight MxV lanes: 32 INT MUs, 4 FP units, an INT adder tree, and an
// Int-to-FP converter that folds the shared scales back in.
//
// The functional path is bit-faithful to the quantization library: INT
// products are computed on integer codes, accumulated in an integer tree,
// and converted to FP with the block's power-of-two scale; FP products are
// bfloat16 multiplies accumulated in FP.
#pragma once

#include <cstddef>
#include <span>

#include "accel/distributor.h"
#include "accel/int_mu.h"
#include "accel/tech.h"
#include "quant/format.h"

namespace opal {

/// One lane's dot product of an encoded activation block against one row
/// segment of the weight matrix.
struct LaneBlockResult {
  float value = 0.0f;          // partial dot product contribution
  std::size_t int_products = 0;
  std::size_t fp_products = 0;
};

/// Computes dot(act_block, weights[row, base_col .. base_col+len)) with INT
/// codes for non-outliers (weights given as integer codes with a bf16
/// per-block scale) and FP for outliers / fp weight columns.
///
/// `w_row` is the dequantized weight row segment (exact products of codes
/// and power-of-two or bf16 scales, so float arithmetic on it is exact);
/// the split between INT and FP paths follows `routed`. lane_block_dot and
/// lane_cycles are functional hardware models of the paper's lane: only
/// tests call them (lane_block_dot also through OpalCore::run_mxv), since
/// the device model prices a lane from OpalCore's cost tables.
[[nodiscard]] LaneBlockResult lane_block_dot(
    const QuantizedBlock& block, int block_scale, int act_bits,
    std::span<const float> w_row, const RoutedBlock& routed);

/// Cycle count for a lane to process `n_blocks` blocks of `block_size` in
/// MU mode `mode`: the 32 MUs retire 32*throughput(mode) products/cycle.
[[nodiscard]] std::size_t lane_cycles(std::size_t n_blocks,
                                      std::size_t block_size, MuMode mode,
                                      const CoreConfig& config);

}  // namespace opal
