// Reconfigurable INT multiply unit (Fig 7).
//
// One INT MU holds four low-bit multipliers. In low-low mode all four retire
// independent (low x low) products; in low-high mode pairs combine via
// shift-by-(low-1) to form (low x high) products; in high-high mode all four
// combine into one (high x high) product. Throughput per cycle is therefore
// 4 / 2 / 1 — the paper's 1024 / 512 / 256 MACs per core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace opal {

enum class MuMode : std::uint8_t { kLowLow, kLowHigh, kHighHigh };

[[nodiscard]] std::string to_string(MuMode mode);

/// Products one MU retires per cycle in `mode`.
[[nodiscard]] std::size_t mu_throughput(MuMode mode);

/// Picks the MU mode from the two operand bit-widths of a matvec.
/// Weights are always low-bit (OWQ INT3/4); activations select the mode;
/// Q.K^T / Attn.V with two high-bit operands use high-high.
[[nodiscard]] MuMode mode_for(int weight_bits, int act_bits, int low_bits);

/// Functional model of one reconfigurable multiply: splits the wide operand
/// into low-bit slices, multiplies each against the narrow operand on a
/// low-bit array, and recombines with shifts — verifying that the composed
/// result equals the direct product (the Fig 7 datapath). A functional
/// hardware model of the paper: only tests call it, since the device model
/// prices a multiply by mode_for / mu_throughput and never runs one.
[[nodiscard]] std::int32_t composed_multiply(std::int16_t a, std::int16_t b,
                                             int a_bits, int b_bits,
                                             int low_bits);

}  // namespace opal
