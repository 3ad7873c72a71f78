// Softmax implementations: the FP reference and OPAL's log2-based unit
// (Section 4.2).
//
// OPAL quantizes the attention map in the log2 domain:
//
//   AttnQ = clip( -ceil_round(log2(softmax(Q.K^T / sqrt(dk)))), 0, 2^b - 1 )
//
// so the attention weight is the power of two 2^-AttnQ and 'Attn.V' becomes
// shift-and-accumulate (Fig 5(e)). The log2 itself is computed without FP
// multiply/divide/log hardware via Eq. (3): with e_i = exp(x_i) = 2^Ei * 1.Mi
// and S = sum_j e_j = 2^Es * 1.Ms,
//
//   round(log2(e_i / S)) = (Ei - Es) + sign(Mi - Ms) * [ |Mi - Ms| >= 0.5 ]
//
// i.e. an INT exponent subtraction plus a 7-bit mantissa comparison. The
// mantissa comparison approximates rounding the true log2(1.Mi / 1.Ms) term;
// it is off by at most one count, which is the approximation the paper
// accepts (<0.4 PPL on WikiText-2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/float_bits.h"
#include "common/tensor.h"

namespace opal {

/// Numerically stable FP softmax (max-subtracted), the accuracy baseline.
void softmax_reference(std::span<const float> in, std::span<float> out);

/// Double-precision log2-quantized softmax: codes = clip(-round(log2 p), 0,
/// 2^b-1). Ground truth for the hardware unit below.
[[nodiscard]] std::vector<std::uint8_t> log2_softmax_exact(
    std::span<const float> in, int bits);

/// Configuration of the hardware log2 softmax unit.
struct Log2SoftmaxConfig {
  /// Bit-width of the attention-map codes; the paper runs the attention path
  /// at the high activation bit-width (7 for A4/7, 5 for A3/5).
  int bits = 7;
};

/// Bit-faithful model of the OPAL log2 softmax unit: exponentials are taken
/// in bfloat16, the sum runs through the FP adder tree, and the log2 of each
/// ratio is produced by the Eq. (3) integer datapath.
[[nodiscard]] std::vector<std::uint8_t> log2_softmax_unit(
    std::span<const float> in, const Log2SoftmaxConfig& config);

/// The same unit with each code's weight (log2_code_weight) written straight
/// into `out`, which the bf16 exponentials use as their buffer: no
/// allocation, and `out` may alias `in`. What the attention path and the
/// sampler consume.
void log2_softmax_weights(std::span<const float> in,
                          const Log2SoftmaxConfig& config,
                          std::span<float> out);

/// Weight 2^-code of one log2-domain code. Codes from 127 up (8-bit codes
/// reach 255) lie below fp32's normal range and weigh 0, as the fully
/// underflowed code of the 7-bit unit always has.
[[nodiscard]] inline float log2_code_weight(std::uint8_t code) {
  return code >= 127 ? 0.0f : exp2i(-static_cast<int>(code));
}

/// Reconstructs attention weights 2^-code from log2-domain codes.
void attention_weights_from_codes(std::span<const std::uint8_t> codes,
                                  std::span<float> out);

/// Shift-and-accumulate 'Attn.V' (Fig 5(e)): out = sum_i 2^-codes[i] * V[i,:],
/// where V is [seq_len x head_dim]. On hardware each V row is shifted right
/// by its attention code and fed to the adder tree; no multipliers involved.
void shift_accumulate_attn_v(std::span<const std::uint8_t> codes,
                             const Matrix& v, std::span<float> out);

/// Dense reference 'Attn.V' with FP attention probabilities, for comparison.
void reference_attn_v(std::span<const float> probs, const Matrix& v,
                      std::span<float> out);

}  // namespace opal
