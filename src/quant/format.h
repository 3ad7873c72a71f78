// Data-format descriptions and encoded representations for the three
// quantizers the paper compares: MinMax (ZeroQuant-style dynamic), MXINT
// (microscaling / block floating point), and MX-OPAL (outlier-preserved
// microscaling, the paper's contribution).
//
// Encoding conventions (Fig 2):
//  * Elements enter the quantizer as bfloat16 values (1|8|7); the quantizers
//    operate on their exponent/mantissa fields.
//  * A b-bit MX element is sign + (b-1) magnitude bits of the significand
//    aligned to the shared scale: code = round_or_trunc(x / 2^(s-(b-2))),
//    saturated to +/-(2^(b-1)-1). The element owning the maximum exponent
//    therefore keeps its implicit bit plus its top (b-2) mantissa bits, and
//    every other element is right-shifted by (s - e_i) first.
//  * Dequantization is code * 2^(s-(b-2)) -- a shift, never a divide, which
//    is the hardware point of the format.
//  * MX-OPAL removes the top-n magnitudes from the block before scale
//    selection, stores them verbatim in bfloat16 with their 7-bit in-block
//    index, and uses the (n+1)-th highest exponent as the shared scale. The
//    shared scale itself is stored as a 4-bit offset from a tensor-wise
//    global scale (Fig 2(c)).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bfloat16.h"
#include "common/float_bits.h"

namespace opal {

/// How shifted-out significand bits are resolved. Hardware shifters truncate
/// (Fig 2 crosses the bits out); the MX spec rounds to nearest. Both are
/// supported; experiments default to nearest.
enum class RoundingMode : std::uint8_t { kNearest, kTruncate };

/// Block-format parameters. `bits` is the paper's b = sign + mantissa bits of
/// a non-outlier element; `outliers` is n, the bf16 values preserved per
/// block (0 for plain MXINT / MinMax).
struct BlockFormat {
  std::size_t block_size = 128;  // k
  int bits = 4;                  // b (>= 2)
  std::size_t outliers = 0;      // n
  RoundingMode rounding = RoundingMode::kNearest;

  [[nodiscard]] int max_code() const { return (1 << (bits - 1)) - 1; }
};

/// One preserved outlier: its position within the block and its bf16 value.
struct Outlier {
  std::uint16_t index = 0;
  bfloat16 value{};
};

/// Encoded form of one k-element block.
struct QuantizedBlock {
  /// Shared-scale offset from the tensor's global scale, 4-bit in hardware.
  std::uint8_t scale_offset = 0;
  /// Signed non-outlier codes, |code| <= 2^(b-1)-1. Outlier slots hold 0.
  std::vector<std::int16_t> codes;
  /// Preserved outliers (empty for MXINT).
  std::vector<Outlier> outliers;
};

/// Encoded form of a tensor: a sequence of blocks plus the tensor-wise global
/// shared scale (an unbiased power-of-two exponent).
struct QuantizedTensor {
  BlockFormat format;
  int global_scale = 0;
  std::size_t count = 0;  // original element count (last block may be short)
  std::vector<QuantizedBlock> blocks;

  /// Exact storage footprint of this encoding in bits, counting element
  /// codes, per-block 4-bit scale offsets, outlier values and their 7-bit
  /// in-block indices, and the amortized 8-bit global scale.
  [[nodiscard]] std::size_t storage_bits() const;

  /// Effective shared-scale exponent of block `i` (global + offset).
  [[nodiscard]] int block_scale(std::size_t i) const {
    return global_scale + static_cast<int>(blocks[i].scale_offset);
  }
};

/// Paper Eq. (1): memory overhead of MX-OPAL relative to MXINT/MinMax,
/// OMEM = ((k-n)b + 16n + 4) / (kb + 8).
[[nodiscard]] double mx_opal_memory_overhead(std::size_t k, std::size_t n,
                                             int b);

/// Unbiased exponent of a value after bfloat16 rounding; returns
/// `kZeroExponent` for zero (so it never wins a max-exponent scan).
inline constexpr int kZeroExponent = -127;
[[nodiscard]] int bf16_exponent_of(float v);

/// Exponent of the grid step of a b-bit element under shared scale s:
/// s - (b - 2), in [-139, 127] for every scale a block can carry.
[[nodiscard]] inline int mx_step_exponent(int shared_scale, int bits) {
  return shared_scale - (bits - 2);
}

/// Signed code of one bfloat16 value (raw bits `h`) on the grid of step
/// 2^step_exp, as the hardware shifter makes it: the 8-bit significand is
/// shifted right by (step_exp - exponent of its last bit), rounded per
/// `rounding` (nearest: half away from zero), and saturated to
/// +/-max_code. NaN gives 0; infinities saturate. Integer arithmetic
/// only: no divide and no libm call.
[[nodiscard]] inline int mx_code_of_bf16(std::uint16_t h, int step_exp,
                                         int max_code, RoundingMode rounding) {
  const int mag = h & 0x7FFF;
  const int biased = mag >> kBF16MantissaBits;
  const int mantissa = mag & ((1 << kBF16MantissaBits) - 1);
  int q = 0;
  if (biased == 0xFF) {
    q = mantissa != 0 ? 0 : max_code;
  } else {
    // Subnormals have no implicit bit and the exponent of the smallest
    // normal.
    const int sig = biased != 0 ? mantissa | (1 << kBF16MantissaBits) : mag;
    const int shift = step_exp - (std::max(biased, 1) - kBF16ExponentBias -
                                  kBF16MantissaBits);
    if (shift <= 0) {
      // max_code < 2^14, so any nonzero significand shifted left by 15 or
      // more saturates.
      q = shift <= -15 ? (sig != 0 ? max_code : 0)
                       : std::min(sig << -shift, max_code);
    } else {
      // sig < 2^8: from a shift of 9 on, both modes give 0.
      const int s = std::min(shift, 9);
      q = rounding == RoundingMode::kNearest ? (sig + (1 << (s - 1))) >> s
                                             : sig >> s;
      q = std::min(q, max_code);
    }
  }
  return (h & 0x8000) != 0 ? -q : q;
}

/// Dequantizes one code against a shared-scale exponent: code * 2^(s-(b-2)).
[[nodiscard]] inline float dequantize_code(std::int16_t code, int shared_scale,
                                           int bits) {
  return static_cast<float>(code) *
         exp2i_subnormal(mx_step_exponent(shared_scale, bits));
}

/// Quantizes one value, rounded to bfloat16 first (all the quantizer
/// hardware sees), against a shared-scale exponent with saturation.
[[nodiscard]] inline std::int16_t quantize_code(float v, int shared_scale,
                                                int bits,
                                                RoundingMode rounding) {
  return static_cast<std::int16_t>(
      mx_code_of_bf16(bfloat16(v).bits(), mx_step_exponent(shared_scale, bits),
                      (1 << (bits - 1)) - 1, rounding));
}

}  // namespace opal
