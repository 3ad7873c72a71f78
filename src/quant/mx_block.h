// The MX block kernel shared by MXINT (n = 0) and MX-OPAL: one selection
// scan per block, and the fused quantize -> dequantize both formats'
// quantize_dequantize() run.
//
// The fake-quant is a KernelOps entry (common/kernels.h, `mx_quantize`).
// Its scalar body, mx_quantize_scalar in mx_block.cpp (the selection below
// and the shared shifter, one row after another), is the reference every
// table equals bitwise; the AVX2 table runs a vector body.
// mx_quantize_dequantize is the dispatch wrapper: one kernels().mx_quantize
// call for one row, or for many.
//
// Selection ranks elements by their binary32 magnitude bits
// (f32_bits(v) & 0x7FFFFFFF), ties to the lower index. That is the order of
// |v| on every non-NaN input (+0 and -0 tie) and a strict weak ordering on
// every input: NaN ranks above infinity, so a NaN is the first element kept
// as a bf16 outlier. bf16 rounding and bf16_exponent_of are monotone in that
// key, so the highest exponent among the elements left after the top n is
// the block's (n+1)-th highest exponent — the shared scale — and one scan
// yields both.
//
// encode() and select_shared_scale select through the same helper, and mx_encode()'s codes come from the same per-element
// shifter (format.h), so the simulator's encoded form and the fake-quant
// path cannot disagree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/float_bits.h"
#include "quant/format.h"

namespace opal {

/// One preserved element: its position within the block and its value.
struct OutlierSlot {
  std::uint32_t index = 0;
  float value = 0.0f;
};

/// Selection key: the magnitude bits of a binary32 value.
[[nodiscard]] inline std::uint32_t magnitude_key(float v) {
  return f32_bits(v) & 0x7FFFFFFFu;
}

/// Fills the first min(top.size(), block.size()) slots of `top` with the
/// largest magnitudes of `block`, largest first (ties: lower index first),
/// and returns the highest bf16 exponent among the other elements —
/// kZeroExponent when none is nonzero. No allocation.
int select_block_outliers(std::span<const float> block,
                          std::span<OutlierSlot> top);

/// The tensor-wise rule of assign_global_scale, for one block: `global` is
/// the minimum nonzero block scale (0 when every block is zero); a block
/// sits at global + offset, the offset saturating at the 4-bit field's 15.
/// All-zero blocks take the global scale.
[[nodiscard]] inline int effective_block_scale(int scale, int global) {
  if (scale == kZeroExponent) return global;
  return global + std::clamp(scale - global, 0, 15);
}

/// The encoded form of MXINT (format.outliers == 0) or MX-OPAL: what both
/// quantizers' encode() return. Outliers are listed by ascending index.
[[nodiscard]] QuantizedTensor mx_encode(const BlockFormat& format,
                                        std::span<const float> in);

/// decode(encode(row)) of MXINT (format.outliers == 0) or MX-OPAL for each
/// of the in.size() / width rows of `in` (row-major), every row its own
/// tensor with its own global scale, written into `out` by one
/// kernels().mx_quantize call; a one-row tensor passes width = in.size().
/// The scalar body makes one selection scan per block (two when the row has
/// more than one block: the global scale needs every block's scale first)
/// and one write pass: outliers come back at bf16, everything else as
/// code * 2^step from the shared shifter. No division, no libm call, no
/// allocation for up to 16 outliers per block; `in` and `out` may alias.
void mx_quantize_dequantize(const BlockFormat& format,
                            std::span<const float> in, std::span<float> out,
                            std::size_t width);

}  // namespace opal
