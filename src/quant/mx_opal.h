// MX-OPAL — the paper's outlier-preserved microscaling format (Section 3).
//
// Per k-element block:
//   1. The top-n magnitudes are pulled out and kept verbatim in bfloat16
//      together with their in-block index (they will be computed on FP
//      units; everything else goes to the INT MUs).
//   2. The shared scale is the (n+1)-th highest exponent — i.e. the maximum
//      exponent of the *remaining* elements — so the INT grid is matched to
//      the bulk of the distribution instead of to the outlier (Fig 3(d)).
//   3. Non-outliers are shift-quantized into b bits against that scale.
//   4. Scales are stored as a tensor-wise global exponent plus a 4-bit
//      per-block offset (Fig 2(c)), which is what Eq. (1)'s "+4" accounts
//      for.
//
// With the paper's defaults (k=128, n=4) the memory overhead over MXINT is
// 2.7% at b=8 and 9.2% at b=4 (Eq. (1)), while the blockwise MSE drops by
// 3.8x / 8.2x on outlier-bearing activations (Fig 4).
#pragma once

#include "quant/format.h"
#include "quant/quantizer.h"

namespace opal {

class MxOpalQuantizer final : public Quantizer {
 public:
  /// Paper defaults: block_size k = 128, outliers n = 4.
  MxOpalQuantizer(std::size_t block_size, int bits, std::size_t outliers = 4,
                  RoundingMode rounding = RoundingMode::kNearest);

  [[nodiscard]] std::string name() const override;
  void quantize_dequantize(std::span<const float> in,
                           std::span<float> out) const override;
  /// Eq. (1) numerator accounting: (k-n)*b + 16n + 4 per block (plus the
  /// amortized global scale and outlier indices reported by
  /// QuantizedTensor::storage_bits on real encodings).
  [[nodiscard]] std::size_t storage_bits(std::size_t count) const override;

  /// True encoded form; the accelerator's data distributor consumes the
  /// outlier list and the INT lanes consume the codes.
  [[nodiscard]] QuantizedTensor encode(std::span<const float> in) const;

  [[nodiscard]] const BlockFormat& format() const { return format_; }

  /// Memory overhead vs MXINT/MinMax for this configuration (Eq. (1)).
  [[nodiscard]] double memory_overhead() const;

 private:
  BlockFormat format_;
};

/// Indices of the top-n magnitudes within `block`, ranked as in
/// quant/mx_block.h (NaN above inf, ties to the lower index), returned in
/// ascending index order. Exposed for tests and for the data-distributor
/// model.
[[nodiscard]] std::vector<std::size_t> top_n_magnitude_indices(
    std::span<const float> block, std::size_t n);

}  // namespace opal
