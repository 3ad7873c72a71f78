// MXINT — the original microscaling integer format [11] (a.k.a. block
// floating point): k elements share one power-of-two scale equal to the
// block's maximum exponent, and each element is right-shifted into b bits of
// sign+magnitude. The shared divide becomes a shift, but a single large
// outlier drags the scale up and underflows everything else to zero
// (Fig 2(b), Fig 3(c)) — the failure mode MX-OPAL fixes.
#pragma once

#include "quant/format.h"
#include "quant/quantizer.h"

namespace opal {

class MxIntQuantizer final : public Quantizer {
 public:
  MxIntQuantizer(std::size_t block_size, int bits,
                 RoundingMode rounding = RoundingMode::kNearest);

  [[nodiscard]] std::string name() const override;
  void quantize_dequantize(std::span<const float> in,
                           std::span<float> out) const override;
  void quantize_dequantize_rows(std::span<const float> in,
                                std::span<float> out,
                                std::size_t width) const override;
  /// k*b element bits + one 8-bit shared scale per block.
  [[nodiscard]] std::size_t storage_bits(std::size_t count) const override;

  /// True encoded form (codes + per-block scale offsets over a global
  /// scale); the accelerator's INT path consumes this.
  [[nodiscard]] QuantizedTensor encode(std::span<const float> in) const;

  [[nodiscard]] const BlockFormat& format() const { return format_; }

 private:
  BlockFormat format_;
};

/// Reconstructs a float vector from any MXINT/MX-OPAL encoded tensor.
[[nodiscard]] std::vector<float> decode(const QuantizedTensor& qt);

/// Shared-scale exponent selection: the m-th largest bf16 exponent in the
/// block (m = 1 gives MXINT's max exponent; m = n+1 gives MX-OPAL's).
[[nodiscard]] int select_shared_scale(std::span<const float> block,
                                      std::size_t m);

/// Assigns per-block scale offsets against a tensor-wise global scale, with
/// the 4-bit saturation the hardware format imposes (offset in [0, 15]).
void assign_global_scale(QuantizedTensor& qt,
                         std::span<const int> block_scales);

}  // namespace opal
