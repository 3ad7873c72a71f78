#include "quant/format.h"

#include <cmath>

#include "common/tensor.h"

namespace opal {

std::size_t QuantizedTensor::storage_bits() const {
  std::size_t bits = 8;  // tensor-wise global scale, amortized
  const auto index_bits = static_cast<std::size_t>(
      format.block_size > 1
          ? static_cast<int>(std::ceil(std::log2(format.block_size)))
          : 1);
  for (const auto& block : blocks) {
    bits += 4;  // block-wise scale offset
    bits += (block.codes.size() - block.outliers.size()) *
            static_cast<std::size_t>(format.bits);
    bits += block.outliers.size() * (16 + index_bits);
  }
  return bits;
}

double mx_opal_memory_overhead(std::size_t k, std::size_t n, int b) {
  require(k > n, "mx_opal_memory_overhead: need k > n");
  const double num = static_cast<double>(k - n) * b + 16.0 * n + 4.0;
  // Eq. (1) as printed uses k*b + 8 in the denominator, but the paper's own
  // Fig 4 OMEM tables (1.024/1.046/1.092/1.185 at b=4) and the quoted
  // "2.7% / 9.2%" only reproduce with a b-bit baseline scale, k*b + b.
  // We match the published numbers.
  const double den = static_cast<double>(k) * b + b;
  return num / den;
}

int bf16_exponent_of(float v) {
  const bfloat16 h(v);
  if (h.is_zero() || h.biased_exponent() == 0) return kZeroExponent;
  // Inf/NaN would report biased exponent 255; clamp to the largest finite
  // exponent so a poisoned element cannot push the shared scale out of the
  // representable range.
  if (h.biased_exponent() == 255) return 127;
  return h.unbiased_exponent();
}

}  // namespace opal
