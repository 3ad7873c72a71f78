#include "quant/mx_opal.h"

#include <algorithm>

#include "common/tensor.h"
#include "quant/mx_block.h"

namespace opal {

MxOpalQuantizer::MxOpalQuantizer(std::size_t block_size, int bits,
                                 std::size_t outliers, RoundingMode rounding)
    : format_{block_size, bits, outliers, rounding} {
  require(block_size >= 1, "MxOpalQuantizer: block_size >= 1");
  require(bits >= 2 && bits <= 15, "MxOpalQuantizer: bits in [2,15]");
  require(outliers < block_size, "MxOpalQuantizer: outliers < block_size");
}

std::string MxOpalQuantizer::name() const {
  return "MX-OPAL" + std::to_string(format_.bits);
}

std::vector<std::size_t> top_n_magnitude_indices(std::span<const float> block,
                                                 std::size_t n) {
  std::vector<OutlierSlot> top(std::min(n, block.size()));
  select_block_outliers(block, top);
  std::vector<std::size_t> idx;
  idx.reserve(top.size());
  for (const OutlierSlot& o : top) idx.push_back(o.index);
  std::sort(idx.begin(), idx.end());
  return idx;
}

QuantizedTensor MxOpalQuantizer::encode(std::span<const float> in) const {
  return mx_encode(format_, in);
}

void MxOpalQuantizer::quantize_dequantize(std::span<const float> in,
                                          std::span<float> out) const {
  mx_quantize_dequantize(format_, in, out);
}

std::size_t MxOpalQuantizer::storage_bits(std::size_t count) const {
  // Eq. (1) numerator per full block; short tail blocks accounted pro rata
  // through the encoding path (tests use full blocks).
  const std::size_t k = format_.block_size;
  const std::size_t n = format_.outliers;
  const auto b = static_cast<std::size_t>(format_.bits);
  const std::size_t blocks = (count + k - 1) / k;
  std::size_t bits = 0;
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t len = std::min(k, count - i * k);
    const std::size_t nn = std::min(n, len);
    bits += (len - nn) * b + 16 * nn + 4;
  }
  return bits;
}

double MxOpalQuantizer::memory_overhead() const {
  return mx_opal_memory_overhead(format_.block_size, format_.outliers,
                                 format_.bits);
}

}  // namespace opal
