#include "quant/mxint.h"

#include <algorithm>

#include "common/tensor.h"
#include "quant/mx_block.h"

namespace opal {

MxIntQuantizer::MxIntQuantizer(std::size_t block_size, int bits,
                               RoundingMode rounding)
    : format_{block_size, bits, /*outliers=*/0, rounding} {
  require(block_size >= 1, "MxIntQuantizer: block_size >= 1");
  require(bits >= 2 && bits <= 15, "MxIntQuantizer: bits in [2,15]");
}

std::string MxIntQuantizer::name() const {
  return "MXINT" + std::to_string(format_.bits);
}

int select_shared_scale(std::span<const float> block, std::size_t m) {
  require(m >= 1, "select_shared_scale: m >= 1");
  if (m > block.size()) return kZeroExponent;
  // The m-th highest exponent is the highest one left after the top m-1.
  std::vector<OutlierSlot> top(m - 1);
  return select_block_outliers(block, top);
}

void assign_global_scale(QuantizedTensor& qt,
                         std::span<const int> block_scales) {
  require(block_scales.size() == qt.blocks.size(),
          "assign_global_scale: scale count mismatch");
  int global = 0;
  bool any = false;
  for (const int s : block_scales) {
    if (s == kZeroExponent) continue;  // all-zero block, any scale works
    global = any ? std::min(global, s) : s;
    any = true;
  }
  qt.global_scale = global;
  for (std::size_t i = 0; i < qt.blocks.size(); ++i) {
    // 4-bit offset field: blocks whose scale sits more than 15 octaves above
    // the global scale saturate; their large elements clip to max code.
    qt.blocks[i].scale_offset = static_cast<std::uint8_t>(
        effective_block_scale(block_scales[i], global) - global);
  }
}

QuantizedTensor MxIntQuantizer::encode(std::span<const float> in) const {
  return mx_encode(format_, in);
}

std::vector<float> decode(const QuantizedTensor& qt) {
  std::vector<float> out;
  out.reserve(qt.count);
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    const auto& block = qt.blocks[b];
    const int scale = qt.block_scale(b);
    const std::size_t base = out.size();
    for (const std::int16_t code : block.codes) {
      out.push_back(dequantize_code(code, scale, qt.format.bits));
    }
    for (const auto& outlier : block.outliers) {
      out[base + outlier.index] = outlier.value.to_float();
    }
  }
  return out;
}

void MxIntQuantizer::quantize_dequantize(std::span<const float> in,
                                         std::span<float> out) const {
  mx_quantize_dequantize(format_, in, out, in.size());
}

void MxIntQuantizer::quantize_dequantize_rows(std::span<const float> in,
                                              std::span<float> out,
                                              std::size_t width) const {
  mx_quantize_dequantize(format_, in, out, width);
}

std::size_t MxIntQuantizer::storage_bits(std::size_t count) const {
  const std::size_t blocks =
      (count + format_.block_size - 1) / format_.block_size;
  return count * static_cast<std::size_t>(format_.bits) + blocks * 8;
}

}  // namespace opal
