#include "quant/mx_block.h"

#include <array>
#include <climits>
#include <vector>

#include "common/bfloat16.h"
#include "common/tensor.h"
#include "quant/mxint.h"

namespace opal {

int select_block_outliers(std::span<const float> block,
                          std::span<OutlierSlot> top) {
  const std::size_t n = std::min(top.size(), block.size());
  std::size_t held = 0;
  std::uint32_t floor_key = 0;  // smallest key held, once `top` is full
  std::uint32_t rest_key = 0;   // largest key not held (+0: none yet)
  for (std::size_t i = 0; i < block.size(); ++i) {
    const float v = block[i];
    const std::uint32_t key = magnitude_key(v);
    std::size_t j = held;
    if (held < n) {
      ++held;
    } else if (n == 0 || key <= floor_key) {
      rest_key = std::max(rest_key, key);
      continue;
    } else {
      rest_key = std::max(rest_key, floor_key);  // the smallest drops out
      j = n - 1;
    }
    // Insertion keeps keys descending; an equal key stays behind the
    // earlier (lower-index) element.
    for (; j > 0 && magnitude_key(top[j - 1].value) < key; --j) {
      top[j] = top[j - 1];
    }
    top[j] = {static_cast<std::uint32_t>(i), v};
    if (held == n) floor_key = magnitude_key(top[n - 1].value);
  }
  return bf16_exponent_of(f32_from_bits(rest_key));
}

QuantizedTensor mx_encode(const BlockFormat& format,
                          std::span<const float> in) {
  QuantizedTensor qt;
  qt.format = format;
  qt.count = in.size();

  // Pass 1: one selection scan per block gives its outliers and its shared
  // scale.
  std::vector<int> scales;
  std::vector<OutlierSlot> top(format.outliers);
  for (std::size_t off = 0; off < in.size(); off += format.block_size) {
    const std::size_t len = std::min(format.block_size, in.size() - off);
    scales.push_back(select_block_outliers(in.subspan(off, len), top));
    auto& qb = qt.blocks.emplace_back();
    qb.codes.resize(len, 0);
    for (const OutlierSlot& o :
         std::span(top).first(std::min(top.size(), len))) {
      qb.outliers.push_back(
          {static_cast<std::uint16_t>(o.index), bfloat16(o.value)});
    }
    std::sort(qb.outliers.begin(), qb.outliers.end(),
              [](const Outlier& a, const Outlier& b) {
                return a.index < b.index;
              });
  }
  assign_global_scale(qt, scales);

  // Pass 2: codes against the (possibly offset-saturated) effective scale;
  // outlier slots keep code 0.
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    const std::size_t off = b * format.block_size;
    auto& qb = qt.blocks[b];
    const int scale = qt.block_scale(b);
    for (std::size_t i = 0; i < qb.codes.size(); ++i) {
      qb.codes[i] =
          quantize_code(in[off + i], scale, format.bits, format.rounding);
    }
    for (const Outlier& o : qb.outliers) qb.codes[o.index] = 0;
  }
  return qt;
}

void mx_quantize_dequantize(const BlockFormat& format,
                            std::span<const float> in, std::span<float> out) {
  require(in.size() == out.size(), "MX quantize_dequantize: size mismatch");
  const std::size_t k = format.block_size;
  const std::size_t n = format.outliers;
  constexpr std::size_t kInlineOutliers = 16;
  std::array<OutlierSlot, kInlineOutliers> inline_top;
  std::vector<OutlierSlot> heap_top(n > kInlineOutliers ? n : 0);
  const std::span<OutlierSlot> top =
      n > kInlineOutliers ? std::span<OutlierSlot>(heap_top)
                          : std::span<OutlierSlot>(inline_top).first(n);
  const auto block_at = [&](std::size_t off) {
    return in.subspan(off, std::min(k, in.size() - off));
  };

  // The global scale is the lowest nonzero block scale (0 if none). A
  // single block is its own, so only multi-block tensors scan twice.
  int lowest = INT_MAX;
  const auto fold = [&lowest](int scale) {
    if (scale != kZeroExponent) lowest = std::min(lowest, scale);
  };
  const bool one_block = in.size() <= k;
  if (!one_block) {
    for (std::size_t off = 0; off < in.size(); off += k) {
      fold(select_block_outliers(block_at(off), top));
    }
  }

  const int max_code = format.max_code();
  for (std::size_t off = 0; off < in.size(); off += k) {
    const auto block = block_at(off);
    const int scale = select_block_outliers(block, top);
    if (one_block) fold(scale);
    const int global = lowest == INT_MAX ? 0 : lowest;
    const int step_exp =
        mx_step_exponent(effective_block_scale(scale, global), format.bits);
    const float step = exp2i_subnormal(step_exp);
    const std::span<float> dst = out.subspan(off, block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      const int code = mx_code_of_bf16(bfloat16(block[i]).bits(), step_exp,
                                       max_code, format.rounding);
      dst[i] = static_cast<float>(code) * step;
    }
    // Outlier values were copied out by the scan, so aliasing is safe.
    for (const OutlierSlot& o : top.first(std::min(n, block.size()))) {
      dst[o.index] = to_bf16(o.value);
    }
  }
}

}  // namespace opal
