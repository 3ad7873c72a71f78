// Shared test helper: the MXINT / MX-OPAL fake-quant path as it stood before
// the fused block kernel — decode(encode(in)) with partial_sort outlier
// selection, nth_element shared-scale selection and a per-element division —
// plus the random tensors the differential tests feed it.
//
// Two edges that code left undefined are pinned here the way the hardware
// shifter resolves them, and the fused kernel does the same: a grid step
// below 2^-126 is the exact subnormal power of two (the old exp2i wrapped
// its exponent field), and a quotient beyond every code saturates (the old
// lround was unspecified there). Everywhere else these bodies are the old
// ones verbatim.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "common/bfloat16.h"
#include "common/rng.h"
#include "quant/format.h"
#include "quant/mxint.h"

namespace opal::mx_reference {

inline std::vector<std::size_t> top_n_magnitude_indices(
    std::span<const float> block, std::size_t n) {
  n = std::min(n, block.size());
  std::vector<std::size_t> idx(block.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(n), idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      const float ma = std::abs(block[a]);
                      const float mb = std::abs(block[b]);
                      return ma != mb ? ma > mb : a < b;
                    });
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  return idx;
}

inline int select_shared_scale(std::span<const float> block, std::size_t m) {
  std::vector<int> exps;
  exps.reserve(block.size());
  for (const float v : block) exps.push_back(bf16_exponent_of(v));
  if (m > exps.size()) return kZeroExponent;
  std::nth_element(exps.begin(), exps.begin() + static_cast<long>(m - 1),
                   exps.end(), std::greater<int>());
  return exps[m - 1];
}

inline void assign_global_scale(QuantizedTensor& qt,
                                std::span<const int> block_scales) {
  int global = 0;
  bool any = false;
  for (const int s : block_scales) {
    if (s == kZeroExponent) continue;
    global = any ? std::min(global, s) : s;
    any = true;
  }
  if (!any) global = 0;
  qt.global_scale = global;
  for (std::size_t i = 0; i < qt.blocks.size(); ++i) {
    int off = block_scales[i] == kZeroExponent ? 0 : block_scales[i] - global;
    off = std::clamp(off, 0, 15);
    qt.blocks[i].scale_offset = static_cast<std::uint8_t>(off);
  }
}

inline std::int16_t quantize_code(float v, int shared_scale, int bits,
                                  RoundingMode rounding) {
  const float x = to_bf16(v);
  if (x == 0.0f) return 0;
  if (std::isnan(x)) return 0;
  const long max_code = (1L << (bits - 1)) - 1;
  if (std::isinf(x)) {
    return static_cast<std::int16_t>(x < 0.0f ? -max_code : max_code);
  }
  const float scaled = x / std::ldexp(1.0f, shared_scale - (bits - 2));
  const float magnitude = std::abs(scaled);
  long q = magnitude >= 32768.0f  // past every code, up to inf
               ? max_code
               : (rounding == RoundingMode::kNearest
                      ? std::lround(magnitude)
                      : static_cast<long>(magnitude));
  if (q > max_code) q = max_code;
  return static_cast<std::int16_t>(x < 0.0f ? -q : q);
}

inline float dequantize_code(std::int16_t code, int shared_scale, int bits) {
  if (code == 0) return 0.0f;
  return static_cast<float>(code) *
         std::ldexp(1.0f, shared_scale - (bits - 2));
}

/// MX-OPAL's encode() (MXINT's for format.outliers == 0).
inline QuantizedTensor encode(const BlockFormat& format,
                              std::span<const float> in) {
  QuantizedTensor qt;
  qt.format = format;
  qt.count = in.size();
  std::vector<int> scales;
  std::vector<std::vector<std::size_t>> outlier_idx;
  for (std::size_t off = 0; off < in.size(); off += format.block_size) {
    const std::size_t len = std::min(format.block_size, in.size() - off);
    const auto block = in.subspan(off, len);
    auto top = mx_reference::top_n_magnitude_indices(block, format.outliers);
    scales.push_back(
        mx_reference::select_shared_scale(block, top.size() + 1));
    outlier_idx.push_back(std::move(top));
    qt.blocks.emplace_back();
    qt.blocks.back().codes.resize(len, 0);
  }
  mx_reference::assign_global_scale(qt, scales);
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    const std::size_t off = b * format.block_size;
    const auto block =
        in.subspan(off, std::min(format.block_size, in.size() - off));
    auto& qb = qt.blocks[b];
    const int scale = qt.block_scale(b);
    std::vector<bool> is_outlier(block.size(), false);
    for (const std::size_t i : outlier_idx[b]) {
      is_outlier[i] = true;
      qb.outliers.push_back(
          {static_cast<std::uint16_t>(i), bfloat16(block[i])});
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      qb.codes[i] = is_outlier[i]
                        ? std::int16_t{0}
                        : mx_reference::quantize_code(block[i], scale,
                                                      format.bits,
                                                      format.rounding);
    }
  }
  return qt;
}

inline std::vector<float> decode(const QuantizedTensor& qt) {
  std::vector<float> out;
  out.reserve(qt.count);
  for (std::size_t b = 0; b < qt.blocks.size(); ++b) {
    const auto& block = qt.blocks[b];
    const int scale = qt.block_scale(b);
    const std::size_t base = out.size();
    for (const std::int16_t code : block.codes) {
      out.push_back(
          mx_reference::dequantize_code(code, scale, qt.format.bits));
    }
    for (const auto& outlier : block.outliers) {
      out[base + outlier.index] = outlier.value.to_float();
    }
  }
  return out;
}

inline std::vector<float> quantize_dequantize(const BlockFormat& format,
                                              std::span<const float> in) {
  return mx_reference::decode(mx_reference::encode(format, in));
}

/// A random tensor for differential tests. Block magnitudes sit around a
/// random base octave from 2^-126 to 2^30, spread per block by up to 0, 6
/// or 40 octaves (the last saturates 4-bit offsets; low bases put the grid
/// step below 2^-126). Elements: Gaussian bulk, planted 64x outliers, exact
/// ties (equal and negated copies), zeros and f32 subnormals; a quarter of
/// the tensors also carry +/-inf, and every few is all zero. No NaN.
inline std::vector<float> random_tensor(Rng& rng, std::size_t len,
                                        std::size_t block_size) {
  std::vector<float> v(len, 0.0f);
  std::uniform_int_distribution<int> pick(0, 99);
  if (pick(rng) < 4) return v;
  const bool with_inf = pick(rng) < 25;
  const int base = std::uniform_int_distribution<int>(-126, 30)(rng);
  const int spreads[3] = {0, 6, 40};
  const int spread = spreads[pick(rng) % 3];
  std::uniform_int_distribution<int> octave(-spread, spread);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  std::uniform_int_distribution<std::uint32_t> sub(1, 0x7FFFFFu);
  for (std::size_t off = 0; off < len; off += block_size) {
    const float scale = std::ldexp(1.0f, std::clamp(base + octave(rng), -130, 60));
    const std::size_t end = std::min(len, off + block_size);
    for (std::size_t i = off; i < end; ++i) {
      const int r = pick(rng);
      if (r < 8) {
        v[i] = 0.0f;
      } else if (r < 16 && i > off) {  // exact tie with an earlier element
        std::uniform_int_distribution<std::size_t> at(off, i - 1);
        v[i] = pick(rng) < 50 ? v[at(rng)] : -v[at(rng)];
      } else if (r < 17 && with_inf) {
        v[i] = pick(rng) < 50 ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity();
      } else if (r < 21) {
        v[i] = std::bit_cast<float>(sub(rng) | (pick(rng) < 50 ? 0u : 1u << 31));
      } else if (r < 25) {
        v[i] = gauss(rng) * scale * 64.0f;  // outlier
      } else {
        v[i] = gauss(rng) * scale;
      }
    }
  }
  return v;
}

/// Bitwise float equality (tells -0 from +0 and compares NaN payloads).
inline bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// A random length in [1, 4 * block_size]: whole blocks, or whole blocks
/// plus a short tail block.
inline std::size_t random_length(Rng& rng, std::size_t block_size) {
  std::uniform_int_distribution<std::size_t> blocks(0, 3);
  std::uniform_int_distribution<std::size_t> tail(0, block_size - 1);
  const std::size_t len = blocks(rng) * block_size + tail(rng);
  return len == 0 ? block_size : len;
}

/// Holds one quantizer (MxIntQuantizer or MxOpalQuantizer) to the reference
/// on `in`, bit for bit: its encode() field by field, decode() of it, and
/// quantize_dequantize both into a separate buffer and in place.
template <typename Quantizer>
::testing::AssertionResult matches_reference(const Quantizer& quant,
                                             std::span<const float> in) {
  const QuantizedTensor want = mx_reference::encode(quant.format(), in);
  const std::vector<float> want_out = mx_reference::decode(want);
  const QuantizedTensor got = quant.encode(in);
  if (got.global_scale != want.global_scale ||
      got.blocks.size() != want.blocks.size()) {
    return ::testing::AssertionFailure()
           << "global scale " << got.global_scale << " vs "
           << want.global_scale;
  }
  for (std::size_t b = 0; b < want.blocks.size(); ++b) {
    const auto& g = got.blocks[b];
    const auto& w = want.blocks[b];
    bool same = g.scale_offset == w.scale_offset && g.codes == w.codes &&
                g.outliers.size() == w.outliers.size();
    for (std::size_t i = 0; same && i < w.outliers.size(); ++i) {
      same = g.outliers[i].index == w.outliers[i].index &&
             g.outliers[i].value.bits() == w.outliers[i].value.bits();
    }
    if (!same) return ::testing::AssertionFailure() << "encoded block " << b;
  }
  const std::vector<float> decoded = opal::decode(got);
  std::vector<float> out(in.size());
  quant.quantize_dequantize(in, out);
  std::vector<float> aliased(in.begin(), in.end());
  quant.quantize_dequantize(aliased, aliased);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!same_bits(decoded[i], want_out[i]) ||
        !same_bits(out[i], want_out[i]) ||
        !same_bits(aliased[i], want_out[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << " of " << in.size() << ": in " << in[i]
             << ", want " << want_out[i] << ", decode " << decoded[i]
             << ", fused " << out[i] << ", in place " << aliased[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace opal::mx_reference
