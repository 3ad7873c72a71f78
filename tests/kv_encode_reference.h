// Shared test helper: KvBlockPool's quantized KV encoders as they stood
// before their integer fast paths — std::lround for int8 codes and rescales,
// lround(-(log2f(|v|) - e)) for log2-7bit codes — and write_row's block
// update (grow-only scale, rescale of the live codes) built on them. The
// pool must produce these codes bitwise, on every input.
//
// One edge the old code left undefined is pinned the way the pool now
// resolves it: a row whose amax is infinite gives a log2 block exponent of
// 128 (the old int cast of log2(inf) was undefined), so +-inf encodes as
// code 0 with its sign and decodes back to +-inf.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/kernels.h"
#include "llm/kv_block_pool.h"

namespace opal::kv_encode_reference {

/// An int8 code: float x rounded half away from zero, clamped to +-127.
inline std::int8_t int8_code(float x) {
  return static_cast<std::int8_t>(std::clamp(std::lround(x), -127L, 127L));
}

/// A log2-7bit byte (sign | code) for v under block exponent e.
inline std::int8_t log2_code(float v, int exponent) {
  const float mag = std::fabs(v);
  std::uint8_t byte;
  if (mag == 0.0f) {
    byte = kKvLog2CodeMax;  // exact zero, positive sign
  } else {
    const float neg_log2 = -(std::log2(mag) - static_cast<float>(exponent));
    const long code = std::lround(neg_log2);
    const long clipped =
        std::clamp(code, 0L, static_cast<long>(kKvLog2CodeMax));
    byte = static_cast<std::uint8_t>(clipped);
    if (v < 0.0f) byte |= kKvLog2SignBit;
  }
  return static_cast<std::int8_t>(byte);
}

/// The log2 block exponent a row amax ra > 0 needs.
inline int log2_exponent(float ra) {
  if (std::isinf(ra)) return 128;
  return static_cast<int>(std::ceil(std::log2(ra)));
}

/// One quantized block's state, updated as KvBlockPool::write_row does.
struct Block {
  KvQuantMode mode;
  std::size_t d_model;
  std::vector<std::int8_t> codes;  // rows written so far, row-major
  float scale = 0.0f;              // amax (int8) or exponent (log2)
  std::size_t fill = 0;

  Block(KvQuantMode m, std::size_t d, std::size_t block_size)
      : mode(m), d_model(d), codes(block_size * d, 0) {}

  void write_row(std::size_t row, std::span<const float> v) {
    float ra = 0.0f;
    for (const float x : v) ra = std::max(ra, std::fabs(x));
    std::int8_t* out = codes.data() + row * d_model;
    const std::size_t live = fill * d_model;
    if (mode == KvQuantMode::kInt8) {
      if (ra > scale) {
        if (scale > 0.0f) {
          const float factor = scale / ra;
          for (std::size_t i = 0; i < live; ++i) {
            codes[i] = static_cast<std::int8_t>(std::lround(codes[i] * factor));
          }
        }
        scale = ra;
      }
      const float inv_s = scale == 0.0f ? 0.0f : 127.0f / scale;
      for (std::size_t c = 0; c < d_model; ++c) {
        out[c] = scale == 0.0f ? std::int8_t{0} : int8_code(v[c] * inv_s);
      }
    } else {
      int exponent = static_cast<int>(scale);
      if (ra > 0.0f) {
        const int needed = log2_exponent(ra);
        if (fill == 0) {
          exponent = needed;
        } else if (needed > exponent) {
          const int delta = needed - exponent;
          for (std::size_t i = 0; i < live; ++i) {
            const auto byte = static_cast<std::uint8_t>(codes[i]);
            const int code =
                std::min(kKvLog2CodeMax, (byte & kKvLog2CodeMax) + delta);
            codes[i] = static_cast<std::int8_t>(
                code == kKvLog2CodeMax ? kKvLog2CodeMax
                                       : ((byte & kKvLog2SignBit) | code));
          }
          exponent = needed;
        }
        scale = static_cast<float>(exponent);
      }
      for (std::size_t c = 0; c < d_model; ++c) {
        out[c] = log2_code(v[c], exponent);
      }
    }
    fill = std::max(fill, row + 1);
  }
};

}  // namespace opal::kv_encode_reference
