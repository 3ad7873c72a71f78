// Shared test helper: the KV read-back reference. Decodes a pool block's
// rows, or a cache's whole layer, to floats through the public views the
// attention path reads (KvBlockPool::block_data / block_codes /
// block_scale, PagedKvCache::append_segments), one entry at a time:
//   fp32: the written bits verbatim;
//   int8: float(code) * (scale / 127);
//   log2: kv_decode_log2(code, int(scale)).
// The fused dequantize kernels must reproduce these floats bitwise
// (common/kernels.h), so attending over gather()'s output is the reference
// a segment-wise attend is compared against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/kernels.h"
#include "common/tensor.h"
#include "llm/kv_block_pool.h"
#include "llm/paged_kv_cache.h"

namespace opal::kv_read_reference {

/// `n` codes decoded under a block's scale, per `mode` (int8 or log2).
inline void decode_codes(KvQuantMode mode, const std::int8_t* codes,
                         std::size_t n, float scale, float* out) {
  if (mode == KvQuantMode::kInt8) {
    const float s = scale / 127.0f;
    for (std::size_t c = 0; c < n; ++c) {
      out[c] = static_cast<float>(codes[c]) * s;
    }
  } else {
    const int exponent = static_cast<int>(scale);
    for (std::size_t c = 0; c < n; ++c) {
      out[c] = kv_decode_log2(codes[c], exponent);
    }
  }
}

/// Row `row` of block `id`, decoded into `out` (d_model floats). Throws
/// std::invalid_argument on a bad or free block, a row past the block, or
/// a wrong-size output.
inline void read_row(const KvBlockPool& pool, KvBlockPool::BlockId id,
                     std::size_t row, std::span<float> out) {
  const std::size_t d = pool.d_model();
  require(row < pool.block_size(), "read_row: row out of range");
  require(out.size() == d, "read_row: dim mismatch");
  if (pool.mode() == KvQuantMode::kFp32) {
    const auto data = pool.block_data(id).subspan(row * d, d);
    std::copy(data.begin(), data.end(), out.begin());
  } else {
    decode_codes(pool.mode(), pool.block_codes(id).data() + row * d, d,
                 pool.block_scale(id), out.data());
  }
}

/// Layer `layer`'s cached keys and values, decoded into `k_out` / `v_out`
/// as row-major [length() x d_model] floats (each span must hold at least
/// that many; only that prefix is written). Throws std::invalid_argument
/// on a bad layer or short spans.
inline void gather(const PagedKvCache& cache, std::size_t layer,
                   std::span<float> k_out, std::span<float> v_out) {
  const std::size_t d = cache.pool().d_model();
  require(k_out.size() >= cache.length() * d &&
              v_out.size() >= cache.length() * d,
          "gather: output spans too small");
  std::vector<KvSegment> segments;
  cache.append_segments(layer, cache.length(), segments);
  std::size_t at = 0;
  for (const KvSegment& seg : segments) {
    const std::size_t n = seg.rows * d;
    if (seg.mode == KvQuantMode::kFp32) {
      std::copy(seg.k.begin(), seg.k.end(), k_out.begin() + at);
      std::copy(seg.v.begin(), seg.v.end(), v_out.begin() + at);
    } else {
      decode_codes(seg.mode, seg.k_codes.data(), n, seg.k_scale,
                   k_out.data() + at);
      decode_codes(seg.mode, seg.v_codes.data(), n, seg.v_scale,
                   v_out.data() + at);
    }
    at += n;
  }
}

}  // namespace opal::kv_read_reference
