#include "llm/kv_block_pool.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/kernels.h"
#include "common/tensor.h"

namespace opal {

namespace {

// 7-bit log2 code layout (the paper's attention-map path) — shared with the
// fused dequantize kernels, which decode the same bytes in-register.
constexpr int kLog2CodeMax = kKvLog2CodeMax;  // 127, decodes to exactly 0
constexpr std::uint8_t kSignBit = kKvLog2SignBit;

float row_amax(std::span<const float> v) {
  float amax = 0.0f;
  for (const float x : v) amax = std::max(amax, std::fabs(x));
  return amax;
}

// The libm encoder: code = lround(-(log2(|v|) - e)), clamped to 0..127,
// plus the sign. encode_log2 below equals it bitwise and runs it for the
// inputs its integer form does not cover.
std::int8_t encode_log2_libm(float v, int exponent) {
  const float mag = std::fabs(v);
  std::uint8_t byte;
  if (mag == 0.0f) {
    byte = kLog2CodeMax;  // exact zero, positive sign
  } else {
    // mag <= 2^exponent by construction, so -log2(mag / 2^e) >= 0.
    const float neg_log2 =
        -(std::log2(mag) - static_cast<float>(exponent));
    const long code = std::lround(neg_log2);
    const long clipped = std::clamp(code, 0L, static_cast<long>(kLog2CodeMax));
    byte = static_cast<std::uint8_t>(clipped);
    if (v < 0.0f) byte |= kSignBit;
  }
  return static_cast<std::int8_t>(byte);
}

// Mantissa bits of sqrt(2) (0x3504F3 < frac(sqrt 2) * 2^23 < 0x3504F4), and
// the half-width of the band around it that takes the libm encoder: within
// it, log2f's and the float subtraction's rounding can land either side of
// the .5 between two codes.
constexpr std::uint32_t kSqrt2Mantissa = 0x3504F3;
constexpr std::uint32_t kSqrt2Guard = 1024;

// encode_log2_libm in integer work. A normal |v| = 2^E * 1.m has
// -log2(|v| / 2^e) = e - E - log2(1.m), with log2(1.m) in [0, 1): it
// rounds to e - E, or to e - E - 1 once 1.m passes sqrt(2). Zeros,
// subnormals, inf, NaN and mantissas in the guard band take the libm form.
std::int8_t encode_log2(float v, int exponent) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t biased = (bits >> 23) & 0xFF;
  const std::uint32_t mantissa = bits & 0x7FFFFF;
  if (biased == 0 || biased == 0xFF ||
      mantissa - (kSqrt2Mantissa - kSqrt2Guard) <= 2 * kSqrt2Guard) {
    return encode_log2_libm(v, exponent);
  }
  const int code = exponent - (static_cast<int>(biased) - 127) -
                   (mantissa > kSqrt2Mantissa ? 1 : 0);
  const auto byte = static_cast<std::uint8_t>(
      std::clamp(code, 0, kLog2CodeMax) | ((bits >> 24) & kSignBit));
  return static_cast<std::int8_t>(byte);
}

// std::lround for a float, without the libm call where |x| < 2^23: the
// truncation and the fraction x - trunc(x) are exact there, so rounding
// half away from zero is two compares. Larger values, inf and NaN take
// std::lround.
long round_half_away(float x) {
  if (!(std::fabs(x) < 0x1p23f)) return std::lround(x);
  const long t = static_cast<long>(x);
  const float frac = x - static_cast<float>(t);
  return t + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0);
}

// The exponent of a log2 block whose rows have amax `ra` > 0: the least e
// with ra <= 2^e by log2f, and 128 for an infinite amax, whose entries then
// encode as code 0 and decode back to +-inf.
int log2_block_exponent(float ra) {
  if (std::isinf(ra)) return 128;
  return static_cast<int>(std::ceil(std::log2(ra)));
}

}  // namespace

std::string to_string(KvQuantMode mode) {
  switch (mode) {
    case KvQuantMode::kFp32:
      return "fp32";
    case KvQuantMode::kInt8:
      return "int8";
    case KvQuantMode::kLog2:
      return "log2-7bit";
  }
  return "?";
}

std::size_t kv_bits_per_entry(KvQuantMode mode) {
  return mode == KvQuantMode::kFp32 ? 32 : 8;
}

KvBlockPool::KvBlockPool(std::size_t n_blocks, std::size_t block_size,
                         std::size_t d_model, KvQuantMode mode)
    : n_blocks_(n_blocks), block_size_(block_size), d_model_(d_model),
      mode_(mode), row_bytes_(d_model * kv_bits_per_entry(mode) / 8),
      block_bytes_(block_size * row_bytes_) {
  require(n_blocks >= 1 && block_size >= 1 && d_model >= 1,
          "KvBlockPool: n_blocks, block_size, d_model must be >= 1");
  storage_.resize(n_blocks);
  scales_.assign(n_blocks, 0.0f);
  fill_.assign(n_blocks, 0);
  refs_.assign(n_blocks, 0);
  cached_.assign(n_blocks, 0);
  free_list_.reserve(n_blocks);
  // LIFO stack; push in reverse so the first allocation returns block 0.
  for (std::size_t b = n_blocks; b > 0; --b) {
    free_list_.push_back(static_cast<BlockId>(b - 1));
  }
}

KvBlockPool::BlockId KvBlockPool::allocate() {
  if (free_list_.empty()) {
    throw KvPoolExhausted("KvBlockPool::allocate: no free blocks");
  }
  const BlockId id = free_list_.back();
  free_list_.pop_back();
  if (!storage_[id]) {
    // First hand-out of this id: commit its storage, zeroed, for good.
    storage_[id] = std::make_unique<std::byte[]>(block_bytes_);
    ++committed_;
  }
  refs_[id] = 1;
  cached_[id] = 0;
  scales_[id] = 0.0f;
  fill_[id] = 0;
  peak_in_use_ = std::max(peak_in_use_, blocks_in_use());
  ++counts_.allocations;
  return id;
}

void KvBlockPool::check_block(BlockId id, const char* what) const {
  require(id < n_blocks_ && refs_[id] != 0, what);
}

void KvBlockPool::free(BlockId id) {
  check_block(id, "KvBlockPool::free: bad or already-free block");
  if (--refs_[id] == 0) {
    require(cached_[id] == 0,
            "KvBlockPool::free: cached block lost its cache reference");
    free_list_.push_back(id);
    ++counts_.frees;
  } else if (refs_[id] == 1 && cached_[id] != 0) {
    ++reclaimable_;  // only the prefix cache still holds it
  }
}

void KvBlockPool::add_ref(BlockId id) {
  check_block(id, "KvBlockPool::add_ref: bad or free block");
  if (refs_[id] == 1 && cached_[id] != 0) --reclaimable_;
  ++refs_[id];
}

std::uint32_t KvBlockPool::ref_count(BlockId id) const {
  require(id < n_blocks_, "KvBlockPool::ref_count: id out of range");
  return refs_[id];
}

KvBlockPool::BlockId KvBlockPool::clone_rows(BlockId src, std::size_t n_rows) {
  check_block(src, "KvBlockPool::clone_rows: bad or free block");
  require(n_rows <= block_size_, "KvBlockPool::clone_rows: too many rows");
  const BlockId id = allocate();
  std::copy_n(block_ptr<std::byte>(src), n_rows * row_bytes_,
              block_ptr<std::byte>(id));
  scales_[id] = scales_[src];
  fill_[id] = n_rows;
  ++counts_.cow_clones;
  return id;
}

void KvBlockPool::pin_cached(BlockId id) {
  check_block(id, "KvBlockPool::pin_cached: bad or free block");
  require(cached_[id] == 0, "KvBlockPool::pin_cached: already cached");
  // The cache's own reference. refs >= 2 now, so the block only becomes
  // reclaimable once every other holder releases it.
  ++refs_[id];
  cached_[id] = 1;
}

void KvBlockPool::release_cached(BlockId id) {
  check_block(id, "KvBlockPool::release_cached: bad or free block");
  require(cached_[id] != 0, "KvBlockPool::release_cached: not cached");
  cached_[id] = 0;
  if (refs_[id] == 1) --reclaimable_;
  free(id);
}

bool KvBlockPool::is_cached(BlockId id) const {
  check_block(id, "KvBlockPool::is_cached: bad or free block");
  return cached_[id] != 0;
}

std::size_t KvBlockPool::rows_written(BlockId id) const {
  check_block(id, "KvBlockPool::rows_written: bad or free block");
  return fill_[id];
}

void KvBlockPool::write_row(BlockId id, std::size_t row,
                            std::span<const float> v) {
  check_block(id, "KvBlockPool::write_row: bad or free block");
  require(refs_[id] == 1,
          "KvBlockPool::write_row: shared block (copy-on-write required)");
  require(row < block_size_, "KvBlockPool::write_row: row out of range");
  require(v.size() == d_model_, "KvBlockPool::write_row: dim mismatch");
  const std::size_t base = row * d_model_;

  switch (mode_) {
    case KvQuantMode::kFp32:
      std::copy(v.begin(), v.end(), block_ptr<float>(id) + base);
      break;

    case KvQuantMode::kInt8: {
      std::int8_t* codes = block_ptr<std::int8_t>(id);
      const float ra = row_amax(v);
      float amax = scales_[id];
      if (ra > amax) {
        // Grow-only scale: rescale the block's existing codes to the new
        // amax so one scale covers every row.
        if (amax > 0.0f) {
          const float factor = amax / ra;
          const std::size_t live = fill_[id] * d_model_;
          for (std::size_t i = 0; i < live; ++i) {
            codes[i] =
                static_cast<std::int8_t>(round_half_away(codes[i] * factor));
          }
        }
        amax = ra;
        scales_[id] = amax;
      }
      if (amax == 0.0f) {
        std::fill_n(codes + base, d_model_, std::int8_t{0});
      } else {
        const float inv_s = 127.0f / amax;
        for (std::size_t c = 0; c < d_model_; ++c) {
          const long q = round_half_away(v[c] * inv_s);
          codes[base + c] =
              static_cast<std::int8_t>(std::clamp(q, -127L, 127L));
        }
      }
      break;
    }

    case KvQuantMode::kLog2: {
      std::int8_t* codes = block_ptr<std::int8_t>(id);
      const float ra = row_amax(v);
      int exponent = static_cast<int>(scales_[id]);
      if (ra > 0.0f) {
        const int needed = log2_block_exponent(ra);
        if (fill_[id] == 0) {
          exponent = needed;
          scales_[id] = static_cast<float>(exponent);
        } else if (needed > exponent) {
          // Power-of-two scale growth: an integer add on every live code
          // (a right-shift of the stored values in hardware).
          const int delta = needed - exponent;
          const std::size_t live = fill_[id] * d_model_;
          for (std::size_t i = 0; i < live; ++i) {
            const auto byte = static_cast<std::uint8_t>(codes[i]);
            const int code =
                std::min(kLog2CodeMax, (byte & kLog2CodeMax) + delta);
            codes[i] = static_cast<std::int8_t>(
                code == kLog2CodeMax
                    ? kLog2CodeMax  // saturated codes flush to +0
                    : ((byte & kSignBit) | code));
          }
          exponent = needed;
          scales_[id] = static_cast<float>(exponent);
        }
      }
      for (std::size_t c = 0; c < d_model_; ++c) {
        codes[base + c] = encode_log2(v[c], exponent);
      }
      break;
    }
  }
  fill_[id] = std::max(fill_[id], row + 1);
}

void KvBlockPool::save_block(BlockId id, BlockSnapshot& out) const {
  check_block(id, "KvBlockPool::save_block: bad or free block");
  // The whole block is captured, not just the fill rows: stale bytes past
  // the fill can become live again after a later mid-block truncate, and a
  // bitwise restore must reproduce them too.
  const std::byte* bytes = block_ptr<std::byte>(id);
  out.bytes.assign(bytes, bytes + block_bytes_);
  out.scale = scales_[id];
  out.fill = fill_[id];
}

void KvBlockPool::restore_block(BlockId id, const BlockSnapshot& snapshot) {
  check_block(id, "KvBlockPool::restore_block: bad or free block");
  require(refs_[id] == 1,
          "KvBlockPool::restore_block: shared block (copy-on-write required)");
  require(snapshot.bytes.size() == block_bytes_,
          "KvBlockPool::restore_block: snapshot does not match this pool");
  std::copy(snapshot.bytes.begin(), snapshot.bytes.end(),
            block_ptr<std::byte>(id));
  scales_[id] = snapshot.scale;
  fill_[id] = snapshot.fill;
}

void KvBlockPool::reset_block(BlockId id) {
  check_block(id, "KvBlockPool::reset_block: bad or free block");
  require(refs_[id] == 1,
          "KvBlockPool::reset_block: shared block (copy-on-write required)");
  // Matches allocate(): storage bytes are left stale — write_row never
  // reads past the fill, and rescales touch live rows only.
  scales_[id] = 0.0f;
  fill_[id] = 0;
}

void KvBlockPool::read_row(BlockId id, std::size_t row,
                           std::span<float> out) const {
  check_block(id, "KvBlockPool::read_row: bad or free block");
  require(row < block_size_, "KvBlockPool::read_row: row out of range");
  require(out.size() == d_model_, "KvBlockPool::read_row: dim mismatch");
  const std::size_t base = row * d_model_;

  switch (mode_) {
    case KvQuantMode::kFp32:
      std::copy_n(block_ptr<const float>(id) + base, d_model_, out.begin());
      break;
    case KvQuantMode::kInt8: {
      const std::int8_t* codes = block_ptr<const std::int8_t>(id) + base;
      const float s = scales_[id] / 127.0f;
      for (std::size_t c = 0; c < d_model_; ++c) {
        out[c] = static_cast<float>(codes[c]) * s;
      }
      break;
    }
    case KvQuantMode::kLog2: {
      const std::int8_t* codes = block_ptr<const std::int8_t>(id) + base;
      const int exponent = static_cast<int>(scales_[id]);
      for (std::size_t c = 0; c < d_model_; ++c) {
        out[c] = kv_decode_log2(codes[c], exponent);
      }
      break;
    }
  }
}

std::span<const float> KvBlockPool::block_data(BlockId id) const {
  check_block(id, "KvBlockPool::block_data: bad or free block");
  require(mode_ == KvQuantMode::kFp32,
          "KvBlockPool::block_data: raw block views are fp32-only "
          "(quantized entries must be read through read_row)");
  return {block_ptr<const float>(id), block_size_ * d_model_};
}

std::span<const std::int8_t> KvBlockPool::block_codes(BlockId id) const {
  check_block(id, "KvBlockPool::block_codes: bad or free block");
  require(mode_ != KvQuantMode::kFp32,
          "KvBlockPool::block_codes: raw code views are quantized-only "
          "(fp32 storage holds floats — read through block_data)");
  return {block_ptr<const std::int8_t>(id), block_size_ * d_model_};
}

float KvBlockPool::block_scale(BlockId id) const {
  check_block(id, "KvBlockPool::block_scale: bad or free block");
  return scales_[id];
}

std::size_t KvBlockPool::bytes_per_block() const {
  return block_bytes_ + (mode_ == KvQuantMode::kFp32 ? 0 : sizeof(float));
}

}  // namespace opal
