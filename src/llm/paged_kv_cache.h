// Per-sequence paged KV cache: a position -> block mapping over a
// KvBlockPool, the one KV backend of SequenceState.
//
// A PagedKvCache holds blocks only for positions actually written rather
// than max_seq_len rows up front: per layer, one list of K blocks and one
// of V blocks, each block covering `block_size` consecutive positions.
// advance_by() acquires the 2*n_layers blocks of each new block column
// lazily (or finds them already reserved — see reserve_for()), truncate()
// returns now-unused blocks to the pool, and the destructor returns
// everything, so cache memory follows the actual working set instead of
// the worst case.
//
// Attention reads through append_segments(): one KvSegment per block over
// the pool's live storage — float spans in fp32 mode, quantized codes plus
// the block's decode scale in int8/log2 mode — so no prefix is ever copied.
// The read-back reference the fused kernels are tested against decodes these
// segments entry by entry (tests/kv_read_reference.h).
//
// Prefix sharing: map_shared() adopts full, already-written block columns
// (a PrefixCache hit) as this cache's leading positions, taking a pool
// reference per block instead of recomputing them. Shared blocks are
// immutable; when a truncate() lands mid-way into a shared block and the
// sequence re-advances over it, reserve_for() copies the written prefix
// into a private block first (copy-on-write), so write_at() always writes
// exclusively-owned storage and the parallel decode phase never touches
// the pool.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "llm/kv_block_pool.h"

namespace opal {

/// One contiguous run of cached KV rows: `rows` consecutive positions of a
/// single layer, row-major [rows x d_model], spanning one pool block.
/// Attention consumes a sequence's cached prefix as a list of these. In
/// fp32 pools `k`/`v` span the block's floats directly; in quantized pools
/// (mode != kFp32) `k_codes`/`v_codes` span the block's raw codes with the
/// per-block decode scales, consumed by the fused dequantize-dot kernels in
/// common/kernels.h, and the float spans are empty.
struct KvSegment {
  std::span<const float> k;
  std::span<const float> v;
  std::size_t rows = 0;
  KvQuantMode mode = KvQuantMode::kFp32;
  std::span<const std::int8_t> k_codes;
  std::span<const std::int8_t> v_codes;
  // Decode scales: amax (kInt8 — divide by 127 for the per-code multiplier)
  // or the exp2 exponent as a float (kLog2), per KvBlockPool::block_scale.
  float k_scale = 0.0f;
  float v_scale = 0.0f;
};

class PagedKvCache {
 public:
  /// The cache allocates from (and must not outlive) `pool`.
  PagedKvCache(KvBlockPool& pool, std::size_t n_layers,
               std::size_t max_seq_len);
  ~PagedKvCache();

  PagedKvCache(PagedKvCache&& other) noexcept;
  PagedKvCache& operator=(PagedKvCache&&) = delete;
  PagedKvCache(const PagedKvCache&) = delete;
  PagedKvCache& operator=(const PagedKvCache&) = delete;

  /// Blocks an advance_by(n) would take right now: fresh columns covering
  /// positions [length(), length()+n) plus copy-on-write copies of shared
  /// blocks the first write position lands in. Requires
  /// length()+n <= max_seq_len.
  [[nodiscard]] std::size_t blocks_needed_for(std::size_t n) const;

  /// Pre-acquires everything advance_by(n) needs — fresh block columns,
  /// and private copy-on-write copies of any shared blocks the first write
  /// position lands in (all-or-nothing capacity check, idempotent) — so a
  /// serving layer can reserve a whole pass in its serial phase and the
  /// parallel decode phase never touches the pool. Throws KvPoolExhausted
  /// without taking any block when the pool cannot supply them.
  void reserve_for(std::size_t n);

  /// Opens `n` time steps at once: positions [length(), length()+n) become
  /// writable through write_at(). Acquires blocks like reserve_for(n)
  /// unless already reserved. Throws std::invalid_argument past
  /// max_seq_len and KvPoolExhausted like reserve_for(n).
  void advance_by(std::size_t n);

  /// Adopts `columns` of full, already-written shared blocks as this
  /// cache's first `n_positions` positions, taking a pool reference on
  /// every block. Requires an empty cache, whole columns
  /// (n_positions == columns.size() * block_size), and fully-written
  /// blocks. Decoding then resumes from position n_positions.
  void map_shared(std::span<const KvBlockColumn> columns,
                  std::size_t n_positions);

  /// The block ids covering positions [column*block_size,
  /// (column+1)*block_size) — must be fully written (for PrefixCache
  /// insertion).
  [[nodiscard]] KvBlockColumn block_column(std::size_t column) const;

  /// Writes `layer`'s key/value vectors at an explicit opened position
  /// (pos < length()), quantizing per the pool's mode. Chunked prefill
  /// opens a whole chunk with advance_by() and fills it layer by layer, in
  /// ascending position order per block — required in quantized modes,
  /// where a block's grow-only scale must see the same write order a
  /// token-by-token run would produce.
  void write_at(std::size_t layer, std::size_t pos, std::span<const float> k,
                std::span<const float> v);

  /// Rolls back to `len` positions and returns every block past the new
  /// boundary (including unused reservations) to the pool.
  void truncate(std::size_t len);
  void clear() { truncate(0); }

  /// Speculative-rollback support: captures / restores / resets the
  /// quantization state of the K and V blocks covering `column` of `layer`
  /// (see KvBlockPool::BlockSnapshot). A truncate() that lands mid-block in
  /// a quantized mode leaves the boundary block's grow-only scale (and
  /// rescaled codes) reflecting the discarded rows; restoring a snapshot
  /// taken before those rows were written — then replaying the kept rows
  /// through write_at() — rewinds the block bitwise, so the kept prefix
  /// stays the pure function of its tokens the prefix cache requires.
  /// restore/reset require exclusive ownership (refcount 1), which writes
  /// in the rolled-back span already guaranteed.
  void save_block_column(std::size_t layer, std::size_t column,
                         KvBlockPool::BlockSnapshot& k_out,
                         KvBlockPool::BlockSnapshot& v_out) const;
  void restore_block_column(std::size_t layer, std::size_t column,
                            const KvBlockPool::BlockSnapshot& k_snapshot,
                            const KvBlockPool::BlockSnapshot& v_snapshot);
  /// Resets both blocks to the freshly-allocated state (scale 0, no rows) —
  /// the rollback path for a column whose every row was written inside the
  /// span being rewound.
  void reset_block_column(std::size_t layer, std::size_t column);

  /// Appends one KvSegment per block covering positions [0, len) of
  /// `layer`, spanning the pool's storage directly: float spans for fp32
  /// pools (KvBlockPool::block_data), code spans plus each block's current
  /// decode scale for int8/log2 pools (KvBlockPool::block_codes /
  /// block_scale). len <= length(). Segments reflect the blocks' live
  /// state — a later quantized write may rescale a block's codes — so take
  /// them fresh per attend; the spans stay valid until a block of the range
  /// is released.
  void append_segments(std::size_t layer, std::size_t len,
                       std::vector<KvSegment>& out) const;

  [[nodiscard]] std::size_t length() const { return len_; }
  [[nodiscard]] std::size_t max_seq_len() const { return max_seq_len_; }
  [[nodiscard]] std::size_t n_layers() const { return k_blocks_.size(); }
  /// Pool blocks currently held (K and V, all layers, incl. reservations).
  [[nodiscard]] std::size_t blocks_held() const;

  [[nodiscard]] const KvBlockPool& pool() const { return *pool_; }

  /// Pool blocks needed to hold `len` positions of an `n_layers` model.
  [[nodiscard]] static std::size_t blocks_for(std::size_t n_layers,
                                              std::size_t len,
                                              std::size_t block_size) {
    return 2 * n_layers * ((len + block_size - 1) / block_size);
  }

 private:
  KvBlockPool* pool_;
  std::size_t max_seq_len_;
  std::size_t len_ = 0;
  // [layer] -> block ids covering positions [0, ceil(len/block_size)).
  std::vector<std::vector<KvBlockPool::BlockId>> k_blocks_;
  std::vector<std::vector<KvBlockPool::BlockId>> v_blocks_;

  void release_from(std::size_t first_block);
};

/// Bytes to store one layer's K (or V) matrix at length `len` with
/// `bits_per_value`-bit entries, allocated block-granularly in blocks of
/// `block_size` positions (len rounds up to whole blocks; 1 = unblocked).
/// Sub-32-bit blocked layouts (block_size > 1) carry one fp32 scale per
/// block, matching KvBlockPool's quantized storage. The accelerator model
/// sizes its KV traffic with this (accel/device.cpp).
[[nodiscard]] std::size_t matrix_bytes(std::size_t d_model, std::size_t len,
                                       std::size_t bits_per_value,
                                       std::size_t block_size = 1);

}  // namespace opal
