// Block pool for paged KV caches (vLLM-style block allocation).
//
// A KvBlockPool owns a fixed set of equal-sized blocks, each holding
// `block_size` positions x `d_model` K or V entries for one layer. Blocks are
// allocated and freed in O(1) through a free list, so a serving layer can
// hand cache space to whichever sequence needs it next instead of reserving
// max_seq_len rows per sequence up front. Entries are stored in one of three
// modes:
//
//   * kFp32 — raw binary32; reads return the written bits verbatim, so
//     attention over fp32 blocks sees exactly the floats the model wrote
//     (the bitwise equivalence tests depend on this).
//   * kInt8 — symmetric int8 with one fp32 scale per block (scale =
//     amax / 127). The block's amax only grows: when a newly written row
//     exceeds it, the block's existing codes are rescaled to the new amax.
//   * kLog2 — the paper's 7-bit log2 form: each entry is a sign bit plus a
//     7-bit code c with |v| ~= 2^e * 2^-c where 2^e is the block's
//     power-of-two scale. Code 127 decodes to exactly 0. Scale growth is an
//     integer add on the codes (a hardware shift), matching the log2-domain
//     attention path of Section 4.2.
//
// Quantization state is per block and depends only on the sequence of rows
// written into the block since it was allocated, so replaying the same rows
// through a fresh block reproduces the same codes — full preemption followed
// by recompute is deterministic in every mode.
//
// Blocks are refcounted so full (immutable) blocks can be shared between
// sequences and the prefix cache: allocate() hands out a block with one
// reference, add_ref() adds holders, and free() drops one reference,
// returning the block to the free list only when the last holder lets go.
// Writes require exclusive ownership (refcount 1) — a holder that wants to
// write a shared block must copy-on-write via clone_rows() first. A
// PrefixCache additionally marks its blocks with pin_cached(): a cached
// block whose only remaining reference is the cache itself counts as
// *reclaimable* (free capacity in waiting), while everything else in use is
// *pinned*; reclaimable_blocks()/pinned_blocks() expose that split and
// peak_blocks_in_use() records the in-use high-water mark.
//
// Storage is committed lazily: the constructor reserves only the per-block
// bookkeeping, and allocate() commits a block's storage (zeroed) the first
// time it hands out that block id, keeping it for the pool's lifetime. The
// free list is LIFO and hands out block 0 first, so a never-used id is handed
// out only when every committed block is in use: committed_blocks() equals
// peak_blocks_in_use() at all times, and the resident KV is that peak times
// bytes_per_block(), not the pool's capacity (storage_bytes()).
//
// The pool itself is not internally synchronized: allocate/free/write must
// be externally serialized (a ServingEngine owns its pool and reserves
// blocks in its serial phase; the parallel decode phase only reads and
// writes rows of blocks owned by distinct sequences, which touch disjoint
// storage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace opal {

enum class KvQuantMode : std::uint8_t { kFp32, kInt8, kLog2 };

[[nodiscard]] std::string to_string(KvQuantMode mode);

/// Storage bits per cached K/V entry: 32 (fp32), 8 (int8), 8 (log2: 1 sign
/// bit + 7-bit code).
[[nodiscard]] std::size_t kv_bits_per_entry(KvQuantMode mode);

/// Thrown when an allocation is requested from an empty pool. Serving layers
/// catch memory pressure *before* decode (preempt/evict), so in normal
/// operation this only fires when a PagedKvCache is driven directly.
struct KvPoolExhausted : std::runtime_error {
  explicit KvPoolExhausted(const std::string& what)
      : std::runtime_error(what) {}
};

class KvBlockPool {
 public:
  using BlockId = std::uint32_t;

  KvBlockPool(std::size_t n_blocks, std::size_t block_size,
              std::size_t d_model, KvQuantMode mode = KvQuantMode::kFp32);

  /// O(1). Returns a block with reset quantization state (scale 0, no rows)
  /// and refcount 1. Throws KvPoolExhausted when no block is free. The first
  /// hand-out of an id commits its storage, zeroed; a reused block keeps the
  /// stale bytes of its last holder.
  [[nodiscard]] BlockId allocate();

  /// O(1). Drops one reference; the block returns to the free list when the
  /// last holder releases it. Over-frees and out-of-range ids throw.
  void free(BlockId id);

  /// Registers another holder of an in-use block (prefix sharing). Shared
  /// blocks are read-only until copy-on-write restores exclusive ownership.
  void add_ref(BlockId id);
  [[nodiscard]] std::uint32_t ref_count(BlockId id) const;

  /// Allocates a fresh block and copies rows [0, n_rows) of `src` into it
  /// bitwise — quantized codes, block scale, and fill state included — so a
  /// holder of a shared block can copy-on-write its written prefix. Throws
  /// KvPoolExhausted like allocate().
  [[nodiscard]] BlockId clone_rows(BlockId src, std::size_t n_rows);

  /// Marks an in-use block as indexed by a prefix cache, adding the cache's
  /// own reference. At most one cache may pin a given block.
  void pin_cached(BlockId id);
  /// Reverses pin_cached: clears the cached flag and drops the cache's
  /// reference (freeing the block when the cache was the last holder).
  void release_cached(BlockId id);
  [[nodiscard]] bool is_cached(BlockId id) const;

  /// Rows written into `id` since it was allocated (or cloned).
  [[nodiscard]] std::size_t rows_written(BlockId id) const;

  [[nodiscard]] std::size_t n_blocks() const { return n_blocks_; }
  [[nodiscard]] std::size_t free_blocks() const { return free_list_.size(); }
  [[nodiscard]] std::size_t blocks_in_use() const {
    return n_blocks_ - free_list_.size();
  }
  /// In-use blocks held only by a prefix cache: reclaimable on demand, so
  /// they never reduce the pool's effective capacity.
  [[nodiscard]] std::size_t reclaimable_blocks() const { return reclaimable_; }
  /// In-use blocks some sequence still references (not reclaimable).
  [[nodiscard]] std::size_t pinned_blocks() const {
    return blocks_in_use() - reclaimable_;
  }
  /// High-water mark of blocks_in_use() over the pool's lifetime — makes
  /// prefix sharing observable (N sequences over one shared prefix peak far
  /// below N private copies).
  [[nodiscard]] std::size_t peak_blocks_in_use() const { return peak_in_use_; }
  /// Blocks whose storage has been committed (each on its first allocate()).
  /// Always equals peak_blocks_in_use(): this, not n_blocks(), is what the
  /// pool keeps resident.
  [[nodiscard]] std::size_t committed_blocks() const { return committed_; }
  [[nodiscard]] std::size_t block_size() const { return block_size_; }
  [[nodiscard]] std::size_t d_model() const { return d_model_; }
  [[nodiscard]] KvQuantMode mode() const { return mode_; }

  /// Quantizes one position's d_model-long vector into row `row` of `id`,
  /// growing the block scale (and rescaling earlier rows) if needed.
  /// Requires exclusive ownership (refcount 1): shared blocks are immutable
  /// and must be copy-on-written via clone_rows() first.
  void write_row(BlockId id, std::size_t row, std::span<const float> v);

  /// Verbatim copy of one block's quantization state — storage bytes, block
  /// scale, and rows-written fill — taken with save_block() and written
  /// back with restore_block(). Because a block's state is a pure function
  /// of the row sequence written since it was allocated, a snapshot taken
  /// before a batch of writes plus a restore afterwards rewinds the block
  /// bitwise, scale growth and code rescales included. This is what lets a
  /// speculative-decode rollback discard rejected rows from a partially
  /// written block without poisoning the rows it keeps (see
  /// SequenceState::spec_rollback). Snapshot buffers are grow-only and
  /// reusable across blocks of one pool.
  struct BlockSnapshot {
    std::vector<std::byte> bytes;  // the block's whole storage
    float scale = 0.0f;
    std::size_t fill = 0;
  };

  /// Captures `id`'s full storage + scale + fill into `out` (buffers are
  /// resized as needed). Read-only; safe to call concurrently with writes
  /// to OTHER blocks (same disjointness rule as write_row).
  void save_block(BlockId id, BlockSnapshot& out) const;

  /// Restores `id` bitwise from a snapshot taken on this pool. Requires
  /// exclusive ownership (refcount 1), like write_row.
  void restore_block(BlockId id, const BlockSnapshot& snapshot);

  /// Resets `id` to the freshly-allocated state (scale 0, no rows written)
  /// without releasing it — the rollback path for a block whose every row
  /// was written inside the span being rewound. Requires exclusive
  /// ownership (refcount 1).
  void reset_block(BlockId id);

  /// Dequantizes row `row` of `id` into `out` (d_model floats). In kFp32
  /// mode this returns the written bits verbatim.
  void read_row(BlockId id, std::size_t row, std::span<float> out) const;

  /// Raw storage of an in-use block as a [block_size x d_model] row-major
  /// span — the zero-copy attend path for fp32 pools, where stored entries
  /// ARE the written floats (no per-row dequantization exists to skip).
  /// kFp32 mode only; quantized modes throw (their raw bytes are codes, not
  /// floats — read through read_row). The span stays valid while the block
  /// is held; rows past rows_written(id) are stale or zero.
  [[nodiscard]] std::span<const float> block_data(BlockId id) const;

  /// Raw quantized codes of an in-use block as a [block_size x d_model]
  /// row-major span — the fused dequantize-dot attend path, which decodes
  /// codes in-register (common/kernels.h) instead of materializing fp32
  /// scratch. kInt8/kLog2 modes only; kFp32 throws (its storage holds
  /// floats, read through block_data). Pair with block_scale() for the
  /// decode parameter. Same lifetime rules as block_data().
  [[nodiscard]] std::span<const std::int8_t> block_codes(BlockId id) const;

  /// Current block scale: amax (kInt8), exp2 exponent as a float (kLog2),
  /// or 0 (kFp32). Exposed for tests and accounting.
  [[nodiscard]] float block_scale(BlockId id) const;

  /// Payload bytes of one block (quantized entries + per-block scale).
  [[nodiscard]] std::size_t bytes_per_block() const;
  /// Payload bytes of the whole pool at capacity. Storage is committed per
  /// block on first allocation, so committed_blocks() * bytes_per_block() is
  /// what is resident.
  [[nodiscard]] std::size_t storage_bytes() const {
    return n_blocks_ * bytes_per_block();
  }

  /// Lifetime event counts, published by ServingEngine::metrics() as
  /// kv_pool.allocations / frees / cow_clones (next to the
  /// kv_pool.blocks_in_use gauge, read from blocks_in_use()).
  struct Counts {
    std::uint64_t allocations = 0;  // allocate(), clone_rows included
    std::uint64_t frees = 0;        // blocks returned to the free list
    std::uint64_t cow_clones = 0;   // clone_rows()
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }

 private:
  void check_block(BlockId id, const char* what) const;

  /// Block `id`'s committed storage as [block_size x d_model] entries of T:
  /// float in kFp32 mode, std::int8_t codes otherwise (std::byte for copies).
  template <typename T>
  [[nodiscard]] T* block_ptr(BlockId id) const {
    return reinterpret_cast<T*>(storage_[id].get());
  }

  std::size_t n_blocks_;
  std::size_t block_size_;
  std::size_t d_model_;
  KvQuantMode mode_;
  std::size_t row_bytes_;    // storage bytes of one row (d_model entries)
  std::size_t block_bytes_;  // storage bytes of one block

  // Per block: null until the block's first allocate(), then its storage.
  std::vector<std::unique_ptr<std::byte[]>> storage_;
  std::size_t committed_ = 0;       // non-null entries of storage_
  std::vector<float> scales_;       // per block: amax (int8) or exponent (log2)
  std::vector<std::size_t> fill_;   // rows written since allocate (for rescale)
  std::vector<BlockId> free_list_;  // LIFO free stack
  std::vector<std::uint32_t> refs_;    // holders per block; 0 = free
  std::vector<std::uint8_t> cached_;   // indexed by a PrefixCache
  std::size_t reclaimable_ = 0;        // cached && refcount == 1
  std::size_t peak_in_use_ = 0;
  Counts counts_;
};

/// One block column: the K and V block of every layer covering one
/// block_size span of positions — the unit prefix caching shares between
/// sequences.
struct KvBlockColumn {
  std::vector<KvBlockPool::BlockId> k;  // [n_layers]
  std::vector<KvBlockPool::BlockId> v;  // [n_layers]
};

}  // namespace opal
