// Radix-tree prefix cache over a shared KvBlockPool.
//
// At serving scale most traffic shares prompt prefixes (system prompts,
// few-shot templates, chat history). Because a full KV block's contents are
// a pure function of the token prefix that produced it (greedy decode is
// deterministic, and per-block quantization state depends only on the rows
// written since allocation), full block columns can be content-addressed by
// their token-id prefix and shared between sequences instead of being
// recomputed per request.
//
// The index is a radix tree keyed on block-aligned token-id chunks: each
// node holds one KvBlockColumn (the K and V block of every layer covering
// block_size positions) and its children are keyed by the next chunk. A
// path root -> node therefore spells out the exact token prefix whose KV
// the node's column caches — two prompts share cached blocks exactly as far
// as their block-aligned token prefixes agree.
//
//   * lookup() walks the tree and returns the longest cached prefix as a
//     list of columns; the caller maps them into a PagedKvCache
//     (SequenceState::adopt_prefix), which takes the pool references.
//     Returned block ids are guaranteed alive only until the next reclaim()
//     or clear(), so map them immediately (ServingEngine does both in its
//     serial admission phase).
//   * insert() indexes the full columns of a releasing sequence, pinning
//     each newly indexed block (KvBlockPool::pin_cached). Chunks already
//     cached keep their incumbent blocks.
//   * reclaim() frees least-recently-used unreferenced leaves back to the
//     pool. Cached blocks some live sequence still maps are never touched,
//     and a node's holders always hold the whole path to the root (prefix
//     mappings are truncated from the tail), so evicting leaves first never
//     strands a reachable entry. Because unreferenced entries are always
//     reclaimable, the cache never reduces the pool's effective capacity —
//     ServingEngine reclaims under pool pressure before preempting any
//     running sequence.
//
// Not internally synchronized: like the pool, all calls belong in the
// serving layer's serial phase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "llm/kv_block_pool.h"
#include "llm/paged_kv_cache.h"

namespace opal {

class PrefixCache {
 public:
  /// The cache pins blocks of (and must not outlive) `pool`.
  PrefixCache(KvBlockPool& pool, std::size_t n_layers);
  ~PrefixCache();

  PrefixCache(PrefixCache&&) noexcept = default;
  PrefixCache& operator=(PrefixCache&&) = delete;
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  struct Match {
    /// Cached positions found (a multiple of block_size).
    std::size_t positions = 0;
    /// One column per matched chunk, in prefix order.
    std::vector<KvBlockColumn> columns;
  };

  /// Longest cached block-aligned prefix of `tokens`, at most
  /// `max_positions` positions long. Marks the matched path recently used.
  [[nodiscard]] Match lookup(std::span<const std::size_t> tokens,
                             std::size_t max_positions);

  /// Indexes the full block columns covering tokens[0, n_positions) with
  /// the block ids `cache` holds for them (n_positions must be
  /// block-aligned and <= cache.length()). Already-cached chunks are
  /// skipped. Returns the number of newly indexed columns.
  std::size_t insert(std::span<const std::size_t> tokens,
                     std::size_t n_positions, const PagedKvCache& cache);

  /// Frees least-recently-used unreferenced leaf entries until at least
  /// `min_blocks` pool blocks were released (or no evictable entry is
  /// left). Returns the blocks actually freed.
  std::size_t reclaim(std::size_t min_blocks);

  /// Drops every unreferenced entry (equivalent to reclaim(SIZE_MAX)).
  /// Entries still mapped by live sequences survive.
  void clear() { reclaim(static_cast<std::size_t>(-1)); }

  /// Pool blocks currently pinned by the cache.
  [[nodiscard]] std::size_t cached_blocks() const {
    return stats_.cached_blocks;
  }

  struct Stats {
    std::size_t lookups = 0;
    std::size_t hits = 0;           // lookups that matched >= 1 column
    std::size_t hit_positions = 0;  // cumulative positions served from cache
    std::size_t inserted_columns = 0;
    std::size_t reclaimed_blocks = 0;
    std::size_t cached_blocks = 0;  // current
    std::size_t nodes = 0;          // current
  };
  /// The cache's only record of its traffic. ServingEngine::metrics()
  /// publishes the cumulative fields as prefix_cache.lookups / hits /
  /// hit_positions / inserted_columns / reclaimed_blocks.
  [[nodiscard]] Stats stats() const { return stats_; }

 private:
  struct Node {
    std::map<std::vector<std::size_t>, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    KvBlockColumn column;  // empty at the root
    std::uint64_t last_use = 0;
  };

  [[nodiscard]] bool evictable(const Node& node) const;
  /// Every currently evictable leaf, least recently used first.
  [[nodiscard]] std::vector<Node*> evictable_leaves();

  KvBlockPool* pool_;
  std::size_t n_layers_;
  std::unique_ptr<Node> root_;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace opal
