#include "llm/prefix_cache.h"

#include <algorithm>

#include "common/tensor.h"

namespace opal {

PrefixCache::PrefixCache(KvBlockPool& pool, std::size_t n_layers)
    : pool_(&pool), n_layers_(n_layers), root_(std::make_unique<Node>()) {
  require(n_layers >= 1, "PrefixCache: n_layers must be >= 1");
}

PrefixCache::~PrefixCache() {
  if (root_ == nullptr) return;  // moved-from
  // Release every pinned block, referenced or not: holders keep shared
  // blocks alive through their own references, so dropping the cache's pin
  // is always safe.
  const auto release_subtree = [this](auto&& self, Node& node) -> void {
    for (auto& [key, child] : node.children) self(self, *child);
    for (std::size_t l = 0; l < n_layers_; ++l) {
      pool_->release_cached(node.column.k[l]);
      pool_->release_cached(node.column.v[l]);
    }
  };
  for (auto& [key, child] : root_->children) {
    release_subtree(release_subtree, *child);
  }
}

PrefixCache::Match PrefixCache::lookup(std::span<const std::size_t> tokens,
                                       std::size_t max_positions) {
  ++stats_.lookups;
  ++clock_;
  const std::size_t bs = pool_->block_size();
  const std::size_t max_cols = std::min(tokens.size(), max_positions) / bs;
  Match match;
  Node* node = root_.get();
  std::vector<std::size_t> key;
  for (std::size_t c = 0; c < max_cols; ++c) {
    key.assign(tokens.begin() + static_cast<std::ptrdiff_t>(c * bs),
               tokens.begin() + static_cast<std::ptrdiff_t>((c + 1) * bs));
    const auto it = node->children.find(key);
    if (it == node->children.end()) break;
    node = it->second.get();
    node->last_use = clock_;
    match.columns.push_back(node->column);
    match.positions += bs;
  }
  if (match.positions > 0) {
    ++stats_.hits;
    stats_.hit_positions += match.positions;
  }
  return match;
}

std::size_t PrefixCache::insert(std::span<const std::size_t> tokens,
                                std::size_t n_positions,
                                const PagedKvCache& cache) {
  const std::size_t bs = pool_->block_size();
  require(n_positions % bs == 0,
          "PrefixCache::insert: positions must be block-aligned");
  require(n_positions <= tokens.size() && n_positions <= cache.length(),
          "PrefixCache::insert: positions exceed tokens or cache length");
  ++clock_;
  Node* node = root_.get();
  std::size_t new_columns = 0;
  for (std::size_t c = 0; c < n_positions / bs; ++c) {
    std::vector<std::size_t> key(
        tokens.begin() + static_cast<std::ptrdiff_t>(c * bs),
        tokens.begin() + static_cast<std::ptrdiff_t>((c + 1) * bs));
    if (const auto it = node->children.find(key);
        it != node->children.end()) {
      // Chunk already cached: keep the incumbent blocks (identical token
      // prefix implies identical contents; the caller's copy is released
      // with its sequence).
      node = it->second.get();
      node->last_use = clock_;
      continue;
    }
    auto child = std::make_unique<Node>();
    child->parent = node;
    child->last_use = clock_;
    child->column = cache.block_column(c);
    for (std::size_t l = 0; l < n_layers_; ++l) {
      pool_->pin_cached(child->column.k[l]);
      pool_->pin_cached(child->column.v[l]);
    }
    stats_.cached_blocks += 2 * n_layers_;
    ++stats_.nodes;
    ++new_columns;
    Node* next = child.get();
    node->children.emplace(std::move(key), std::move(child));
    node = next;
  }
  stats_.inserted_columns += new_columns;
  return new_columns;
}

bool PrefixCache::evictable(const Node& node) const {
  if (!node.children.empty()) return false;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    if (pool_->ref_count(node.column.k[l]) > 1) return false;
    if (pool_->ref_count(node.column.v[l]) > 1) return false;
  }
  return true;
}

std::vector<PrefixCache::Node*> PrefixCache::evictable_leaves() {
  std::vector<Node*> leaves;
  const auto visit = [this, &leaves](auto&& self, Node& node) -> void {
    for (auto& [key, child] : node.children) self(self, *child);
    if (evictable(node)) leaves.push_back(&node);
  };
  for (auto& [key, child] : root_->children) visit(visit, *child);
  std::sort(leaves.begin(), leaves.end(), [](const Node* a, const Node* b) {
    return a->last_use < b->last_use;
  });
  return leaves;
}

std::size_t PrefixCache::reclaim(std::size_t min_blocks) {
  std::size_t freed = 0;
  // One DFS per round gathers every currently evictable leaf in LRU
  // order; evicting them can turn their parents into leaves, which the
  // next round picks up. Rounds are bounded by tree depth, so reclaim is
  // O(depth * nodes) worst case instead of O(evictions * nodes).
  while (freed < min_blocks) {
    const auto victims = evictable_leaves();
    if (victims.empty()) break;
    for (Node* victim : victims) {
      if (freed >= min_blocks) break;
      for (std::size_t l = 0; l < n_layers_; ++l) {
        pool_->release_cached(victim->column.k[l]);
        pool_->release_cached(victim->column.v[l]);
      }
      freed += 2 * n_layers_;
      stats_.cached_blocks -= 2 * n_layers_;
      --stats_.nodes;
      Node* parent = victim->parent;
      for (auto it = parent->children.begin(); it != parent->children.end();
           ++it) {
        if (it->second.get() == victim) {
          parent->children.erase(it);
          break;
        }
      }
    }
  }
  stats_.reclaimed_blocks += freed;
  return freed;
}

}  // namespace opal
