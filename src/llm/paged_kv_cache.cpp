#include "llm/paged_kv_cache.h"

#include "common/tensor.h"

namespace opal {

PagedKvCache::PagedKvCache(KvBlockPool& pool, std::size_t n_layers,
                           std::size_t max_seq_len)
    : pool_(&pool), max_seq_len_(max_seq_len) {
  require(n_layers >= 1, "PagedKvCache: n_layers must be >= 1");
  k_blocks_.resize(n_layers);
  v_blocks_.resize(n_layers);
}

PagedKvCache::PagedKvCache(PagedKvCache&& other) noexcept
    : pool_(other.pool_), max_seq_len_(other.max_seq_len_), len_(other.len_),
      k_blocks_(std::move(other.k_blocks_)),
      v_blocks_(std::move(other.v_blocks_)) {
  const std::size_t n_layers = k_blocks_.size();
  other.len_ = 0;
  other.k_blocks_.assign(n_layers, {});
  other.v_blocks_.assign(n_layers, {});
}

PagedKvCache::~PagedKvCache() { release_from(0); }

void PagedKvCache::release_from(std::size_t first_block) {
  for (auto* tables : {&k_blocks_, &v_blocks_}) {
    for (auto& blocks : *tables) {
      while (blocks.size() > first_block) {
        pool_->free(blocks.back());
        blocks.pop_back();
      }
    }
  }
}

std::size_t PagedKvCache::blocks_needed_for(std::size_t n) const {
  require(len_ + n <= max_seq_len_,
          "PagedKvCache::blocks_needed_for: chunk exceeds max_seq_len");
  if (n == 0) return 0;
  const std::size_t bs = pool_->block_size();
  const std::size_t n_layers = k_blocks_.size();
  const std::size_t have = k_blocks_[0].size();
  const std::size_t last_col = (len_ + n - 1) / bs;
  std::size_t need =
      last_col + 1 > have ? 2 * n_layers * (last_col + 1 - have) : 0;
  // Copy-on-write: shared blocks of already-held columns the write range
  // lands in. Only the first write column can be partially written and
  // shared; any later held column is a pending reservation (exclusively
  // owned), so this loop usually inspects at most one column.
  for (std::size_t col = len_ / bs; col < std::min(have, last_col + 1);
       ++col) {
    for (std::size_t l = 0; l < n_layers; ++l) {
      if (pool_->ref_count(k_blocks_[l][col]) > 1) ++need;
      if (pool_->ref_count(v_blocks_[l][col]) > 1) ++need;
    }
  }
  return need;
}

void PagedKvCache::reserve_for(std::size_t n) {
  require(len_ + n <= max_seq_len_,
          "PagedKvCache::reserve_for: chunk exceeds max_seq_len");
  if (n == 0) return;
  // Check capacity up front so a throw takes nothing; a partial completion
  // after a concurrent pool change still leaves a consistent cache (retry
  // finishes the rest).
  const std::size_t need = blocks_needed_for(n);
  if (need == 0) return;
  if (pool_->free_blocks() < need) {
    throw KvPoolExhausted(
        "PagedKvCache: pool cannot supply the reserved chunk");
  }
  const std::size_t bs = pool_->block_size();
  const std::size_t n_layers = k_blocks_.size();
  const std::size_t last_col = (len_ + n - 1) / bs;
  // Restore exclusive ownership of any still-shared block the write range
  // lands in by cloning its written-prefix rows into a private block
  // (copy-on-write); later writes then never touch shared storage.
  const std::size_t first_col = len_ / bs;
  for (std::size_t col = first_col;
       col < std::min(k_blocks_[0].size(), last_col + 1); ++col) {
    const std::size_t keep_rows = col == first_col ? len_ % bs : 0;
    for (auto* tables : {&k_blocks_, &v_blocks_}) {
      for (auto& blocks : *tables) {
        KvBlockPool::BlockId& slot = blocks[col];
        if (pool_->ref_count(slot) > 1) {
          const KvBlockPool::BlockId fresh = pool_->clone_rows(slot,
                                                               keep_rows);
          pool_->free(slot);
          slot = fresh;
        }
      }
    }
  }
  while (k_blocks_[0].size() < last_col + 1) {
    for (std::size_t l = 0; l < n_layers; ++l) {
      k_blocks_[l].push_back(pool_->allocate());
      v_blocks_[l].push_back(pool_->allocate());
    }
  }
}

void PagedKvCache::map_shared(std::span<const KvBlockColumn> columns,
                              std::size_t n_positions) {
  require(len_ == 0 && k_blocks_[0].empty() && v_blocks_[0].empty(),
          "PagedKvCache::map_shared: cache must be empty");
  const std::size_t bs = pool_->block_size();
  require(n_positions == columns.size() * bs,
          "PagedKvCache::map_shared: positions must cover whole columns");
  require(n_positions <= max_seq_len_,
          "PagedKvCache::map_shared: positions exceed max_seq_len");
  const std::size_t n_layers = k_blocks_.size();
  for (const auto& col : columns) {
    require(col.k.size() == n_layers && col.v.size() == n_layers,
            "PagedKvCache::map_shared: column layer count mismatch");
    for (std::size_t l = 0; l < n_layers; ++l) {
      require(pool_->rows_written(col.k[l]) == bs &&
                  pool_->rows_written(col.v[l]) == bs,
              "PagedKvCache::map_shared: shared blocks must be full");
    }
  }
  // add_ref before each table insert: a throw mid-way leaves every pushed
  // block referenced exactly once by this cache (the destructor releases).
  for (const auto& col : columns) {
    for (std::size_t l = 0; l < n_layers; ++l) {
      pool_->add_ref(col.k[l]);
      k_blocks_[l].push_back(col.k[l]);
      pool_->add_ref(col.v[l]);
      v_blocks_[l].push_back(col.v[l]);
    }
  }
  len_ = n_positions;
}

KvBlockColumn PagedKvCache::block_column(std::size_t column) const {
  const std::size_t bs = pool_->block_size();
  require((column + 1) * bs <= len_,
          "PagedKvCache::block_column: column not fully written");
  KvBlockColumn col;
  col.k.reserve(k_blocks_.size());
  col.v.reserve(v_blocks_.size());
  for (std::size_t l = 0; l < k_blocks_.size(); ++l) {
    col.k.push_back(k_blocks_[l][column]);
    col.v.push_back(v_blocks_[l][column]);
  }
  return col;
}

void PagedKvCache::advance_by(std::size_t n) {
  require(len_ + n <= max_seq_len_,
          "PagedKvCache::advance_by: chunk exceeds max_seq_len");
  reserve_for(n);
  len_ += n;
}

void PagedKvCache::write_at(std::size_t layer, std::size_t pos,
                            std::span<const float> k,
                            std::span<const float> v) {
  require(layer < k_blocks_.size(), "PagedKvCache::write_at: bad layer");
  require(pos < len_,
          "PagedKvCache::write_at: position not opened by advance");
  const std::size_t block = pos / pool_->block_size();
  const std::size_t row = pos % pool_->block_size();
  pool_->write_row(k_blocks_[layer][block], row, k);
  pool_->write_row(v_blocks_[layer][block], row, v);
}

void PagedKvCache::truncate(std::size_t len) {
  require(len <= len_, "PagedKvCache::truncate: len exceeds current length");
  const std::size_t bs = pool_->block_size();
  release_from((len + bs - 1) / bs);
  len_ = len;
}

void PagedKvCache::save_block_column(std::size_t layer, std::size_t column,
                                     KvBlockPool::BlockSnapshot& k_out,
                                     KvBlockPool::BlockSnapshot& v_out) const {
  require(layer < k_blocks_.size() && column < k_blocks_[layer].size(),
          "PagedKvCache::save_block_column: bad layer or column");
  pool_->save_block(k_blocks_[layer][column], k_out);
  pool_->save_block(v_blocks_[layer][column], v_out);
}

void PagedKvCache::restore_block_column(
    std::size_t layer, std::size_t column,
    const KvBlockPool::BlockSnapshot& k_snapshot,
    const KvBlockPool::BlockSnapshot& v_snapshot) {
  require(layer < k_blocks_.size() && column < k_blocks_[layer].size(),
          "PagedKvCache::restore_block_column: bad layer or column");
  pool_->restore_block(k_blocks_[layer][column], k_snapshot);
  pool_->restore_block(v_blocks_[layer][column], v_snapshot);
}

void PagedKvCache::reset_block_column(std::size_t layer, std::size_t column) {
  require(layer < k_blocks_.size() && column < k_blocks_[layer].size(),
          "PagedKvCache::reset_block_column: bad layer or column");
  pool_->reset_block(k_blocks_[layer][column]);
  pool_->reset_block(v_blocks_[layer][column]);
}

void PagedKvCache::gather(std::size_t layer, std::span<float> k_out,
                          std::span<float> v_out) const {
  require(layer < k_blocks_.size(), "PagedKvCache::gather: bad layer");
  const std::size_t d = pool_->d_model();
  require(k_out.size() >= len_ * d && v_out.size() >= len_ * d,
          "PagedKvCache::gather: output spans too small");
  const std::size_t bs = pool_->block_size();
  for (std::size_t t = 0; t < len_; ++t) {
    pool_->read_row(k_blocks_[layer][t / bs], t % bs,
                    k_out.subspan(t * d, d));
    pool_->read_row(v_blocks_[layer][t / bs], t % bs,
                    v_out.subspan(t * d, d));
  }
}

void PagedKvCache::append_segments(std::size_t layer, std::size_t len,
                                   std::vector<KvSegment>& out) const {
  require(layer < k_blocks_.size(),
          "PagedKvCache::append_segments: bad layer");
  require(len <= len_,
          "PagedKvCache::append_segments: len exceeds cached length");
  const std::size_t bs = pool_->block_size();
  const std::size_t d = pool_->d_model();
  const KvQuantMode mode = pool_->mode();
  for (std::size_t col = 0; col * bs < len; ++col) {
    const std::size_t rows = std::min(bs, len - col * bs);
    const KvBlockPool::BlockId kb = k_blocks_[layer][col];
    const KvBlockPool::BlockId vb = v_blocks_[layer][col];
    KvSegment seg;
    seg.rows = rows;
    seg.mode = mode;
    if (mode == KvQuantMode::kFp32) {
      seg.k = pool_->block_data(kb).first(rows * d);
      seg.v = pool_->block_data(vb).first(rows * d);
    } else {
      seg.k_codes = pool_->block_codes(kb).first(rows * d);
      seg.v_codes = pool_->block_codes(vb).first(rows * d);
      seg.k_scale = pool_->block_scale(kb);
      seg.v_scale = pool_->block_scale(vb);
    }
    out.push_back(seg);
  }
}

std::size_t PagedKvCache::blocks_held() const {
  std::size_t held = 0;
  for (const auto& blocks : k_blocks_) held += blocks.size();
  for (const auto& blocks : v_blocks_) held += blocks.size();
  return held;
}

std::size_t matrix_bytes(std::size_t d_model, std::size_t len,
                         std::size_t bits_per_value, std::size_t block_size) {
  require(block_size >= 1,
          "matrix_bytes: block_size must be >= 1 (1 = unblocked)");
  const std::size_t blocks = (len + block_size - 1) / block_size;
  std::size_t bytes = blocks * block_size * d_model * bits_per_value / 8;
  if (block_size > 1 && bits_per_value < 32) {
    bytes += blocks * sizeof(float);  // per-block quantization scale
  }
  return bytes;
}

}  // namespace opal
