#include "llm/sequence_state.h"

#include <algorithm>

namespace opal {

SequenceState::SequenceState(const ModelConfig& config,
                             std::size_t max_seq_len, KvBlockPool& pool)
    : max_seq_len_(max_seq_len), n_layers_(config.n_layers),
      d_model_(config.d_model), vocab_(config.vocab),
      kv_(pool, config.n_layers, max_seq_len) {
  require(pool.d_model() == config.d_model,
          "SequenceState: pool d_model does not match the model");
  // Sized once so the segment list never allocates mid-decode.
  segments_.reserve(max_seq_len / pool.block_size() + 1);
  grow_chunk(1);  // every one-row pass runs on construction-time storage
}

SequenceState::SequenceState(const ModelConfig& config,
                             std::size_t max_seq_len,
                             std::unique_ptr<KvBlockPool> pool)
    : SequenceState(config, max_seq_len, *pool) {
  own_pool_ = std::move(pool);
}

void SequenceState::begin_spec_capture(std::size_t n_tokens) {
  // fp32 KV needs no capture: writes are row-local, so truncate() alone
  // rewinds bitwise.
  if (kv_.pool().mode() == KvQuantMode::kFp32) return;
  const std::size_t d = d_model_;
  const std::size_t need = n_layers_ * n_tokens * d;
  if (spec_rows_k_.size() < need) {
    spec_rows_k_.resize(need);
    spec_rows_v_.resize(need);
  }
  spec_base_ = kv_.length();
  spec_cap_ = n_tokens;
  const std::size_t bs = kv_.pool().block_size();
  // A partially-written boundary block holds rows from earlier steps whose
  // fp32 inputs are gone — snapshot it so rollback can rewind the scale
  // growth the rejected rows may cause. Every other block the burst touches
  // is written entirely inside the burst and can be rebuilt from the
  // captured rows alone.
  spec_snap_valid_ = spec_base_ % bs != 0;
  if (spec_snap_valid_) {
    spec_snap_k_.resize(n_layers_);
    spec_snap_v_.resize(n_layers_);
    const std::size_t col = spec_base_ / bs;
    for (std::size_t l = 0; l < n_layers_; ++l) {
      kv_.save_block_column(l, col, spec_snap_k_[l], spec_snap_v_[l]);
    }
  }
  spec_capture_ = true;
}

void SequenceState::spec_rollback(std::size_t new_len) {
  const std::size_t bs = kv_.pool().block_size();
  const bool quantized = kv_.pool().mode() != KvQuantMode::kFp32;
  require(new_len >= spec_base_ || !spec_capture_,
          "SequenceState::spec_rollback: rollback below the capture base");
  kv_.truncate(new_len);
  if (!quantized || new_len % bs == 0) {
    // Block-aligned boundary: every surviving block is fully written and
    // untouched by the rejected rows (writes land in later blocks only).
    end_spec_capture();
    return;
  }
  require(spec_capture_,
          "SequenceState::spec_rollback: no speculative capture active");
  const std::size_t col = new_len / bs;
  const std::size_t from = std::max(col * bs, spec_base_);
  const std::size_t d = d_model_;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    if (spec_snap_valid_ && col == spec_base_ / bs) {
      kv_.restore_block_column(l, col, spec_snap_k_[l], spec_snap_v_[l]);
    } else {
      kv_.reset_block_column(l, col);
    }
    // Replay the kept rows in ascending position order — the same order a
    // non-speculative run writes this block, so the grow-only scale (and
    // every rescale) reproduces bit for bit.
    for (std::size_t pos = from; pos < new_len; ++pos) {
      const std::size_t idx = (l * spec_cap_ + (pos - spec_base_)) * d;
      kv_.write_at(l, pos,
                       std::span<const float>(spec_rows_k_).subspan(idx, d),
                       std::span<const float>(spec_rows_v_).subspan(idx, d));
    }
  }
  end_spec_capture();
}

void SequenceState::reserve_for(std::size_t n) {
  kv_.reserve_for(n);
  grow_chunk(n);
}

void SequenceState::grow_chunk(std::size_t n) {
  // Grow-only: the logits rows keep their high-water capacity across
  // chunks.
  if (chunk_logits_.size() < n * vocab_) chunk_logits_.resize(n * vocab_);
}

void SequenceState::begin_chunk(std::size_t n, std::size_t logit_rows) {
  chunk_tokens_ = n;
  chunk_logit_rows_ = logit_rows;
  grow_chunk(n);  // a no-op after reserve_for(n)
}

void SequenceState::write_kv_at(std::size_t layer, std::size_t pos,
                                std::span<const float> k,
                                std::span<const float> v) {
  kv_.write_at(layer, pos, k, v);
  if (spec_capture_ && pos >= spec_base_) {
    // Record the fp32 inputs so a speculative rollback can replay the kept
    // rows through a restored boundary block (see spec_rollback).
    const std::size_t idx =
        (layer * spec_cap_ + (pos - spec_base_)) * d_model_;
    std::copy(k.begin(), k.end(), spec_rows_k_.begin() + idx);
    std::copy(v.begin(), v.end(), spec_rows_v_.begin() + idx);
  }
}

}  // namespace opal
