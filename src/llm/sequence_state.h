// Per-sequence mutable decode state: the KV cache, the sampler checkpoint
// and the logits rows of the latest pass. Cheap to create and reset, so a
// serving layer can keep one per in-flight request while every sequence
// shares a single immutable PreparedModel. A pass's activation rows are not
// here: they live in the PassScratch of whoever runs the pass (see
// prepared_model.h), so one scratch serves a whole group of sequences.
//
// The KV backend is always a PagedKvCache. Serving sequences draw its
// fixed-size blocks from a shared KvBlockPool (fp32, int8 or log2); the
// batch-of-1 facade (PreparedModel::make_sequence() without a pool) owns a
// private fp32 pool sized for one sequence at max_seq_len. PreparedModel
// reads the cache through attend_view(), which yields the cached prefix as
// one KvSegment per block, spanning the pool's live storage (see
// PagedKvCache::append_segments):
//   * fp32     — float spans; entries are the written bits, so there is
//     nothing to dequantize and nothing to copy;
//   * int8/log2 — code spans plus the per-block decode scales; the fused
//     dequantize-dot kernels (common/kernels.h) decode in-register, bitwise
//     equal to attending over PagedKvCache::gather()'s floats.
// Segments read live storage, so chunked prefill needs no bookkeeping: a
// quantized write that rescales its block is seen by the next attend, which
// is exactly what a token-by-token run reads.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "llm/model_config.h"
#include "llm/paged_kv_cache.h"
#include "llm/sampler.h"

namespace opal {

class SequenceState {
 public:
  /// KV blocks allocated from `pool` (which must outlive the state).
  SequenceState(const ModelConfig& config, std::size_t max_seq_len,
                KvBlockPool& pool);

  /// KV blocks allocated from `pool`, which the state owns (the batch-of-1
  /// facade's private pool).
  SequenceState(const ModelConfig& config, std::size_t max_seq_len,
                std::unique_ptr<KvBlockPool> pool);

  /// Number of tokens decoded into the KV cache so far.
  [[nodiscard]] std::size_t position() const { return kv_.length(); }
  [[nodiscard]] std::size_t max_seq_len() const { return max_seq_len_; }

  /// Drops all cached context; every held block returns to the pool and
  /// the next step decodes at position 0.
  void reset() { truncate(0); }

  /// Rolls the cached context back to `len` positions (scheduler eviction /
  /// partial-recompute preemption), freeing the blocks past the new
  /// boundary. Throws if len exceeds position().
  void truncate(std::size_t len) { kv_.truncate(len); }

  // --- speculative decode-verify rollback (ServingEngine) ---
  //
  // A speculative burst feeds 1 + k tokens through prefill_chunk and may
  // commit only the first C of them. In fp32 KV, truncate()
  // alone rewinds exactly — writes are row-local. In quantized modes the
  // rejected rows can have GROWN the boundary block's scale and rescaled
  // the kept rows' codes, so truncate() alone would leave the kept prefix
  // different from what a non-speculative run produces. The capture
  // protocol makes the rollback bitwise anyway:
  //   * begin_spec_capture(n) — call after reserve_for(n), before the
  //     chunk: snapshots the partially-written boundary block (if any) and
  //     arms write_kv_at() to record the fp32 K/V rows the chunk writes;
  //   * spec_rollback(new_len) — truncate to new_len, then restore the
  //     boundary block (snapshot, or fresh-reset when every row of it was
  //     written inside the chunk) and replay the kept rows through
  //     write_at(). Block state is a pure function of the rows written
  //     since allocation, so the result is bit-identical to having fed
  //     only the committed tokens — the prefix stays canonical and
  //     prefix-cacheable;
  //   * end_spec_capture() — when every row was committed (no rollback).
  // Capture is a no-op in fp32 mode, where spec_rollback() is just
  // truncate(). Buffers are grow-only and reused across bursts.
  void begin_spec_capture(std::size_t n_tokens);
  void end_spec_capture() { spec_capture_ = false; }
  void spec_rollback(std::size_t new_len);

  /// Adopts shared, already-written block columns (a PrefixCache hit) as
  /// this sequence's first `n_positions` cached positions, so prefill can
  /// skip ahead and resume decoding from there. The cache must be empty
  /// (see PagedKvCache::map_shared).
  void adopt_prefix(std::span<const KvBlockColumn> columns,
                    std::size_t n_positions) {
    kv_.map_shared(columns, n_positions);
  }

  /// The KV cache, for PrefixCache insertion and block accounting.
  [[nodiscard]] const PagedKvCache& paged_cache() const { return kv_; }

  /// Pool blocks currently held.
  [[nodiscard]] std::size_t blocks_held() const { return kv_.blocks_held(); }
  /// Pool blocks an `n`-token chunk would take right now.
  [[nodiscard]] std::size_t blocks_needed_for(std::size_t n) const {
    return kv_.blocks_needed_for(n);
  }
  /// Pre-acquires everything an `n`-token pass needs on this sequence
  /// (idempotent): its KV blocks and its logits rows. Lets a serving layer
  /// keep pool mutation and heap allocation out of its parallel decode
  /// phase, so every buffer a pass touches comes from the serial thread's
  /// heap, run after run (the pass's activation rows come from a
  /// PassScratch the caller reserves).
  void reserve_for(std::size_t n);

  /// Logits of the most recent pass's final row — chunk_logits_row(
  /// chunk_tokens() - 1), the handoff a sampler extends the sequence from.
  /// Empty before the first pass and after a pass that computed no logits.
  [[nodiscard]] std::span<const float> logits() const {
    if (chunk_logit_rows_ == 0) return {};
    return chunk_logits_row(chunk_tokens_ - 1);
  }

  /// Rows the most recent pass fed (0 before the first; a step() is 1).
  [[nodiscard]] std::size_t chunk_tokens() const { return chunk_tokens_; }
  /// Logits of chunk position `i` (the logits observed after feeding the
  /// chunk's i-th token); valid until the next step()/prefill_chunk() with
  /// this state, and only for the rows that pass computed logits for: the
  /// last `logit_rows` of its chunk (PreparedModel::prefill_group; all rows
  /// by default). Throws std::invalid_argument for any other row.
  [[nodiscard]] std::span<const float> chunk_logits_row(std::size_t i) const {
    require(i < chunk_tokens_,
            "SequenceState::chunk_logits_row: row out of range");
    require(i + chunk_logit_rows_ >= chunk_tokens_,
            "SequenceState::chunk_logits_row: row's logits not computed");
    return std::span<const float>(chunk_logits_).subspan(i * vocab_, vocab_);
  }

  /// The request's sampler checkpoint (counter-based RNG stream position;
  /// see sampler.h). It rides with the sequence's decode state so a kept-KV
  /// preemption (truncate) carries it untouched; a serving layer that
  /// RELEASES the state for full recompute must save it first and restore
  /// it into the replacement state, so the replayed request resumes the
  /// exact RNG stream (replayed tokens are fed as known tokens and consume
  /// no draws). Serializing (rng.seed(), rng.counter()) checkpoints it.
  [[nodiscard]] SamplerState& sampler_state() { return sampler_state_; }
  [[nodiscard]] const SamplerState& sampler_state() const {
    return sampler_state_;
  }

 private:
  friend class PreparedModel;

  /// The cached positions [0, len) of `layer`, one KvSegment per block
  /// over the pool's live storage (see the header comment).
  [[nodiscard]] std::span<const KvSegment> attend_view(std::size_t layer,
                                                       std::size_t len) {
    segments_.clear();
    kv_.append_segments(layer, len, segments_);
    return segments_;
  }

  /// Grows the logits rows to hold `n` rows. The only place they grow.
  void grow_chunk(std::size_t n);
  /// Opens an `n`-token pass whose last `logit_rows` rows get logits,
  /// growing the logits rows unless reserve_for(n) already did
  /// (PreparedModel::prefill_group).
  void begin_chunk(std::size_t n, std::size_t logit_rows);

  void advance_cache_by(std::size_t n) { kv_.advance_by(n); }
  /// Writes one position's K/V for `layer`, recording the rows while a
  /// speculative capture is armed.
  void write_kv_at(std::size_t layer, std::size_t pos,
                   std::span<const float> k, std::span<const float> v);

  std::size_t max_seq_len_;
  std::size_t n_layers_ = 0;
  std::size_t d_model_ = 0;
  std::size_t vocab_ = 0;
  SamplerState sampler_state_;
  std::unique_ptr<KvBlockPool> own_pool_;  // facade only; outlives kv_
  PagedKvCache kv_;
  // Speculative-rollback capture (quantized pools only; see the protocol
  // comment above): fp32 copies of the rows written during the current
  // burst, [n_layers x spec_cap_ x d_model], plus the boundary block's
  // pre-burst snapshot per layer.
  bool spec_capture_ = false;
  bool spec_snap_valid_ = false;
  std::size_t spec_base_ = 0;  // position() when capture began
  std::size_t spec_cap_ = 0;   // tokens the capture covers
  std::vector<float> spec_rows_k_, spec_rows_v_;
  std::vector<KvBlockPool::BlockSnapshot> spec_snap_k_, spec_snap_v_;
  std::vector<KvSegment> segments_;  // attend_view scratch
  std::size_t chunk_tokens_ = 0;
  std::size_t chunk_logit_rows_ = 0;
  // The latest pass's logits, row-major with one row per chunk token,
  // grow-only (see grow_chunk); a pass that fits the high-water mark
  // allocates nothing.
  std::vector<float> chunk_logits_;  // [chunk_tokens x vocab]
};

}  // namespace opal
