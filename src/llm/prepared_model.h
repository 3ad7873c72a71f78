// Immutable prepared model — the shareable half of the old InferenceEngine.
//
// A PreparedModel is built once per EngineConfig: it quantizes (OWQ or GPTQ)
// or bf16-rounds every decoder weight, instantiates the norms and the
// activation quantizers, and records the storage accounting. After
// construction it is strictly read-only: prefill_group() (and
// prefill_chunk() / step(), its one-member cases) is const and touches no
// member state, so any number of threads can run passes against one
// PreparedModel concurrently. All mutability lives outside it: a
// sequence's KV, sampler state and logits rows in its SequenceState, a
// pass's activation rows in the caller's PassScratch.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "llm/kv_block_pool.h"
#include "llm/norm.h"
#include "llm/prefix_cache.h"
#include "llm/synthetic.h"
#include "owq/calibration.h"
#include "owq/gptq.h"
#include "owq/owq.h"
#include "quant/policy.h"

namespace opal {

class SequenceState;

/// Tensors observable per decoder block; Fig 4's x-axis plus the two
/// calibration-only taps.
enum class RecordSite : std::uint8_t {
  kAttnIn,  // post-LN input to Wq/Wk/Wv
  kQuery,   // Q (input of Q.K^T)
  kKey,     // K
  kValue,   // V
  kProjIn,  // attention output z, input to Wo
  kFc1In,   // post-LN input to fc1
  kFc2In,   // FFN hidden after the nonlinearity, input to fc2
};

[[nodiscard]] std::string to_string(RecordSite site);

/// Observer of raw (pre-quantization) activations.
class ActivationRecorder {
 public:
  virtual ~ActivationRecorder() = default;
  virtual void record(std::size_t layer, RecordSite site,
                      std::span<const float> values) = 0;
};

/// Per-layer calibration statistics for OWQ column selection.
struct LayerCalibration {
  CalibrationStats attn_in;
  CalibrationStats proj_in;
  CalibrationStats fc1_in;
  CalibrationStats fc2_in;

  explicit LayerCalibration(std::size_t d_model, std::size_t d_ffn)
      : attn_in(d_model), proj_in(d_model), fc1_in(d_model),
        fc2_in(d_ffn) {}
};

using CalibrationSet = std::vector<LayerCalibration>;

/// Full second-moment matrices per layer, for GPTQ weight quantization.
struct LayerHessians {
  HessianAccumulator attn_in;
  HessianAccumulator proj_in;
  HessianAccumulator fc1_in;
  HessianAccumulator fc2_in;

  LayerHessians(std::size_t d_model, std::size_t d_ffn)
      : attn_in(d_model), proj_in(d_model), fc1_in(d_model),
        fc2_in(d_ffn) {}
};

using HessianSet = std::vector<LayerHessians>;

struct EngineConfig {
  PrecisionPolicy act_policy = policy_bf16();
  std::optional<OwqConfig> weight_quant;  // nullopt: weights stay bf16
  bool log2_softmax = false;
  int softmax_bits = 7;  // attention-map code width for the log2 unit
  std::size_t max_seq_len = 512;
  /// KV-cache entry storage of the serving pools (make_kv_pool); the
  /// batch-of-1 facade's private pool (make_sequence()) always keeps fp32.
  /// kFp32 stores the written bits exactly; kInt8/kLog2 trade a small
  /// perplexity delta for 4x less KV memory (see bench_table1_ppl).
  KvQuantMode kv_mode = KvQuantMode::kFp32;
  /// Positions per KV block (block-granular allocation unit), in
  /// [1, max_seq_len]; PreparedModel refuses any other value.
  std::size_t kv_block_size = 16;

  /// Scheme label in the paper's notation, e.g. "W4A4/7 (MX-OPAL)".
  [[nodiscard]] std::string label() const;
};

/// A member's default `logit_rows`: logits for every row.
inline constexpr std::size_t kAllLogitRows = static_cast<std::size_t>(-1);

/// One member of a group pass (PreparedModel::prefill_group): the sequence,
/// the known tokens it feeds at its current position, and how many of its
/// trailing rows get logits (a value above feed.size() means all).
struct PassMember {
  SequenceState* seq = nullptr;
  std::span<const std::size_t> feed;
  std::size_t logit_rows = kAllLogitRows;
};

/// The activation rows of one model pass, row-major with one row per fed
/// token of every member (residuals, layer scratch, the logits rows before
/// they are copied out to their sequences), plus one attend's scores.
/// Grow-only: a pass that fits the high-water mark allocates nothing.
/// Whoever runs passes owns one and never shares it between two passes
/// running at once: the serving engine holds one per group and sizes them
/// before its parallel phase; the facade and ModelDrafter hold one each.
/// Built by PreparedModel::make_scratch().
class PassScratch {
 public:
  /// Grows every buffer to hold a pass of `rows` rows, `logit_rows` of
  /// which get logits. The only place the buffers grow.
  void reserve(std::size_t rows, std::size_t logit_rows);

 private:
  friend class PreparedModel;
  PassScratch(const ModelConfig& config, std::size_t max_seq_len);

  std::size_t d_model_ = 0;
  std::size_t d_ffn_ = 0;
  std::size_t vocab_ = 0;
  std::vector<float> x_;                   // [rows x d_model] residuals
  std::vector<float> h_, q_, k_, v_, z_;   // [rows x d_model]
  std::vector<float> attn_out_, ffn_out_;  // [rows x d_model]
  std::vector<float> hidden_;              // [rows x d_ffn]
  std::vector<float> head_in_;             // [logit rows x d_model]
  std::vector<float> logits_;              // [logit rows x vocab]
  std::vector<float> scores_, probs_;      // max_seq_len, one attend
};

class PreparedModel {
 public:
  /// `calibration`, when given, drives OWQ's FP-column selection; otherwise
  /// weight energy is used. The prepared model keeps a reference to `model`.
  PreparedModel(const SyntheticModel& model, EngineConfig config,
                const CalibrationSet* calibration = nullptr);

  /// GPTQ variant: weights are quantized with full OPTQ error compensation
  /// against the per-layer Hessians (requires config.weight_quant).
  PreparedModel(const SyntheticModel& model, EngineConfig config,
                const HessianSet& hessians);

  /// The one model pass, over a group of members (distinct sequences, each
  /// at its own position): per layer, every row of every member is normed,
  /// then quantized in one quantizer call for all rows (as are Q, K, V, the
  /// attention output and the FFN hidden: seven calls per layer, each row
  /// its own tensor), then Wq, Wk and Wv each run ONE multi-row matvec over
  /// all the group's rows; each member's tokens write their K/V and attend
  /// in that member's row order; then one Wo call, one fc1 call and one
  /// fc2 call cover all rows. Last, one embedding matvec computes every
  /// member's logits rows (final norm, the tied head, then the logit
  /// scale), which are copied into the members' sequences. So each weight
  /// matrix runs one matvec call per group, not one per row or per member.
  ///
  /// Bits: every row's own arithmetic (and, in quantized kv_modes, every
  /// block-scale update and read-back) happens in the order a loop of
  /// one-row passes over that member would produce, an n-row matvec is
  /// bitwise n one-row calls, and no op reads across members. So each
  /// member's results — its cache contents and every computed logits row —
  /// are bitwise identical to a prefill_chunk() of that member alone, and
  /// to feed.size() step() calls, in every kv_mode.
  ///
  /// Member m's position i logits are at m.seq->chunk_logits_row(i) for i
  /// in [n - logit_rows, n); the other rows' logits are never computed.
  /// Every member's blocks are acquired up front, all-or-nothing across the
  /// group (KvPoolExhausted on a dry pool, with no member advanced), unless
  /// SequenceState::reserve_for() pre-acquired them. `scratch` grows to the
  /// group's rows unless reserve() already sized it. `recorder`, when
  /// given, observes activations layer-major, each site's rows in member
  /// then row order. Const and thread-safe: concurrent calls are fine as
  /// long as no sequence or scratch is in two calls at once.
  void prefill_group(std::span<const PassMember> members,
                     PassScratch& scratch,
                     ActivationRecorder* recorder = nullptr) const;

  /// The one-member group: feeds `tokens` — the next known tokens at
  /// `seq`'s current position — with logits for the trailing `logit_rows`
  /// rows. Returns the final row (seq.logits(), empty when logit_rows is
  /// 0), so a sampler extending the sequence (llm/sampler.h) reads the same
  /// handoff whether the frontier was reached by single steps or a chunk.
  std::span<const float> prefill_chunk(
      SequenceState& seq, std::span<const std::size_t> tokens,
      PassScratch& scratch, ActivationRecorder* recorder = nullptr,
      std::size_t logit_rows = kAllLogitRows) const;

  /// One decode step for `seq`: exactly prefill_chunk(seq, {token}), a
  /// one-row chunk. Returns logits over the vocabulary (seq.logits(), the
  /// chunk's only row), valid until the next pass with the same state.
  std::span<const float> step(SequenceState& seq, std::size_t token,
                              PassScratch& scratch,
                              ActivationRecorder* recorder = nullptr) const;

  /// Pass scratch sized for this model and one-row passes; reserve() grows
  /// it for wider ones.
  [[nodiscard]] PassScratch make_scratch() const;

  /// Fresh per-sequence state sized for this model, owning a private fp32
  /// pool of kv_blocks_per_sequence() blocks (one sequence at
  /// config().max_seq_len) — the batch-of-1 facade.
  [[nodiscard]] SequenceState make_sequence() const;

  /// Shared-pool variant: the sequence allocates KV blocks from `pool` on
  /// demand, quantized per the pool's mode.
  [[nodiscard]] SequenceState make_sequence(KvBlockPool& pool) const;

  /// A pool whose blocks match this model (kv_block_size positions x
  /// d_model, config().kv_mode), sized to hold `n_full_sequences` sequences
  /// at full max_seq_len. Serving layers can carve smaller pools by scaling
  /// the block count down.
  [[nodiscard]] KvBlockPool make_kv_pool(double n_full_sequences) const;

  /// A prefix cache indexing full KV block columns of `pool` (which must
  /// match this model's KV layout) by their token-id prefix; admission maps
  /// hits with SequenceState::adopt_prefix so prefill skips the cached
  /// positions.
  [[nodiscard]] PrefixCache make_prefix_cache(KvBlockPool& pool) const;

  /// Pool blocks one sequence at full max_seq_len occupies.
  [[nodiscard]] std::size_t kv_blocks_per_sequence() const;

  [[nodiscard]] const ModelConfig& model_config() const {
    return model_->config();
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Fraction of weight values kept in bf16 (0 when weights are unquantized).
  [[nodiscard]] double fp_weight_fraction() const;
  /// Total packed weight storage in bits under the active weight format.
  [[nodiscard]] std::size_t weight_storage_bits() const;

 private:
  struct PreparedLayer {
    Matrix wq, wk, wv, wo, w_fc1, w_fc2;  // dequantized compute weights
    std::unique_ptr<Norm> attn_norm;
    std::unique_ptr<Norm> ffn_norm;
    std::size_t fp_weight_values = 0;
    std::size_t total_weight_values = 0;
    std::size_t storage_bits = 0;
  };

  void finish_construction();
  /// Quantizes every layer's six weight matrices: GPTQ when `hessians` is
  /// given, else OWQ (calibrated when `calibration` is given) or, without
  /// EngineConfig::weight_quant, bf16 rounding.
  void prepare_layers(const CalibrationSet* calibration,
                      const HessianSet* hessians);
  void attend(std::size_t l, SequenceState& seq, std::span<const float> q,
              std::span<float> z, std::size_t len,
              PassScratch& scratch) const;
  /// Every member's logits rows, `count` in all: final norm into the
  /// head's input rows, one multi-row embedding matvec, the scale, then
  /// each member's rows copied into its sequence.
  void finish_logits(std::span<const PassMember> members, std::size_t count,
                     PassScratch& scratch) const;
  /// The site's activation quantizer over `rows` (in place, each row of
  /// `width` its own tensor); BF16 activations pass through.
  void maybe_quantize(ActivationSite site, std::span<float> rows,
                      std::size_t width) const;

  const SyntheticModel* model_;
  EngineConfig config_;
  std::vector<PreparedLayer> layers_;
  std::unique_ptr<Norm> final_norm_;
  QuantizerPtr quant_post_ln_;
  QuantizerPtr quant_attn_in_;
  QuantizerPtr quant_general_;
};

}  // namespace opal
