// Immutable prepared model — the shareable half of the old InferenceEngine.
//
// A PreparedModel is built once per EngineConfig: it quantizes (OWQ or GPTQ)
// or bf16-rounds every decoder weight, instantiates the norms and the
// activation quantizers, and records the storage accounting. After
// construction it is strictly read-only: prefill_chunk() (and step(), its
// one-row case) is const and touches no member state, so any number of
// sequences (threads) can decode against one PreparedModel concurrently.
// All per-sequence mutability lives in SequenceState.
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
  /// Positions per KV block (block-granular allocation unit).
  std::size_t kv_block_size = 16;

  /// Scheme label in the paper's notation, e.g. "W4A4/7 (MX-OPAL)".
  [[nodiscard]] std::string label() const;
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

  /// One decode step for `seq`: exactly prefill_chunk(seq, {token}), a
  /// one-row chunk. Returns logits over the vocabulary (seq.logits(), the
  /// chunk's only row), valid until the next pass with the same state.
  /// Const and thread-safe: concurrent calls are fine as long as each
  /// thread passes a distinct SequenceState.
  std::span<const float> step(SequenceState& seq, std::size_t token,
                              ActivationRecorder* recorder = nullptr) const;

  /// prefill_chunk's default `logit_rows`: logits for every row.
  static constexpr std::size_t kAllLogitRows = static_cast<std::size_t>(-1);

  /// The one model pass: feeds `tokens` — the next known tokens at `seq`'s
  /// current position — processing the chunk layer by layer with one
  /// row-batched layer body: per layer, every row is normed and quantized,
  /// then Wq, Wk and Wv each run ONE multi-row matvec over all the rows,
  /// each token writes its K/V and attends in row order, then one Wo call,
  /// one fc1 call and one fc2 call cover all rows. So each weight matrix is
  /// streamed once per chunk, not once per row. Every row's own arithmetic
  /// (and, in quantized kv_modes, every block-scale update and read-back)
  /// happens in the order a loop of one-row passes would produce, and a
  /// multi-row matvec is bitwise one-row calls, so the results — cache
  /// contents and every computed logits row — are bitwise identical to
  /// tokens.size() step() calls in every kv_mode.
  ///
  /// `logit_rows` is how many trailing rows get logits (final norm, one
  /// multi-row embedding matvec, then the logit scale); a value above
  /// tokens.size() means all rows. Position i's logits are at
  /// seq.chunk_logits_row(i) for i in [n - logit_rows, n); the other rows'
  /// logits are never computed. Returns the final row (seq.logits(), empty
  /// when logit_rows is 0), so a sampler extending the sequence
  /// (llm/sampler.h) reads the same handoff whether the frontier was
  /// reached by single steps or a chunk.
  /// Blocks for the whole chunk are acquired up front (all-or-nothing
  /// KvPoolExhausted on a dry pool, unless reserve_for() pre-acquired
  /// them). `recorder`, when given, observes activations layer-major
  /// (layer 0 for all chunk tokens, then layer 1, ...), each site's rows
  /// in row order. Const and thread-safe like step().
  std::span<const float> prefill_chunk(
      SequenceState& seq, std::span<const std::size_t> tokens,
      ActivationRecorder* recorder = nullptr,
      std::size_t logit_rows = kAllLogitRows) const;

  /// Fresh per-sequence state sized for this model, owning a private fp32
  /// pool of kv_blocks_per_sequence() blocks (one sequence at
  /// config().max_seq_len) plus scratch buffers — the batch-of-1 facade.
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
              std::span<float> z, std::size_t len) const;
  /// Logits of chunk rows [first, first + count) into the chunk logits
  /// buffer: final norm, one multi-row embedding matvec, then the scale.
  void finish_logits(SequenceState& seq, std::size_t first,
                     std::size_t count) const;
  void maybe_quantize(ActivationSite site, std::span<float> v) const;

  const SyntheticModel* model_;
  EngineConfig config_;
  std::vector<PreparedLayer> layers_;
  std::unique_ptr<Norm> final_norm_;
  QuantizerPtr quant_post_ln_;
  QuantizerPtr quant_attn_in_;
  QuantizerPtr quant_general_;
};

}  // namespace opal
