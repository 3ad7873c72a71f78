// Single-sequence facade over PreparedModel + SequenceState.
//
// InferenceEngine is the batch-of-1 convenience view the eval harness,
// calibration loops, benches, and examples use: it bundles one immutable
// PreparedModel (built at construction, or shared via the shared_ptr
// constructor) with one SequenceState and the PassScratch its passes run
// on, and forwards step()/prefill()/reset().
// Batched serving lives in llm/serving_engine.h; the Fig 5 compute flow
// itself lives in llm/prepared_model.cpp.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "llm/prepared_model.h"
#include "llm/sampler.h"
#include "llm/sequence_state.h"

namespace opal {

/// What InferenceEngine::generate produced and why it stopped. kNone means
/// the KV cache ran out before any stop condition fired.
struct GenerationResult {
  /// Prompt followed by generated tokens.
  std::vector<std::size_t> tokens;
  std::size_t prompt_len = 0;
  FinishReason finish_reason = FinishReason::kNone;
};

class InferenceEngine {
 public:
  /// `calibration`, when given, drives OWQ's FP-column selection; otherwise
  /// weight energy is used. The engine keeps a reference to `model`.
  InferenceEngine(const SyntheticModel& model, EngineConfig config,
                  const CalibrationSet* calibration = nullptr);

  /// GPTQ variant: weights are quantized with full OPTQ error compensation
  /// against the per-layer Hessians (requires config.weight_quant).
  InferenceEngine(const SyntheticModel& model, EngineConfig config,
                  const HessianSet& hessians);

  /// Batch-of-1 view over an existing prepared model; weight preparation is
  /// NOT repeated, so facades over a shared model are cheap to create.
  explicit InferenceEngine(std::shared_ptr<const PreparedModel> prepared);

  /// Runs one decode step; returns logits over the vocabulary. The returned
  /// span is valid until the next step() call.
  std::span<const float> step(std::size_t token);

  /// Feeds a prompt token by token; returns the logits after the last
  /// token (single-batch prefill).
  std::span<const float> prefill(std::span<const std::size_t> tokens);

  /// Generates a continuation through the same Sampler path ServingEngine
  /// uses (see sampler.h): resets the sequence, feeds the prompt, then
  /// extends by up to max_new_tokens tokens, honoring params' policy,
  /// per-request seed, penalty/bias hooks, and stop conditions (which may
  /// end it sooner). Default params reproduce the historical greedy loop
  /// bitwise — and, because sampling is scheduling-invariant, the same
  /// (seed, params, prompt) here matches a ServingEngine run exactly.
  GenerationResult generate(std::span<const std::size_t> prompt,
                            std::size_t max_new_tokens,
                            const SamplingParams& params = {});

  void reset();
  [[nodiscard]] const ModelConfig& model_config() const {
    return prepared_->model_config();
  }
  [[nodiscard]] const EngineConfig& engine_config() const {
    return prepared_->config();
  }
  [[nodiscard]] std::size_t position() const { return state_.position(); }

  void set_recorder(ActivationRecorder* recorder) { recorder_ = recorder; }

  /// Fraction of weight values kept in bf16 (0 when weights are unquantized).
  [[nodiscard]] double fp_weight_fraction() const {
    return prepared_->fp_weight_fraction();
  }
  /// Total packed weight storage in bits under the active weight format.
  [[nodiscard]] std::size_t weight_storage_bits() const {
    return prepared_->weight_storage_bits();
  }

  /// The immutable model half, shareable with other facades and with
  /// ServingEngine.
  [[nodiscard]] const std::shared_ptr<const PreparedModel>& prepared() const {
    return prepared_;
  }

 private:
  std::shared_ptr<const PreparedModel> prepared_;
  SequenceState state_;
  PassScratch scratch_;
  ActivationRecorder* recorder_ = nullptr;
};

/// Runs a BF16 engine over `n_tokens` self-generated tokens and accumulates
/// the four calibration taps per layer.
[[nodiscard]] CalibrationSet calibrate_model(const SyntheticModel& model,
                                             std::size_t n_tokens,
                                             std::uint64_t seed);

/// Like calibrate_model, but accumulates the full per-layer Hessians GPTQ
/// needs (O(d^2) per token per site — intended for eval-scale models).
[[nodiscard]] HessianSet calibrate_model_hessians(const SyntheticModel& model,
                                                  std::size_t n_tokens,
                                                  std::uint64_t seed);

/// Measures the BF16 logit spread over a short run and rescales the model's
/// logit_scale so logits have stddev ~= `target_std` (non-degenerate
/// next-token entropy). Call once after constructing a SyntheticModel.
void calibrate_logit_scale(SyntheticModel& model, std::size_t n_tokens,
                           std::uint64_t seed, float target_std = 2.5f);

}  // namespace opal
