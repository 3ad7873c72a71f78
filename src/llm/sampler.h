// Pluggable token sampling: the stage that turns one decode step's logits
// into the next token, opening generation workloads beyond greedy scoring.
//
// Design contract (mirrors scheduler.h):
//
//   * A Sampler is a per-request policy object. sample(logits, context,
//     state) reads the logits the model just produced (for a chunked
//     prefill, the chunk-final position's logits — SequenceState::logits()
//     after either step() or prefill_chunk()) plus the tokens decoded so
//     far (for the repetition-penalty hook), and returns the chosen token.
//     sample() mutates internal scratch, so one Sampler instance must not
//     be shared between concurrently-sampled requests; ServingEngine builds
//     one per request and only samples from its serial bookkeeping phase.
//
//   * All randomness flows through the explicit SamplerState argument — a
//     counter-based RNG stream (common/rng CounterRng) whose entire state
//     is (seed, draws-consumed). The CALLER owns this state and carries it
//     with the request: ServingEngine keeps it inside the sequence's
//     SequenceState while KV is held and checkpoints it across a full KV
//     release, so a preempted-and-readmitted request resumes the stream at
//     the exact draw where it left off. Replayed (already-generated) tokens
//     are fed as known tokens and never re-sampled, so replay consumes no
//     draws — which is what makes the emitted continuation bitwise
//     identical regardless of batching, scheduling policy, kv_mode, or
//     preemption (asserted in tests/test_sampler.cpp).
//
//   * Draw discipline: every non-greedy sample consumes EXACTLY one
//     uniform draw, even when the outcome is forced (temperature 0, a
//     single candidate after top-k/top-p). GreedySampler consumes none.
//     SamplerState::rng.counter() therefore equals the number of tokens
//     sampled so far, and restoring a stream is CounterRng(seed, counter).
//
//   * The probability transform reuses softmax/softmax.cpp — there is no
//     second exp/normalize implementation here. When the engine runs the
//     paper's log2 softmax unit (EngineConfig::log2_softmax), pass its code
//     width as `log2_bits` and the sampling distribution is built from the
//     same log2 unit weights (log2_softmax_weights: 2^-code) the attention
//     path uses, so sampling quantizes consistently with the datapath;
//     log2_bits == 0 uses the FP softmax_reference.
//
// The samplers compose as a temperature -> top-k -> top-p pipeline:
// TemperatureSampler scales logits by 1/T before the softmax; TopKSampler
// restricts to the k highest-probability tokens; TopPSampler further trims
// to the smallest nucleus whose renormalized mass reaches top_p. Each later
// stage subsumes the earlier ones (TopPSampler honors temperature, top_k,
// AND top_p), and all of them apply the repetition-penalty and logit-bias
// hooks first. With the FP probability path (log2_bits == 0) the limits
// collapse to greedy bitwise: temperature -> 0, top_k == 1, and top_p -> 0
// each select the argmax (first index among exact ties, matching
// GreedySampler and std::max_element). The log2 path quantizes
// log-probabilities to integer codes, so tokens within half an octave of
// the max tie at the smallest code and the lowest such index wins instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace opal {

/// Which sampler make_sampler() builds; later entries subsume earlier ones'
/// parameters (kTopP honors temperature, top_k, and top_p).
enum class SamplePolicy : std::uint8_t {
  kGreedy,
  kTemperature,
  kTopK,
  kTopP,
};

[[nodiscard]] std::string to_string(SamplePolicy policy);

/// Why a generation stream stopped. kNone: still running, or the request
/// never generated (pure scoring) / was cut off externally (KV eviction).
enum class FinishReason : std::uint8_t {
  kNone,
  kMaxNewTokens,   // generated the full token budget
  kEos,            // sampled SamplingParams::eos_token
  kStopToken,      // sampled a SamplingParams::stop_tokens entry
  kStopSequence,   // generated tail matched a stop_sequences entry
};

[[nodiscard]] std::string to_string(FinishReason reason);

/// Per-request sampling configuration, carried on Request. The defaults are
/// exactly the historical greedy path: argmax, no penalty, no bias, no stop
/// conditions — so a default-constructed SamplingParams keeps every
/// existing output bitwise unchanged.
struct SamplingParams {
  static constexpr std::size_t kNoToken = static_cast<std::size_t>(-1);

  SamplePolicy policy = SamplePolicy::kGreedy;
  /// Softmax temperature (non-greedy policies). 0 is the greedy limit: the
  /// argmax is chosen (one draw still consumed — see the draw discipline).
  float temperature = 1.0f;
  /// Keep only the top_k highest-probability tokens; 0 = full vocabulary.
  /// Read by kTopK and kTopP.
  std::size_t top_k = 0;
  /// Nucleus mass in (0, 1]; the candidate set is the smallest prefix of
  /// the (top-k-restricted, renormalized) distribution reaching top_p —
  /// never empty. Read by kTopP only.
  float top_p = 1.0f;
  /// Seed of the request's CounterRng stream. Identical (seed, params,
  /// prompt) reproduce the identical token stream under any scheduler.
  std::uint64_t seed = 0;
  /// Generation budget; 0 defers to Request::max_new_tokens (nonzero here
  /// overrides it, so SamplingParams alone fully specifies a generation).
  std::size_t max_new_tokens = 0;
  /// End-of-sequence token: sampling it appends it and finishes (kEos).
  std::size_t eos_token = kNoToken;
  /// Sampling any of these appends it and finishes (kStopToken).
  std::vector<std::size_t> stop_tokens;
  /// Generation finishes (kStopSequence) when the token tail equals one of
  /// these; a sequence must fit entirely inside the generated region.
  std::vector<std::vector<std::size_t>> stop_sequences;
  /// CTRL-style repetition penalty (> 1 discourages tokens already in the
  /// context: positive logits are divided by it, negative multiplied).
  /// 1 = off. Applied by every policy, including greedy.
  float repetition_penalty = 1.0f;
  /// Additive per-token logit adjustments, applied before everything else.
  std::vector<std::pair<std::size_t, float>> logit_bias;
};

/// The serializable per-request sampler checkpoint: just the counter-based
/// RNG stream. Owned by the caller (for ServingEngine: carried inside the
/// sequence's SequenceState, checkpointed across full KV release);
/// persisting (rng.seed(), rng.counter()) and restoring with
/// CounterRng(seed, counter) resumes the stream bitwise.
struct SamplerState {
  CounterRng rng;

  friend bool operator==(const SamplerState&, const SamplerState&) = default;
};

class Sampler {
 public:
  virtual ~Sampler() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Chooses the next token from `logits`. `context` is every token of the
  /// request so far (prompt + generated) — the repetition-penalty window.
  /// Advances `state` per the draw discipline in the header comment. Not
  /// const: implementations reuse internal scratch across calls.
  virtual std::size_t sample(std::span<const float> logits,
                             std::span<const std::size_t> context,
                             SamplerState& state) = 0;
};

/// Argmax (first index among exact ties — std::max_element order). Applies
/// the penalty/bias hooks when configured; with default params it reads the
/// raw logits and allocates nothing. Consumes no draws.
class GreedySampler final : public Sampler {
 public:
  explicit GreedySampler(SamplingParams params = {});
  [[nodiscard]] std::string name() const override { return "greedy"; }
  std::size_t sample(std::span<const float> logits,
                     std::span<const std::size_t> context,
                     SamplerState& state) override;

 private:
  SamplingParams params_;
  std::vector<float> scratch_;
  std::vector<std::uint8_t> seen_;  // repetition-penalty scratch
};

/// Shared machinery of the temperature -> top-k -> top-p pipeline; the
/// concrete samplers below choose which stages are live. `log2_bits` > 0
/// routes the probability transform through the log2 softmax unit (see the
/// header comment); 0 uses softmax_reference.
class PipelineSampler : public Sampler {
 public:
  std::size_t sample(std::span<const float> logits,
                     std::span<const std::size_t> context,
                     SamplerState& state) override;

 protected:
  PipelineSampler(SamplingParams params, int log2_bits, std::size_t top_k,
                  float top_p);

 private:
  SamplingParams params_;
  int log2_bits_;
  std::size_t top_k_;  // 0 = full vocabulary
  float top_p_;        // 1 = no nucleus trimming
  std::vector<float> scratch_, probs_;
  std::vector<std::uint8_t> seen_;  // repetition-penalty scratch
  std::vector<std::size_t> order_;
};

/// Temperature-scaled sampling over the full vocabulary.
class TemperatureSampler final : public PipelineSampler {
 public:
  explicit TemperatureSampler(const SamplingParams& params, int log2_bits = 0)
      : PipelineSampler(params, log2_bits, 0, 1.0f) {}
  [[nodiscard]] std::string name() const override { return "temperature"; }
};

/// Temperature + top-k restriction.
class TopKSampler final : public PipelineSampler {
 public:
  explicit TopKSampler(const SamplingParams& params, int log2_bits = 0)
      : PipelineSampler(params, log2_bits, params.top_k, 1.0f) {}
  [[nodiscard]] std::string name() const override { return "top-k"; }
};

/// The full pipeline: temperature + top-k + top-p nucleus.
class TopPSampler final : public PipelineSampler {
 public:
  explicit TopPSampler(const SamplingParams& params, int log2_bits = 0)
      : PipelineSampler(params, log2_bits, params.top_k, params.top_p) {}
  [[nodiscard]] std::string name() const override { return "top-p"; }
};

/// Builds the sampler params.policy names. `log2_bits` — pass the engine's
/// log2-softmax code width (EngineConfig::softmax_bits when log2_softmax is
/// on, else 0) so sampling uses the same probability datapath as attention.
[[nodiscard]] std::unique_ptr<Sampler> make_sampler(
    const SamplingParams& params, int log2_bits = 0);

/// The generation budget `params` implies: params.max_new_tokens when
/// nonzero, else `request_max` (Request::max_new_tokens).
[[nodiscard]] std::size_t resolve_max_new(const SamplingParams& params,
                                          std::size_t request_max);

/// Normalized log-probability of `token` under softmax(logits):
/// logits[token] - logsumexp(logits), computed max-subtracted so it is
/// finite for any finite logits. This is the OpenAI-`logprobs`-shaped
/// per-token value ServingEngine's token-logprob observer reports; it is a
/// pure function of the raw logits (the fp32 reference transform,
/// independent of the request's sampler pipeline and of the log2 softmax
/// unit).
[[nodiscard]] float token_logprob(std::span<const float> logits,
                                  std::size_t token);

/// Stop-condition check for the token just appended at tokens.back().
/// Returns the reason generation must stop, or kNone to continue. Priority:
/// eos > stop token > stop sequence > max_new_tokens (target_len =
/// prompt_len + resolved generation budget).
[[nodiscard]] FinishReason check_stop(const SamplingParams& params,
                                      std::span<const std::size_t> tokens,
                                      std::size_t prompt_len,
                                      std::size_t target_len);

}  // namespace opal
