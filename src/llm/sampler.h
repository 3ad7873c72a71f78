// Token sampling: the stage that turns one decode step's logits into the
// next token, opening generation workloads beyond greedy scoring.
//
// One concrete Sampler, built from (SamplingParams, log2_bits), runs one of
// two policies:
//
//   * kGreedy — argmax (first index among exact ties, std::max_element
//     order) after the penalty/bias hooks. Takes no draw; with no hooks it
//     reads the raw logits without a copy.
//   * kTopP — the temperature -> top-k -> top-p pipeline: logits are
//     scaled by 1/temperature before the softmax, restricted to the top_k
//     highest-probability tokens (0 = all), then trimmed to the smallest
//     nucleus whose renormalized mass reaches top_p (1 = no trimming). A
//     pure-temperature sampler is kTopP with top_k = 0 and top_p = 1.
//
// Design contract:
//
//   * A Sampler is per request. sample(logits, context, state) reads one
//     row of logits the model just produced — at the frontier, the pass's
//     final row, which SequenceState::logits() returns after step() (a
//     one-row pass) or prefill_chunk(); a verify burst samples each row it
//     commits through chunk_logits_row() — plus the tokens decoded so far
//     (for the repetition-penalty hook), and returns the chosen token.
//     sample() mutates internal scratch, so one Sampler instance must not
//     be shared between concurrently-sampled requests. ServingEngine holds
//     one per request, sizes its scratch with reserve() on the serial
//     plan() path, and samples from the parallel pass that produced the
//     logits, each request on the worker that ran its model pass.
//
//   * Validation happens once, in the constructor: every SamplingParams
//     field either policy could read is checked there, for both policies.
//     sample() then throws only for an empty logits row.
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
//   * Draw discipline: every kTopP sample consumes EXACTLY one uniform
//     draw, even when the outcome is forced (temperature 0, a single
//     candidate after top-k/top-p). kGreedy consumes none.
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
// Candidate order (kTopP): one strict order over every token —
// probability descending, then index ascending among exact ties (-0 ties
// with +0) — built by candidate_order() below for every top_k. The top_k
// restriction is its first k entries, and the nucleus and the inverse-CDF
// walk run over that prefix in that order, so the order, the masses and
// the drawn token are bitwise what a comparator sort in the same order
// gives.
//
// Both policies apply the repetition-penalty and logit-bias hooks first.
// With the FP probability path (log2_bits == 0) the kTopP limits collapse
// to greedy bitwise: temperature -> 0, top_k == 1, and top_p -> 0 each
// select the argmax (first index among exact ties). The log2 path
// quantizes log-probabilities to integer codes, so tokens within half an
// octave of the max tie at the smallest code and the lowest such index
// wins instead.
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

/// Which of the two paths Sampler::sample() runs (see the header comment).
enum class SamplePolicy : std::uint8_t {
  kGreedy,
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
  /// Softmax temperature (kTopP). 0 is the greedy limit: the argmax is
  /// chosen (one draw still consumed — see the draw discipline).
  float temperature = 1.0f;
  /// Keep only the top_k highest-probability tokens; 0 = full vocabulary.
  /// Read by kTopP.
  std::size_t top_k = 0;
  /// Nucleus mass in (0, 1]; the candidate set is the smallest prefix of
  /// the (top-k-restricted, renormalized) distribution reaching top_p —
  /// never empty; 1 = no trimming. Read by kTopP.
  float top_p = 1.0f;
  /// Seed of the request's CounterRng stream. Identical (seed, params,
  /// prompt) reproduce the identical token stream under any scheduler.
  std::uint64_t seed = 0;
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
  /// Throws std::invalid_argument, for either policy, for temperature < 0,
  /// top_p outside [0, 1], repetition_penalty <= 0, or log2_bits outside
  /// [0, 8] (NaN fails every check). `log2_bits` > 0 routes kTopP's
  /// probability transform through the log2 softmax unit (see the header
  /// comment); 0 uses softmax_reference.
  explicit Sampler(SamplingParams params = {}, int log2_bits = 0);

  /// Sizes the scratch sample() needs for a `vocab`-entry logits row, so
  /// that such a sample() allocates nothing. Optional: sample() grows what
  /// is still missing.
  void reserve(std::size_t vocab);

  /// Chooses the next token from `logits`. `context` is every token of the
  /// request so far (prompt + generated) — the repetition-penalty window.
  /// Advances `state` per the draw discipline in the header comment. Not
  /// const: it reuses internal scratch across calls. Throws only for empty
  /// `logits` (or a row past candidate_order's 2^32 - 1 entries).
  std::size_t sample(std::span<const float> logits,
                     std::span<const std::size_t> context,
                     SamplerState& state);

  [[nodiscard]] const SamplingParams& params() const { return params_; }

 private:
  SamplingParams params_;
  int log2_bits_;
  std::vector<float> scratch_, probs_;
  std::vector<std::uint8_t> seen_;  // repetition-penalty scratch
  std::vector<std::uint32_t> order_, spare_;  // candidate_order buffers
};

/// The kTopP candidate order over `probs` (each >= 0, not NaN): token
/// indices by probability descending, then index ascending among exact
/// ties, -0 tying with +0. A stable LSD radix sort on the key
/// ~(f32_bits(p) & 0x7FFFFFFF) in 8-bit digits, skipping a digit every key
/// shares: log2 unit weights 2^-code have zero mantissas, so they take two
/// passes. `a` and `b` are scratch of at least probs.size() entries; the
/// returned order (probs.size() entries) lives in one of them. Throws
/// std::invalid_argument for short scratch or more than 2^32 - 1 probs.
[[nodiscard]] std::span<const std::uint32_t> candidate_order(
    std::span<const float> probs, std::span<std::uint32_t> a,
    std::span<std::uint32_t> b);

/// Builds the Sampler for `params`. `log2_bits` — pass the engine's
/// log2-softmax code width (EngineConfig::softmax_bits when log2_softmax is
/// on, else 0) so sampling uses the same probability datapath as attention.
[[nodiscard]] std::unique_ptr<Sampler> make_sampler(
    const SamplingParams& params, int log2_bits = 0);

/// Normalized log-probability of `token` under softmax(logits):
/// logits[token] - logsumexp(logits), computed max-subtracted so it is
/// finite for any finite logits. This is the OpenAI-`logprobs`-shaped
/// per-token value ServingEngine's token-logprob observer reports; it is a
/// pure function of the raw logits (the fp32 reference transform,
/// independent of the request's sampler pipeline and of the log2 softmax
/// unit).
[[nodiscard]] float token_logprob(std::span<const float> logits,
                                  std::size_t token);

/// The token count at which a request with `prompt_len` prompt tokens has
/// generated its `max_new_tokens`: their sum, saturated at SIZE_MAX, so
/// SIZE_MAX ("until a stop or the KV limit") never wraps below the prompt.
[[nodiscard]] std::size_t generation_target(std::size_t prompt_len,
                                            std::size_t max_new_tokens);

/// Stop-condition check for the token just appended at tokens.back().
/// Returns the reason generation must stop, or kNone to continue. Priority:
/// eos > stop token > stop sequence > max_new_tokens (target_len =
/// generation_target(prompt_len, the request's max_new_tokens)).
[[nodiscard]] FinishReason check_stop(const SamplingParams& params,
                                      std::span<const std::size_t> tokens,
                                      std::size_t prompt_len,
                                      std::size_t target_len);

}  // namespace opal
