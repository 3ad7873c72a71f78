#include "llm/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/tensor.h"
#include "softmax/softmax.h"

namespace opal {
namespace {

/// Argmax with std::max_element tie-breaking (first index among exact
/// ties) — the bitwise contract every greedy limit reduces to.
std::size_t argmax(std::span<const float> v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

/// Applies the logit-bias and repetition-penalty hooks to `logits` in
/// place. The penalty hits each distinct context token once (CTRL-style:
/// positive logits shrink by /penalty, negative by *penalty); `seen` is
/// caller-owned vocab-sized scratch so the per-token hot path performs no
/// heap allocation after the first call.
void apply_hooks(const SamplingParams& params,
                 std::span<const std::size_t> context,
                 std::span<float> logits, std::vector<std::uint8_t>& seen) {
  for (const auto& [token, bias] : params.logit_bias) {
    if (token < logits.size()) logits[token] += bias;
  }
  if (params.repetition_penalty != 1.0f) {
    require(params.repetition_penalty > 0.0f,
            "SamplingParams: repetition_penalty must be > 0");
    seen.assign(logits.size(), 0);
    for (const std::size_t token : context) {
      if (token >= logits.size() || seen[token] != 0) continue;
      seen[token] = 1;  // penalize each distinct token exactly once
      float& l = logits[token];
      l = l > 0.0f ? l / params.repetition_penalty
                   : l * params.repetition_penalty;
    }
  }
}

bool hooks_active(const SamplingParams& params) {
  return params.repetition_penalty != 1.0f || !params.logit_bias.empty();
}

}  // namespace

std::string to_string(SamplePolicy policy) {
  switch (policy) {
    case SamplePolicy::kGreedy:
      return "greedy";
    case SamplePolicy::kTemperature:
      return "temperature";
    case SamplePolicy::kTopK:
      return "top-k";
    case SamplePolicy::kTopP:
      return "top-p";
  }
  return "?";
}

std::string to_string(FinishReason reason) {
  switch (reason) {
    case FinishReason::kNone:
      return "none";
    case FinishReason::kMaxNewTokens:
      return "max_new_tokens";
    case FinishReason::kEos:
      return "eos";
    case FinishReason::kStopToken:
      return "stop_token";
    case FinishReason::kStopSequence:
      return "stop_sequence";
  }
  return "?";
}

// --- GreedySampler ---

GreedySampler::GreedySampler(SamplingParams params)
    : params_(std::move(params)) {}

std::size_t GreedySampler::sample(std::span<const float> logits,
                                  std::span<const std::size_t> context,
                                  SamplerState& state) {
  (void)state;  // greedy consumes no draws
  require(!logits.empty(), "GreedySampler: empty logits");
  if (!hooks_active(params_)) return argmax(logits);
  scratch_.assign(logits.begin(), logits.end());
  apply_hooks(params_, context, scratch_, seen_);
  return argmax(scratch_);
}

// --- PipelineSampler ---

PipelineSampler::PipelineSampler(SamplingParams params, int log2_bits,
                                 std::size_t top_k, float top_p)
    : params_(std::move(params)),
      log2_bits_(log2_bits),
      top_k_(top_k),
      top_p_(top_p) {
  require(params_.temperature >= 0.0f,
          "SamplingParams: temperature must be >= 0");
  require(top_p_ >= 0.0f && top_p_ <= 1.0f,
          "SamplingParams: top_p must be in [0, 1]");
  require(log2_bits_ >= 0 && log2_bits_ <= 8,
          "Sampler: log2_bits must be in [0, 8]");
}

std::size_t PipelineSampler::sample(std::span<const float> logits,
                                    std::span<const std::size_t> context,
                                    SamplerState& state) {
  require(!logits.empty(), "PipelineSampler: empty logits");
  const std::size_t n = logits.size();
  scratch_.assign(logits.begin(), logits.end());
  apply_hooks(params_, context, scratch_, seen_);

  // Draw discipline: exactly one uniform per sampled token, consumed up
  // front — so the stream position depends only on how many tokens were
  // sampled, never on which branch below decided the outcome.
  const double u = state.rng.next_unit();

  // Temperature 0 is the greedy limit by definition: skip the transform
  // (1/0 scaling) and return the argmax of the hooked logits.
  const float t = params_.temperature;
  if (t == 0.0f) return argmax(scratch_);
  if (t != 1.0f) {
    for (auto& v : scratch_) v /= t;
  }

  // Probability transform — reuse the softmax subsystem, never a private
  // exp/normalize. log2_bits > 0: the paper's log2 unit codes, weights
  // 2^-code (unnormalized; the candidate walk below normalizes by mass).
  probs_.resize(n);
  if (log2_bits_ > 0) {
    log2_softmax_weights(scratch_, Log2SoftmaxConfig{log2_bits_}, probs_);
  } else {
    softmax_reference(scratch_, probs_);
  }

  // Candidate order: probability descending, index ascending among exact
  // ties — so a single-candidate limit picks the same token argmax would.
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  const std::size_t k = top_k_ == 0 ? n : std::min(top_k_, n);
  const auto by_prob_desc = [this](std::size_t a, std::size_t b) {
    if (probs_[a] != probs_[b]) return probs_[a] > probs_[b];
    return a < b;
  };
  std::partial_sort(order_.begin(),
                    order_.begin() + static_cast<std::ptrdiff_t>(k),
                    order_.end(), by_prob_desc);

  double mass_k = 0.0;
  for (std::size_t i = 0; i < k; ++i) mass_k += probs_[order_[i]];

  // Nucleus: smallest prefix of the top-k set whose renormalized mass
  // reaches top_p (always at least one candidate).
  std::size_t m = k;
  if (top_p_ < 1.0f) {
    const double threshold = static_cast<double>(top_p_) * mass_k;
    double cum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      cum += probs_[order_[i]];
      if (cum >= threshold) {
        m = i + 1;
        break;
      }
    }
  }

  double mass_m = 0.0;
  for (std::size_t i = 0; i < m; ++i) mass_m += probs_[order_[i]];
  if (mass_m <= 0.0) return order_[0];  // fully underflowed: argmax

  // Inverse-CDF over the candidate order.
  const double point = u * mass_m;
  double cum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    cum += probs_[order_[i]];
    if (point < cum) return order_[i];
  }
  return order_[m - 1];  // fp rounding fallback
}

// --- factory / stop conditions ---

std::unique_ptr<Sampler> make_sampler(const SamplingParams& params,
                                      int log2_bits) {
  switch (params.policy) {
    case SamplePolicy::kGreedy:
      return std::make_unique<GreedySampler>(params);
    case SamplePolicy::kTemperature:
      return std::make_unique<TemperatureSampler>(params, log2_bits);
    case SamplePolicy::kTopK:
      return std::make_unique<TopKSampler>(params, log2_bits);
    case SamplePolicy::kTopP:
      return std::make_unique<TopPSampler>(params, log2_bits);
  }
  throw std::invalid_argument("make_sampler: unknown policy");
}

std::size_t resolve_max_new(const SamplingParams& params,
                            std::size_t request_max) {
  return params.max_new_tokens != 0 ? params.max_new_tokens : request_max;
}

float token_logprob(std::span<const float> logits, std::size_t token) {
  require(token < logits.size(), "token_logprob: token out of range");
  require(!logits.empty(), "token_logprob: empty logits");
  float max = logits[0];
  for (const float v : logits) max = std::max(max, v);
  // logsumexp with the max subtracted: exp never overflows, and the largest
  // term contributes exactly 1.
  float sum = 0.0f;
  for (const float v : logits) sum += std::exp(v - max);
  return logits[token] - max - std::log(sum);
}

FinishReason check_stop(const SamplingParams& params,
                        std::span<const std::size_t> tokens,
                        std::size_t prompt_len, std::size_t target_len) {
  require(tokens.size() > prompt_len,
          "check_stop: no generated token to check");
  const std::size_t last = tokens.back();
  if (last == params.eos_token) return FinishReason::kEos;
  for (const std::size_t stop : params.stop_tokens) {
    if (last == stop) return FinishReason::kStopToken;
  }
  const std::size_t generated = tokens.size() - prompt_len;
  for (const auto& seq : params.stop_sequences) {
    if (seq.empty() || seq.size() > generated) continue;
    if (std::equal(seq.begin(), seq.end(), tokens.end() - seq.size())) {
      return FinishReason::kStopSequence;
    }
  }
  if (tokens.size() >= target_len) return FinishReason::kMaxNewTokens;
  return FinishReason::kNone;
}

}  // namespace opal
