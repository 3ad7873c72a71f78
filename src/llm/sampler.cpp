#include "llm/sampler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/float_bits.h"
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

/// candidate_order's radix key: ascending keys are descending
/// probabilities. Masking the sign bit ranks -0 with +0.
std::uint32_t rank_key(float p) { return ~(f32_bits(p) & 0x7FFFFFFFu); }

}  // namespace

std::string to_string(SamplePolicy policy) {
  switch (policy) {
    case SamplePolicy::kGreedy:
      return "greedy";
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

std::span<const std::uint32_t> candidate_order(std::span<const float> probs,
                                               std::span<std::uint32_t> a,
                                               std::span<std::uint32_t> b) {
  const std::size_t n = probs.size();
  require(a.size() >= n && b.size() >= n,
          "candidate_order: scratch shorter than probs");
  require(n <= std::numeric_limits<std::uint32_t>::max(),
          "candidate_order: more than 2^32 - 1 candidates");
  // Every digit's histogram in one pass: the counts do not depend on the
  // order the keys are visited in.
  std::array<std::array<std::uint32_t, 256>, 4> count{};
  for (const float p : probs) {
    const std::uint32_t key = rank_key(p);
    for (std::size_t d = 0; d < 4; ++d) ++count[d][(key >> (8 * d)) & 0xFF];
  }
  std::span<std::uint32_t> src = a.first(n), dst = b.first(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<std::uint32_t>(i);
  // Least significant digit first; each pass is stable, so the identity
  // start leaves exact ties in index order.
  for (std::size_t d = 0; d < 4 && n > 0; ++d) {
    const std::size_t shift = 8 * d;
    const auto& hist = count[d];
    if (hist[(rank_key(probs[0]) >> shift) & 0xFF] == n) continue;
    std::array<std::uint32_t, 256> next{};
    std::uint32_t start = 0;
    for (std::size_t v = 0; v < 256; ++v) {
      next[v] = start;
      start += hist[v];
    }
    for (const std::uint32_t i : src) {
      dst[next[(rank_key(probs[i]) >> shift) & 0xFF]++] = i;
    }
    std::swap(src, dst);
  }
  return src;
}

Sampler::Sampler(SamplingParams params, int log2_bits)
    : params_(std::move(params)), log2_bits_(log2_bits) {
  // Checked for both policies, so a bad request is refused where it is
  // built rather than failing every later sample().
  require(params_.temperature >= 0.0f,
          "SamplingParams: temperature must be >= 0");
  require(params_.top_p >= 0.0f && params_.top_p <= 1.0f,
          "SamplingParams: top_p must be in [0, 1]");
  require(params_.repetition_penalty > 0.0f,
          "SamplingParams: repetition_penalty must be > 0");
  require(log2_bits_ >= 0 && log2_bits_ <= 8,
          "Sampler: log2_bits must be in [0, 8]");
}

void Sampler::reserve(std::size_t vocab) {
  const bool top_p = params_.policy == SamplePolicy::kTopP;
  if (top_p || hooks_active(params_)) scratch_.reserve(vocab);
  if (params_.repetition_penalty != 1.0f) seen_.reserve(vocab);
  if (top_p) {
    probs_.reserve(vocab);
    order_.reserve(vocab);
    spare_.reserve(vocab);
  }
}

std::size_t Sampler::sample(std::span<const float> logits,
                            std::span<const std::size_t> context,
                            SamplerState& state) {
  require(!logits.empty(), "Sampler: empty logits");
  const bool greedy = params_.policy == SamplePolicy::kGreedy;
  if (greedy && !hooks_active(params_)) return argmax(logits);
  scratch_.assign(logits.begin(), logits.end());
  apply_hooks(params_, context, scratch_, seen_);
  if (greedy) return argmax(scratch_);  // greedy consumes no draws

  const std::size_t n = logits.size();

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
  // The top-k set is its first k entries.
  order_.resize(n);
  spare_.resize(n);
  const std::span<const std::uint32_t> order =
      candidate_order(probs_, order_, spare_);
  const std::size_t k =
      params_.top_k == 0 ? n : std::min(params_.top_k, n);

  double mass_k = 0.0;
  for (std::size_t i = 0; i < k; ++i) mass_k += probs_[order[i]];

  // Nucleus: smallest prefix of the top-k set whose renormalized mass
  // reaches top_p (always at least one candidate).
  std::size_t m = k;
  if (params_.top_p < 1.0f) {
    const double threshold = static_cast<double>(params_.top_p) * mass_k;
    double cum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      cum += probs_[order[i]];
      if (cum >= threshold) {
        m = i + 1;
        break;
      }
    }
  }

  double mass_m = 0.0;
  for (std::size_t i = 0; i < m; ++i) mass_m += probs_[order[i]];
  if (mass_m <= 0.0) return order[0];  // fully underflowed: argmax

  // Inverse-CDF over the candidate order.
  const double point = u * mass_m;
  double cum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    cum += probs_[order[i]];
    if (point < cum) return order[i];
  }
  return order[m - 1];  // fp rounding fallback
}

// --- factory / stop conditions ---

std::unique_ptr<Sampler> make_sampler(const SamplingParams& params,
                                      int log2_bits) {
  return std::make_unique<Sampler>(params, log2_bits);
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

std::size_t generation_target(std::size_t prompt_len,
                              std::size_t max_new_tokens) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return max_new_tokens > kMax - prompt_len ? kMax
                                            : prompt_len + max_new_tokens;
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
