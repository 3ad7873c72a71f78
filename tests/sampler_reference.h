// Shared test helper: the kTopP candidate order and the Sampler::sample
// pipeline as they stood before the radix candidate order — a comparator
// std::partial_sort over size_t indices, probability descending, index
// ascending among exact ties. candidate_order() and Sampler::sample() are
// pinned against these bodies, which are the old ones verbatim.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "llm/sampler.h"
#include "softmax/softmax.h"

namespace opal::sampler_reference {

/// The first min(top_k, n) entries (top_k 0 = all) of the old order.
inline std::vector<std::size_t> candidate_order(std::span<const float> probs,
                                                std::size_t top_k) {
  const std::size_t n = probs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  const std::size_t k = top_k == 0 ? n : std::min(top_k, n);
  const auto by_prob_desc = [&probs](std::size_t a, std::size_t b) {
    if (probs[a] != probs[b]) return probs[a] > probs[b];
    return a < b;
  };
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), by_prob_desc);
  order.resize(k);
  return order;
}

/// The old Sampler::sample for validated `params`, hooks included.
inline std::size_t sample(const SamplingParams& params, int log2_bits,
                          std::span<const float> logits,
                          std::span<const std::size_t> context,
                          SamplerState& state) {
  const auto argmax = [](std::span<const float> v) {
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
  };
  std::vector<float> scratch(logits.begin(), logits.end());
  for (const auto& [token, bias] : params.logit_bias) {
    if (token < scratch.size()) scratch[token] += bias;
  }
  if (params.repetition_penalty != 1.0f) {
    std::vector<std::uint8_t> seen(scratch.size(), 0);
    for (const std::size_t token : context) {
      if (token >= scratch.size() || seen[token] != 0) continue;
      seen[token] = 1;
      float& l = scratch[token];
      l = l > 0.0f ? l / params.repetition_penalty
                   : l * params.repetition_penalty;
    }
  }
  if (params.policy == SamplePolicy::kGreedy) return argmax(scratch);

  const std::size_t n = logits.size();
  const double u = state.rng.next_unit();
  const float t = params.temperature;
  if (t == 0.0f) return argmax(scratch);
  if (t != 1.0f) {
    for (auto& v : scratch) v /= t;
  }
  std::vector<float> probs(n);
  if (log2_bits > 0) {
    log2_softmax_weights(scratch, Log2SoftmaxConfig{log2_bits}, probs);
  } else {
    softmax_reference(scratch, probs);
  }
  const std::vector<std::size_t> order = candidate_order(probs, params.top_k);
  const std::size_t k = order.size();

  double mass_k = 0.0;
  for (std::size_t i = 0; i < k; ++i) mass_k += probs[order[i]];
  std::size_t m = k;
  if (params.top_p < 1.0f) {
    const double threshold = static_cast<double>(params.top_p) * mass_k;
    double cum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      cum += probs[order[i]];
      if (cum >= threshold) {
        m = i + 1;
        break;
      }
    }
  }
  double mass_m = 0.0;
  for (std::size_t i = 0; i < m; ++i) mass_m += probs[order[i]];
  if (mass_m <= 0.0) return order[0];
  const double point = u * mass_m;
  double cum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    cum += probs[order[i]];
    if (point < cum) return order[i];
  }
  return order[m - 1];
}

}  // namespace opal::sampler_reference
