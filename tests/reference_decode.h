// Shared test helper: the single-sequence greedy reference decode that the
// batching/prefix-cache equivalence tests compare against. Mirrors
// ServingEngine's feeding rule exactly — feed every known token; once all
// are fed, extend greedily until prompt + max_new tokens exist; the final
// generated token is pure output and is never fed back.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "llm/engine.h"

namespace opal {

struct Decoded {
  std::vector<std::size_t> tokens;
  // logits[p] = logits observed after feeding tokens[p].
  std::vector<std::vector<float>> logits;
};

/// Greedy single-sequence fp32 reference (InferenceEngine): the bitwise
/// baseline for the serving path.
inline Decoded reference_decode(
    const std::shared_ptr<const PreparedModel>& model,
    std::vector<std::size_t> prompt, std::size_t max_new) {
  InferenceEngine engine(model);
  Decoded out;
  out.tokens = std::move(prompt);
  const std::size_t target = out.tokens.size() + max_new;
  std::size_t fed = 0;
  while (fed < out.tokens.size()) {
    const auto logits = engine.step(out.tokens[fed]);
    out.logits.emplace_back(logits.begin(), logits.end());
    ++fed;
    if (fed == out.tokens.size() && out.tokens.size() < target) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < logits.size(); ++i) {
        if (logits[i] > logits[best]) best = i;
      }
      out.tokens.push_back(best);
      if (out.tokens.size() == target) break;
    }
  }
  return out;
}

}  // namespace opal
