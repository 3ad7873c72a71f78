// Teacher-student perplexity proxy (DESIGN.md §2).
//
// The BF16 engine is the "trained model"; a token stream sampled from it is
// the "corpus". Every quantized configuration is scored by teacher-forced
// cross-entropy on that stream, and PPL = exp(mean CE). The BF16 engine's
// own PPL is the baseline row of Table 1; quantization noise perturbs
// logits and raises PPL exactly as it does on WikiText-2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "llm/engine.h"

namespace opal {

/// Samples an `n_tokens`-long stream from the engine's own distribution
/// (temperature 1), starting from token 0.
[[nodiscard]] std::vector<std::size_t> generate_stream(InferenceEngine& engine,
                                                       std::size_t n_tokens,
                                                       std::uint64_t seed);

/// Teacher-forced perplexity of `engine` on `tokens`. Resets the engine
/// first; requires tokens.size() <= engine max_seq_len.
[[nodiscard]] double evaluate_perplexity(InferenceEngine& engine,
                                         std::span<const std::size_t> tokens);

/// Teacher-forced perplexity of every stream in one continuously-batched
/// ServingEngine pass over a shared PreparedModel (all streams decode
/// concurrently; n_threads > 0 additionally fans the per-step decodes
/// across a thread pool). Bitwise identical to calling evaluate_perplexity
/// per stream with an engine built from the same configuration.
[[nodiscard]] std::vector<double> evaluate_perplexity_batched(
    const PreparedModel& model,
    const std::vector<std::vector<std::size_t>>& streams,
    std::size_t n_threads = 0);

/// log-softmax helper shared by the scorers.
void log_softmax(std::span<const float> logits, std::span<double> out);

}  // namespace opal
