// Deterministic random generation and the synthetic activation/weight
// distributions used in place of trained Llama2/OPT checkpoints.
//
// The published observation that OPAL (and OWQ, LLM.int8(), SmoothQuant)
// builds on is structural: LLM activations have a small set of *persistent*
// input channels whose magnitudes are 1-2 orders of magnitude larger than the
// rest, and the bulk of values is roughly zero-mean and heavy-tailed. The
// ActivationModel below reproduces exactly that structure so every
// quantization experiment exercises the same failure mode the paper targets
// (a few large exponents stealing the shared scale of a microscaling block).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/tensor.h"

namespace opal {

using Rng = std::mt19937_64;

[[nodiscard]] inline Rng make_rng(std::uint64_t seed) { return Rng{seed}; }

/// Counter-based deterministic random stream: draw i is a pure function of
/// (seed, i), produced by a splitmix64-style integer finalizer. Unlike the
/// stateful mt19937_64 above, the whole generator state is two integers —
/// (seed(), counter()) — so a stream can be checkpointed, serialized, and
/// resumed at any point with bitwise-identical continuation. This is what
/// makes per-request sampling replayable: a serving layer that records how
/// many draws a request has consumed can reconstruct the exact stream after
/// preemption, migration, or restart (see llm/sampler.h).
class CounterRng {
 public:
  CounterRng() = default;
  explicit CounterRng(std::uint64_t seed, std::uint64_t counter = 0)
      : seed_(seed), counter_(counter) {}

  /// The value of draw `counter` of stream `seed` (stateless helper).
  [[nodiscard]] static std::uint64_t at(std::uint64_t seed,
                                        std::uint64_t counter);

  /// Next 64 random bits; advances the counter by one.
  std::uint64_t next_u64() { return at(seed_, counter_++); }

  /// Uniform double in [0, 1) with 53 random bits; one counter tick.
  double next_unit() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Draws consumed so far — with seed(), the full serializable state.
  [[nodiscard]] std::uint64_t counter() const { return counter_; }

  friend bool operator==(const CounterRng&, const CounterRng&) = default;

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t counter_ = 0;
};

/// Fills `out` with N(mean, stddev) samples.
void fill_gaussian(Rng& rng, std::span<float> out, float mean = 0.0f,
                   float stddev = 1.0f);

/// Fills `out` with Laplace(0, scale) samples (heavier tails than Gaussian;
/// closer to observed LLM activation bulk).
void fill_laplace(Rng& rng, std::span<float> out, float scale = 1.0f);

/// Persistent outlier-channel structure of a tensor with `dim` channels.
///
/// `channels[i]` is amplified by `magnitudes[i]` every time a vector is
/// sampled, which is what makes activation outliers *predictable* enough for
/// OWQ to pre-select the matching weight columns.
struct OutlierChannelProfile {
  std::vector<std::size_t> channels;
  std::vector<float> magnitudes;
};

/// Chooses `count` distinct outlier channels in [0, dim) with amplification
/// factors log-uniform in [min_mag, max_mag].
[[nodiscard]] OutlierChannelProfile make_outlier_profile(Rng& rng,
                                                         std::size_t dim,
                                                         std::size_t count,
                                                         float min_mag = 8.0f,
                                                         float max_mag = 64.0f);

/// Synthetic activation generator with planted outlier channels.
class ActivationModel {
 public:
  /// `outlier_fraction` of channels become persistent outliers. The default
  /// ~0.5% matches the channel-level outlier rates reported for Llama/OPT.
  ActivationModel(std::uint64_t seed, std::size_t dim,
                  float outlier_fraction = 0.005f, float bulk_scale = 1.0f,
                  float min_mag = 8.0f, float max_mag = 64.0f);

  /// Samples one activation vector: Laplace bulk, amplified outlier channels.
  void sample(std::span<float> out);

  /// Samples `rows` activation vectors into a matrix.
  [[nodiscard]] Matrix sample_matrix(std::size_t rows);

  [[nodiscard]] const OutlierChannelProfile& profile() const {
    return profile_;
  }
  [[nodiscard]] std::size_t dim() const { return dim_; }

 private:
  Rng rng_;
  std::size_t dim_;
  float bulk_scale_;
  OutlierChannelProfile profile_;
};

/// Gaussian weight matrix with `fan_in`-scaled stddev (as in transformer
/// init), with the rows at `amplified_channels` scaled by `row_gain` to model
/// weight outliers (the ~0.3% the paper routes to FP units).
[[nodiscard]] Matrix make_weight_matrix(
    Rng& rng, std::size_t rows, std::size_t cols,
    std::span<const std::size_t> amplified_cols = {}, float col_gain = 4.0f);

}  // namespace opal
