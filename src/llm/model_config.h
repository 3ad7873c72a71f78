// Decoder-only transformer shape tables.
//
// Full-scale presets carry the published Llama2 / OPT dimensions; they drive
// the accelerator workload model (Fig 1, Fig 8, latency) where only shapes
// matter. Accuracy experiments run on scaled-down presets with the same
// aspect ratios and outlier structure, sized to execute in seconds on a CPU;
// `scaled_for_eval` derives one from any full preset.
#pragma once

#include <cstddef>
#include <string>

namespace opal {

enum class NormKind : std::uint8_t { kRmsNorm, kLayerNorm };
enum class ActivationKind : std::uint8_t { kSiLU, kReLU, kGeLU };

struct ModelConfig {
  std::string name;
  std::size_t n_layers = 0;
  std::size_t d_model = 0;
  std::size_t n_heads = 0;
  std::size_t d_ffn = 0;
  std::size_t vocab = 0;
  NormKind norm = NormKind::kRmsNorm;
  ActivationKind activation = ActivationKind::kSiLU;

  [[nodiscard]] std::size_t d_head() const { return d_model / n_heads; }

  /// Total parameter count of the decoder stack + tied embedding (no biases;
  /// our synthetic models are bias-free).
  [[nodiscard]] std::size_t param_count() const;
};

/// Published shapes.
[[nodiscard]] ModelConfig llama2_7b();
[[nodiscard]] ModelConfig llama2_13b();
[[nodiscard]] ModelConfig llama2_70b();
[[nodiscard]] ModelConfig opt_6_7b();
[[nodiscard]] ModelConfig opt_13b();

/// Scales a full preset down to `d_model_target` while preserving the
/// head size ratio, FFN expansion ratio, and norm/activation kind; layer
/// count is capped at `max_layers`. The scaled model keeps the original
/// name plus a "-eval" suffix.
[[nodiscard]] ModelConfig scaled_for_eval(const ModelConfig& full,
                                          std::size_t d_model_target,
                                          std::size_t max_layers,
                                          std::size_t vocab = 512);

}  // namespace opal
