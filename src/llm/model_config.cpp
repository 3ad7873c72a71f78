#include "llm/model_config.h"

#include <algorithm>

namespace opal {

std::size_t ModelConfig::param_count() const {
  // Attention: Wq, Wk, Wv, Wo each [d_model x d_model].
  const std::size_t attn = 4 * d_model * d_model;
  // FFN: fc1 [d_ffn x d_model], fc2 [d_model x d_ffn].
  const std::size_t ffn = 2 * d_ffn * d_model;
  return n_layers * (attn + ffn) + vocab * d_model;
}

ModelConfig llama2_7b() {
  return {"Llama2-7B", 32, 4096, 32, 11008, 32000, NormKind::kRmsNorm,
          ActivationKind::kSiLU};
}

ModelConfig llama2_13b() {
  return {"Llama2-13B", 40, 5120, 40, 13824, 32000, NormKind::kRmsNorm,
          ActivationKind::kSiLU};
}

ModelConfig llama2_70b() {
  return {"Llama2-70B", 80, 8192, 64, 28672, 32000, NormKind::kRmsNorm,
          ActivationKind::kSiLU};
}

ModelConfig opt_6_7b() {
  return {"OPT-6.7B", 32, 4096, 32, 16384, 50272, NormKind::kLayerNorm,
          ActivationKind::kReLU};
}

ModelConfig opt_13b() {
  return {"OPT-13B", 40, 5120, 40, 20480, 50272, NormKind::kLayerNorm,
          ActivationKind::kReLU};
}

ModelConfig scaled_for_eval(const ModelConfig& full,
                            std::size_t d_model_target,
                            std::size_t max_layers, std::size_t vocab) {
  ModelConfig cfg = full;
  const double ffn_ratio =
      static_cast<double>(full.d_ffn) / static_cast<double>(full.d_model);
  const std::size_t head_dim = std::max<std::size_t>(full.d_head(), 32);

  cfg.name = full.name + "-eval";
  cfg.d_model = d_model_target;
  cfg.n_heads = std::max<std::size_t>(1, d_model_target / head_dim);
  cfg.d_ffn = static_cast<std::size_t>(ffn_ratio *
                                       static_cast<double>(d_model_target));
  // Keep the FFN a multiple of the MX block size when possible.
  cfg.d_ffn = std::max<std::size_t>(128, (cfg.d_ffn / 128) * 128);
  cfg.n_layers = std::min(full.n_layers, max_layers);
  cfg.vocab = vocab;
  return cfg;
}

}  // namespace opal
