// Shared test helper: the closed-form MAC count of one decoded token. The
// accelerator workload (accel/workload.h step_ops) and the device model
// (accel/device.h simulate_token) build their op lists layer by layer; their
// MAC totals must equal this formula.
#pragma once

#include <cstddef>

#include "llm/model_config.h"

namespace opal::model_reference {

/// MACs to generate one token of `model` at KV-cache length `seq_len`: the
/// four d x d projections and the two FFN matrices per layer, Q.K^T and
/// Attn.V over the cached sequence (all heads), and the tied LM head.
inline std::size_t macs_per_token(const ModelConfig& model,
                                  std::size_t seq_len) {
  const std::size_t proj = 4 * model.d_model * model.d_model;
  const std::size_t ffn = 2 * model.d_ffn * model.d_model;
  const std::size_t attn = 2 * seq_len * model.d_model;
  return model.n_layers * (proj + ffn + attn) + model.vocab * model.d_model;
}

}  // namespace opal::model_reference
