// Mixed-precision activation policy (Fig 5): activations straight out of a
// LayerNorm have a tight, normalized distribution and tolerate the low
// bit-width (3 or 4 bits); activations elsewhere (attention inputs Q/K/V,
// FFN hidden, attention output) keep the high bit-width (5 or 7 bits).
// The paper's two operating points are A3/5 and A4/7.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "quant/quantizer.h"

namespace opal {

/// Where an activation tensor sits in the decoder block (Fig 5(a)-(d)).
enum class ActivationSite : std::uint8_t {
  kPostLayerNorm,   // input to QKV projections and FC1: low bit-width
  kAttentionInput,  // Q, K rows entering Q*K^T: high bit-width
  kAttentionProb,   // attention map entering Attn*V (log2 domain on OPAL)
  kGeneral,         // FC1 output, attention output, ...: high bit-width
};

/// Which quantization family a run uses.
enum class QuantScheme : std::uint8_t { kNone, kMinMax, kMxInt, kMxOpal };

[[nodiscard]] std::string to_string(QuantScheme scheme);

/// An activation-precision operating point, e.g. A4/7 = {low=4, high=7}.
struct PrecisionPolicy {
  QuantScheme scheme = QuantScheme::kMxOpal;
  int low_bits = 4;
  int high_bits = 7;
  std::size_t block_size = 128;
  std::size_t outliers = 4;  // ignored for MinMax/MXINT

  [[nodiscard]] int bits_for(ActivationSite site) const {
    return site == ActivationSite::kPostLayerNorm ? low_bits : high_bits;
  }

  /// "A4/7", "A3/5", "A7", ...
  [[nodiscard]] std::string label() const;

  /// Builds the quantizer serving `site` under this policy; returns nullptr
  /// for QuantScheme::kNone (BF16 activations).
  [[nodiscard]] QuantizerPtr make_quantizer(ActivationSite site) const;
};

/// BF16 activations (the OWQ / baseline rows).
[[nodiscard]] PrecisionPolicy policy_bf16();

}  // namespace opal
