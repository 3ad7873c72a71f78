#include "quant/policy.h"

#include "quant/minmax.h"
#include "quant/mx_opal.h"
#include "quant/mxint.h"

namespace opal {

std::string to_string(QuantScheme scheme) {
  switch (scheme) {
    case QuantScheme::kNone:
      return "BF16";
    case QuantScheme::kMinMax:
      return "MinMax";
    case QuantScheme::kMxInt:
      return "MXINT";
    case QuantScheme::kMxOpal:
      return "MX-OPAL";
  }
  return "?";
}

std::string PrecisionPolicy::label() const {
  if (scheme == QuantScheme::kNone) return "A16";
  std::string out = "A";
  if (low_bits != high_bits) {
    out += std::to_string(low_bits);
    out += "/";
  }
  out += std::to_string(high_bits);
  return out;
}

QuantizerPtr PrecisionPolicy::make_quantizer(ActivationSite site) const {
  const int bits = bits_for(site);
  switch (scheme) {
    case QuantScheme::kNone:
      return nullptr;
    case QuantScheme::kMinMax:
      return std::make_unique<MinMaxQuantizer>(block_size, bits);
    case QuantScheme::kMxInt:
      return std::make_unique<MxIntQuantizer>(block_size, bits);
    case QuantScheme::kMxOpal:
      return std::make_unique<MxOpalQuantizer>(block_size, bits, outliers);
  }
  return nullptr;
}

PrecisionPolicy policy_bf16() {
  return {QuantScheme::kNone, 16, 16, 128, 0};
}

}  // namespace opal
