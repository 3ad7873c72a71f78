// Common interface of the activation quantizers compared in the paper.
//
// Accuracy experiments only need fake quantization (quantize-dequantize in
// one step); the accelerator simulator additionally needs the true encoded
// form, which MXINT/MX-OPAL expose via encode()/decode() in their own
// headers.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/tensor.h"

namespace opal {

class Quantizer {
 public:
  virtual ~Quantizer() = default;

  /// Human-readable scheme name ("MinMax", "MXINT4", "MX-OPAL4", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Applies quantize-then-dequantize elementwise; in/out may alias.
  ///
  /// Contract: implementations must be const in the strong sense — no
  /// mutable members, no lazily-initialized caches, no shared scratch.
  /// PreparedModel shares one quantizer instance across every concurrently
  /// decoding sequence, so quantize_dequantize must be safe to call from
  /// multiple threads at once (all in-tree implementations are pure
  /// functions of (in, format)).
  virtual void quantize_dequantize(std::span<const float> in,
                                   std::span<float> out) const = 0;

  /// quantize_dequantize on each of the in.size() / width rows of `in`
  /// (row-major), every row its own tensor; in/out may alias. Bitwise one
  /// quantize_dequantize call per row, which is the default; MXINT and
  /// MX-OPAL override it with one multi-row kernel call. Same const
  /// contract as quantize_dequantize.
  virtual void quantize_dequantize_rows(std::span<const float> in,
                                        std::span<float> out,
                                        std::size_t width) const {
    require(in.size() == out.size() && width > 0 && in.size() % width == 0,
            "Quantizer::quantize_dequantize_rows: not whole rows");
    for (std::size_t off = 0; off < in.size(); off += width) {
      quantize_dequantize(in.subspan(off, width), out.subspan(off, width));
    }
  }

  /// Exact storage footprint in bits for `count` elements in this format.
  [[nodiscard]] virtual std::size_t storage_bits(std::size_t count) const = 0;
};

using QuantizerPtr = std::unique_ptr<Quantizer>;

}  // namespace opal
