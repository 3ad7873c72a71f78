// Error metrics (MSE / SQNR) shared by the quantization-quality
// experiments (Fig 3/4, Tables 1-2) and by tests asserting relative
// quantizer ordering. Serving-side observability (counters, latency
// histograms) lives in common/metrics.h.
#pragma once

#include <span>

namespace opal {

/// Mean squared error between two equally sized spans.
[[nodiscard]] double mse(std::span<const float> ref,
                         std::span<const float> test);

/// Signal-to-quantization-noise ratio in dB; +inf when test == ref exactly.
[[nodiscard]] double sqnr_db(std::span<const float> ref,
                             std::span<const float> test);

}  // namespace opal
