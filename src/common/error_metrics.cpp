#include "common/error_metrics.h"

#include <cmath>
#include <limits>

#include "common/tensor.h"

namespace opal {

double mse(std::span<const float> ref, std::span<const float> test) {
  require(ref.size() == test.size() && !ref.empty(), "mse: bad spans");
  double acc = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(ref[i]) - test[i];
    acc += d * d;
  }
  return acc / static_cast<double>(ref.size());
}

double sqnr_db(std::span<const float> ref, std::span<const float> test) {
  require(ref.size() == test.size() && !ref.empty(), "sqnr_db: bad spans");
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double s = ref[i];
    const double d = s - static_cast<double>(test[i]);
    signal += s * s;
    noise += d * d;
  }
  if (noise == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(signal / noise);
}

}  // namespace opal
