#include "owq/calibration.h"

#include "common/tensor.h"

namespace opal {

void CalibrationStats::accumulate(std::span<const float> activation) {
  require(activation.size() == sum_sq_.size(),
          "CalibrationStats: dim mismatch");
  for (std::size_t j = 0; j < activation.size(); ++j) {
    sum_sq_[j] += static_cast<double>(activation[j]) * activation[j];
  }
  ++tokens_;
}

}  // namespace opal
