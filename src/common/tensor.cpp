#include "common/tensor.h"

#include "common/kernels.h"

namespace opal {

// Shape checks happen once here, at the public entry point; the kernel
// table below it runs raw pointer loops with no per-row validation.

void matvec(const Matrix& w, std::span<const float> x, std::span<float> y) {
  const std::size_t n = w.cols() == 0 ? 1 : x.size() / w.cols();
  require(n >= 1 && x.size() == n * w.cols(),
          "matvec: x size is not a whole number of cols-long rows");
  require(y.size() == n * w.rows(), "matvec: y size != rows per input row");
  kernels().matvec(w.data(), w.rows(), w.cols(), x.data(), n, y.data());
}

}  // namespace opal
