// Minimal row-major dense tensor types used throughout the repo.
//
// The LLM substrate and the quantization library only need vectors and
// matrices of float (activations are staged in binary32 between explicit
// rounding points), so Tensor is deliberately small: contiguous storage,
// span-based views, and a couple of shape helpers. No expression templates.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace opal {

/// Dense row-major matrix of float.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) {
    return at(r, c);
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const {
    return at(r, c);
  }

  [[nodiscard]] std::span<float> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }
  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

using Vector = std::vector<float>;

/// y = W x for a [rows x cols] matrix and a cols-long vector.
void matvec(const Matrix& w, std::span<const float> x, std::span<float> y);

/// y = W^T x for a [rows x cols] matrix and a rows-long vector.
void matvec_transposed(const Matrix& w, std::span<const float> x,
                       std::span<float> y);

/// Dot product.
[[nodiscard]] float dot(std::span<const float> a, std::span<const float> b);

/// Throws std::invalid_argument with a formatted message when `cond` is false.
inline void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument(what);
}
/// Literal-message form: builds no std::string unless it throws, so hot
/// paths can check their arguments without allocating.
inline void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

}  // namespace opal
