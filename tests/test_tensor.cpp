#include "common/tensor.h"

#include <gtest/gtest.h>

namespace opal {
namespace {

TEST(Matrix, ShapeAndFill) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (const float v : m.flat()) EXPECT_EQ(v, 1.5f);
}

TEST(Matrix, RowViewsAlias) {
  Matrix m(2, 3);
  m.row(1)[2] = 7.0f;
  EXPECT_EQ(m(1, 2), 7.0f);
  EXPECT_EQ(m.flat()[5], 7.0f);
}

TEST(Matrix, EmptyDefault) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatVec, KnownProduct) {
  Matrix w(2, 3);
  // [1 2 3; 4 5 6] * [1 1 1]^T = [6, 15]
  for (std::size_t c = 0; c < 3; ++c) {
    w(0, c) = static_cast<float>(c + 1);
    w(1, c) = static_cast<float>(c + 4);
  }
  const std::vector<float> x = {1.0f, 1.0f, 1.0f};
  std::vector<float> y(2);
  matvec(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(MatVec, DimensionChecks) {
  Matrix w(2, 3);
  std::vector<float> x(2), y(2);
  EXPECT_THROW(matvec(w, x, y), std::invalid_argument);
  std::vector<float> x3(3), y3(3);
  EXPECT_THROW(matvec(w, x3, y3), std::invalid_argument);
}

TEST(MatVec, AccumulatesInDouble) {
  // Large cancellation that float accumulation would lose.
  Matrix w(1, 3);
  w(0, 0) = 1e8f;
  w(0, 1) = 1.0f;
  w(0, 2) = -1e8f;
  const std::vector<float> x = {1.0f, 1.0f, 1.0f};
  std::vector<float> y(1);
  matvec(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
}

}  // namespace
}  // namespace opal
