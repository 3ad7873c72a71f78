#include "common/error_metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace opal {
namespace {

TEST(Metrics, MseZeroForIdentical) {
  const std::vector<float> v = {1.0f, -2.0f, 3.0f};
  EXPECT_EQ(mse(v, v), 0.0);
}

TEST(Metrics, MseKnownValue) {
  const std::vector<float> a = {0.0f, 0.0f};
  const std::vector<float> b = {1.0f, -3.0f};
  EXPECT_DOUBLE_EQ(mse(a, b), (1.0 + 9.0) / 2.0);
}

TEST(Metrics, SqnrInfiniteWhenExact) {
  const std::vector<float> v = {1.0f, 2.0f};
  EXPECT_EQ(sqnr_db(v, v), std::numeric_limits<double>::infinity());
}

TEST(Metrics, SqnrKnownValue) {
  // Signal power 1, noise power 0.01 -> 20 dB.
  const std::vector<float> ref = {1.0f};
  const std::vector<float> test = {0.9f};
  EXPECT_NEAR(sqnr_db(ref, test), 20.0, 1e-4);
}

TEST(Metrics, SqnrImprovesWithSmallerError) {
  const std::vector<float> ref = {1.0f, -1.0f, 2.0f};
  std::vector<float> coarse = {1.2f, -0.8f, 2.2f};
  std::vector<float> fine = {1.02f, -0.98f, 2.02f};
  EXPECT_GT(sqnr_db(ref, fine), sqnr_db(ref, coarse));
}

TEST(Metrics, RejectsMismatchedOrEmpty) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {1.0f, 2.0f};
  EXPECT_THROW(static_cast<void>(mse(a, b)), std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(mse(std::vector<float>{}, std::vector<float>{})),
      std::invalid_argument);
}

}  // namespace
}  // namespace opal
