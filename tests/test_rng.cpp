#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace opal {
namespace {

bool is_outlier(const OutlierChannelProfile& profile, std::size_t channel) {
  return std::find(profile.channels.begin(), profile.channels.end(),
                   channel) != profile.channels.end();
}

TEST(Rng, Deterministic) {
  Rng a = make_rng(42), b = make_rng(42);
  std::vector<float> va(100), vb(100);
  fill_gaussian(a, va);
  fill_gaussian(b, vb);
  EXPECT_EQ(va, vb);
}

TEST(Rng, GaussianMoments) {
  Rng rng = make_rng(1);
  std::vector<float> v(200000);
  fill_gaussian(rng, v, 2.0f, 3.0f);
  const double mean =
      std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  double var = 0.0;
  for (const float x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, LaplaceHeavierTailsThanGaussian) {
  Rng rng = make_rng(2);
  std::vector<float> lap(200000), gau(200000);
  fill_laplace(rng, lap, 1.0f);
  fill_gaussian(rng, gau, 0.0f, std::sqrt(2.0f));  // same variance
  auto tail_count = [](const std::vector<float>& v, float thr) {
    return std::count_if(v.begin(), v.end(),
                         [thr](float x) { return std::abs(x) > thr; });
  };
  EXPECT_GT(tail_count(lap, 5.0f), tail_count(gau, 5.0f) * 2);
}

TEST(CounterRng, DrawIsPureFunctionOfSeedAndCounter) {
  CounterRng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Stateless access matches the stream.
  CounterRng c(42);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(c.next_u64(), CounterRng::at(42, i));
  }
}

TEST(CounterRng, SerializableStateResumesMidStream) {
  CounterRng full(7);
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < 20; ++i) reference.push_back(full.next_u64());

  CounterRng first(7);
  for (int i = 0; i < 9; ++i) first.next_u64();
  // Checkpoint is just (seed, counter); a fresh generator resumes exactly.
  CounterRng resumed(first.seed(), first.counter());
  EXPECT_EQ(resumed, first);
  for (int i = 9; i < 20; ++i) {
    EXPECT_EQ(resumed.next_u64(), reference[static_cast<std::size_t>(i)]);
  }
}

TEST(CounterRng, DistinctSeedsDecorrelate) {
  CounterRng a(1), b(2);
  std::size_t equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0u);
}

TEST(CounterRng, UnitDrawsAreUniformInHalfOpenInterval) {
  CounterRng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.next_unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
  EXPECT_EQ(rng.counter(), 100000u);
}

TEST(OutlierProfile, CountAndRange) {
  Rng rng = make_rng(3);
  const auto profile = make_outlier_profile(rng, 1000, 10, 8.0f, 64.0f);
  EXPECT_EQ(profile.channels.size(), 10u);
  EXPECT_EQ(profile.magnitudes.size(), 10u);
  for (const auto c : profile.channels) EXPECT_LT(c, 1000u);
  for (const float m : profile.magnitudes) {
    EXPECT_GE(m, 8.0f);
    EXPECT_LE(m, 64.0f);
  }
  EXPECT_TRUE(std::is_sorted(profile.channels.begin(),
                             profile.channels.end()));
}

TEST(OutlierProfile, DistinctChannels) {
  Rng rng = make_rng(4);
  const auto profile = make_outlier_profile(rng, 64, 64);
  std::vector<std::size_t> sorted = profile.channels;
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(sorted.size(), 64u);
}

TEST(OutlierProfile, ChannelsDistinctWithinDim) {
  Rng rng = make_rng(5);
  const auto profile = make_outlier_profile(rng, 100, 5);
  for (const auto c : profile.channels) EXPECT_TRUE(is_outlier(profile, c));
  std::size_t non_outliers = 0;
  for (std::size_t c = 0; c < 100; ++c) {
    if (!is_outlier(profile, c)) ++non_outliers;
  }
  EXPECT_EQ(non_outliers, 95u);
}

TEST(ActivationModel, OutlierChannelsPersistAcrossSamples) {
  ActivationModel model(7, 256, 0.02f);
  const auto& channels = model.profile().channels;
  ASSERT_FALSE(channels.empty());
  // Average magnitude on outlier channels dominates across many samples.
  double outlier_mag = 0.0, bulk_mag = 0.0;
  std::vector<float> v(256);
  for (int s = 0; s < 200; ++s) {
    model.sample(v);
    for (std::size_t c = 0; c < v.size(); ++c) {
      if (is_outlier(model.profile(), c)) {
        outlier_mag += std::abs(v[c]);
      } else {
        bulk_mag += std::abs(v[c]);
      }
    }
  }
  outlier_mag /= 200.0 * static_cast<double>(channels.size());
  bulk_mag /= 200.0 * static_cast<double>(256 - channels.size());
  EXPECT_GT(outlier_mag, bulk_mag * 5.0);
}

TEST(ActivationModel, SampleMatrixShape) {
  ActivationModel model(8, 128);
  const Matrix m = model.sample_matrix(10);
  EXPECT_EQ(m.rows(), 10u);
  EXPECT_EQ(m.cols(), 128u);
}

TEST(WeightMatrix, FanInScaling) {
  Rng rng = make_rng(9);
  const Matrix w = make_weight_matrix(rng, 64, 1024);
  double var = 0.0;
  for (const float v : w.flat()) var += static_cast<double>(v) * v;
  var /= static_cast<double>(w.size());
  EXPECT_NEAR(var, 1.0 / 1024.0, 0.3 / 1024.0);
}

TEST(WeightMatrix, AmplifiedColumns) {
  Rng rng = make_rng(10);
  const std::vector<std::size_t> cols = {3, 7};
  const Matrix w = make_weight_matrix(rng, 128, 16, cols, 10.0f);
  double amp = 0.0, base = 0.0;
  for (std::size_t r = 0; r < w.rows(); ++r) {
    amp += std::abs(w(r, 3)) + std::abs(w(r, 7));
    base += std::abs(w(r, 0)) + std::abs(w(r, 1));
  }
  EXPECT_GT(amp, base * 4.0);
}

}  // namespace
}  // namespace opal
