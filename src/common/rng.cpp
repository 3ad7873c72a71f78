#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace opal {

std::uint64_t CounterRng::at(std::uint64_t seed, std::uint64_t counter) {
  // splitmix64 finalizer over the golden-ratio-strided counter, keyed by the
  // seed: full 64-bit avalanche, so consecutive counters (and consecutive
  // seeds) decorrelate completely.
  std::uint64_t z = seed + (counter + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void fill_gaussian(Rng& rng, std::span<float> out, float mean, float stddev) {
  std::normal_distribution<float> dist(mean, stddev);
  for (auto& v : out) v = dist(rng);
}

void fill_laplace(Rng& rng, std::span<float> out, float scale) {
  std::uniform_real_distribution<float> uni(-0.5f, 0.5f);
  for (auto& v : out) {
    const float u = uni(rng);
    // Inverse-CDF sampling; sign(u) * ln(1 - 2|u|) has Laplace(0,1) law.
    v = -scale * std::copysign(std::log1p(-2.0f * std::abs(u)), u);
  }
}

OutlierChannelProfile make_outlier_profile(Rng& rng, std::size_t dim,
                                           std::size_t count, float min_mag,
                                           float max_mag) {
  OutlierChannelProfile profile;
  if (count == 0 || dim == 0) return profile;
  count = std::min(count, dim);

  std::vector<std::size_t> all(dim);
  for (std::size_t i = 0; i < dim; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  profile.channels.assign(all.begin(),
                          all.begin() + static_cast<std::ptrdiff_t>(count));
  std::sort(profile.channels.begin(), profile.channels.end());

  std::uniform_real_distribution<float> logmag(std::log(min_mag),
                                               std::log(max_mag));
  profile.magnitudes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    profile.magnitudes.push_back(std::exp(logmag(rng)));
  }
  return profile;
}

ActivationModel::ActivationModel(std::uint64_t seed, std::size_t dim,
                                 float outlier_fraction, float bulk_scale,
                                 float min_mag, float max_mag)
    : rng_(make_rng(seed)), dim_(dim), bulk_scale_(bulk_scale) {
  const auto count = static_cast<std::size_t>(
      std::max(1.0f, outlier_fraction * static_cast<float>(dim)));
  profile_ = make_outlier_profile(rng_, dim, outlier_fraction > 0 ? count : 0,
                                  min_mag, max_mag);
}

void ActivationModel::sample(std::span<float> out) {
  require(out.size() == dim_, "ActivationModel::sample: dim mismatch");
  fill_laplace(rng_, out, bulk_scale_);
  for (std::size_t i = 0; i < profile_.channels.size(); ++i) {
    out[profile_.channels[i]] *= profile_.magnitudes[i];
  }
}

Matrix ActivationModel::sample_matrix(std::size_t rows) {
  Matrix m(rows, dim_);
  for (std::size_t r = 0; r < rows; ++r) sample(m.row(r));
  return m;
}

Matrix make_weight_matrix(Rng& rng, std::size_t rows, std::size_t cols,
                          std::span<const std::size_t> amplified_cols,
                          float col_gain) {
  Matrix w(rows, cols);
  const float stddev = 1.0f / std::sqrt(static_cast<float>(cols));
  fill_gaussian(rng, w.flat(), 0.0f, stddev);
  for (const std::size_t c : amplified_cols) {
    if (c >= cols) continue;
    for (std::size_t r = 0; r < rows; ++r) w(r, c) *= col_gain;
  }
  return w;
}

}  // namespace opal
