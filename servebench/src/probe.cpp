#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "cpu_clock.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {

namespace {

// Results of the probe land here so its work cannot be optimized away.
volatile double g_probe_sink = 0.0;

// On x86 the probe's inner loops are built for AVX2 with FMA as well as
// for the baseline ISA, picked at run time like the library's kernels, so
// they load the core the way the served model's SIMD kernels do.
#if defined(__x86_64__) && defined(__GNUC__)
#define SERVEBENCH_SIMD_CLONES __attribute__((target_clones("avx2,fma", "default")))
#else
#define SERVEBENCH_SIMD_CLONES
#endif

/// y = m x for a row-major rows x cols matrix, in eight independent double
/// lanes per row.
SERVEBENCH_SIMD_CLONES
void matvec(const float* m, const float* x, float* y, std::size_t rows,
            std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = m + r * cols;
    double lane[8] = {};
    for (std::size_t c = 0; c + 8 <= cols; c += 8) {
      for (std::size_t l = 0; l < 8; ++l) {
        lane[l] += static_cast<double>(row[c + l]) *
                   static_cast<double>(x[c + l]);
      }
    }
    double acc = 0.0;
    for (const double v : lane) acc += v;
    y[r] = static_cast<float>(acc);
  }
}

/// y += a * x.
SERVEBENCH_SIMD_CLONES
void axpy(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

}  // namespace

double host_probe_ms() {
  // Work shaped like decode passes of the served model, written from
  // scratch: per layer four 128x128 and two 128x256 fp32 matrix-vector
  // products, an attention over 128 cached positions and a 4-bit block
  // rounding of the activations; then 512 logits. Its 2.9 MB of weights
  // and cache spill out of a core's L2 into the shared L3, as the model's
  // do, so it slows down with the same contention.
  constexpr std::size_t d = 128, f = 256, ctx = 128, vocab = 512;
  constexpr std::size_t layers = 4, tokens = 48;
  constexpr std::size_t layer_size = 4 * d * d + 2 * d * f + 2 * ctx * d;
  static const std::vector<float> weights = [] {
    SeedRng rng(3);
    std::vector<float> w(layers * layer_size + vocab * d);
    for (float& v : w) v = static_cast<float>(rng.uniform() - 0.5) * 0.1f;
    return w;
  }();
  const auto t0 = CpuClock::now();
  std::vector<float> x(d, 0.5f), q(d), k(d), v(d), o(d), h(f), p(ctx),
      logits(vocab);
  double sink = 0.0;
  for (std::size_t t = 0; t < tokens; ++t) {
    const float* w = weights.data();
    for (std::size_t l = 0; l < layers; ++l) {
      matvec(w, x.data(), q.data(), d, d);
      matvec(w + d * d, x.data(), k.data(), d, d);
      matvec(w + 2 * d * d, x.data(), v.data(), d, d);
      const float* keys = w + 4 * d * d + 2 * d * f;
      const float* vals = keys + ctx * d;
      matvec(keys, q.data(), p.data(), ctx, d);
      float total = 0.0f;
      for (float& s : p) total += s = std::exp(s - 1.0f);
      std::fill(o.begin(), o.end(), 0.0f);
      for (std::size_t j = 0; j < ctx; ++j) {
        axpy(p[j] / total, vals + j * d, o.data(), d);
      }
      for (std::size_t c = 0; c < d; ++c) o[c] += k[c] * v[c];
      matvec(w + 3 * d * d, o.data(), q.data(), d, d);
      float amax = 1e-6f;
      for (const float a : q) amax = std::max(amax, std::fabs(a));
      for (std::size_t c = 0; c < d; ++c) {
        x[c] += std::nearbyint(q[c] / amax * 7.0f) * amax / 7.0f;
      }
      matvec(w + 4 * d * d, x.data(), h.data(), f, d);
      for (float& a : h) a = std::max(a, 0.0f);
      matvec(w + 4 * d * d + d * f, h.data(), o.data(), d, f);
      for (std::size_t c = 0; c < d; ++c) x[c] = 0.5f * x[c] + o[c];
      w += layer_size;
    }
    matvec(w, x.data(), logits.data(), vocab, d);
    sink += *std::max_element(logits.begin(), logits.end());
  }
  const double ms =
      std::chrono::duration<double, std::milli>(CpuClock::now() - t0).count();
  g_probe_sink = sink;
  return ms;
}

double host_scale(const std::vector<double>& probe_ms) {
  if (probe_ms.empty()) return 1.0;
  return nearest_rank(probe_ms, 50.0).value / kReferenceProbeMs;
}

}  // namespace servebench
