// Scalar reference kernels + the runtime dispatch shim.
//
// This TU is compiled with -ffp-contract=off (see CMakeLists.txt): the
// scalar table's arithmetic is exactly the source-order IEEE sequence below,
// which makes it a stable bitwise reference for the SIMD tables and for the
// fused-vs-gather equivalence the attend path relies on.

#include "common/kernels.h"

#include <atomic>
#include <cstdlib>

namespace opal {

namespace {

// --- scalar reference -------------------------------------------------------

float scalar_dot(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

void scalar_matvec(const float* w, std::size_t rows, std::size_t cols,
                   const float* x, std::size_t n, float* y) {
  for (std::size_t i = 0; i < n; ++i, x += cols, y += rows) {
    for (std::size_t r = 0; r < rows; ++r) {
      y[r] = scalar_dot(w + r * cols, x, cols);
    }
  }
}

void scalar_axpy(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scalar_scale(float s, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void scalar_attend_scores(const float* q, const float* k, std::size_t rows,
                          std::size_t stride, std::size_t d_head, float scale,
                          float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = scalar_dot(q, k + r * stride, d_head) * scale;
  }
}

void scalar_attend_accum(const float* w, const float* v, std::size_t rows,
                         std::size_t stride, std::size_t d_head, float* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const float* vr = v + r * stride;
    for (std::size_t c = 0; c < d_head; ++c) z[c] += wr * vr[c];
  }
}

// Fused dequantize kernels: decode one element to the exact float the
// read-back reference (common/kernels.h) gives, then accumulate with the
// same structure as the plain kernel above, so fused == decode-then-plain
// bitwise within this table.

float scalar_dequant_dot_int8(const float* a, const std::int8_t* codes,
                              std::size_t n, float s) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float dv = static_cast<float>(codes[i]) * s;
    acc += static_cast<double>(a[i]) * static_cast<double>(dv);
  }
  return static_cast<float>(acc);
}

float scalar_dequant_dot_log2(const float* a, const std::int8_t* codes,
                              std::size_t n, int exponent) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float dv = kv_decode_log2(codes[i], exponent);
    acc += static_cast<double>(a[i]) * static_cast<double>(dv);
  }
  return static_cast<float>(acc);
}

void scalar_dequant_scores_int8(const float* q, const std::int8_t* k_codes,
                                std::size_t rows, std::size_t stride,
                                std::size_t d_head, float s, float scale,
                                float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = scalar_dequant_dot_int8(q, k_codes + r * stride, d_head, s) *
             scale;
  }
}

void scalar_dequant_scores_log2(const float* q, const std::int8_t* k_codes,
                                std::size_t rows, std::size_t stride,
                                std::size_t d_head, int exponent, float scale,
                                float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] =
        scalar_dequant_dot_log2(q, k_codes + r * stride, d_head, exponent) *
        scale;
  }
}

void scalar_dequant_accum_int8(const float* w, const std::int8_t* v_codes,
                               std::size_t rows, std::size_t stride,
                               std::size_t d_head, float s, float* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const std::int8_t* vr = v_codes + r * stride;
    for (std::size_t c = 0; c < d_head; ++c) {
      const float dv = static_cast<float>(vr[c]) * s;
      z[c] += wr * dv;
    }
  }
}

void scalar_dequant_accum_log2(const float* w, const std::int8_t* v_codes,
                               std::size_t rows, std::size_t stride,
                               std::size_t d_head, int exponent, float* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const std::int8_t* vr = v_codes + r * stride;
    for (std::size_t c = 0; c < d_head; ++c) {
      const float dv = kv_decode_log2(vr[c], exponent);
      z[c] += wr * dv;
    }
  }
}

constexpr KernelOps kScalarOps = {
    "scalar",
    scalar_matvec,
    scalar_axpy,
    scalar_scale,
    scalar_attend_scores,
    scalar_attend_accum,
    scalar_dequant_scores_int8,
    scalar_dequant_scores_log2,
    scalar_dequant_accum_int8,
    scalar_dequant_accum_log2,
    mx_quantize_scalar,
};

// --- dispatch ---------------------------------------------------------------

bool env_forces_scalar() {
  const char* v = std::getenv("OPAL_FORCE_SCALAR_KERNELS");
  if (v == nullptr) return false;
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

// Probes defined by the conditionally compiled ISA TUs; each returns nullptr
// when the running CPU lacks the extension.
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
const KernelOps* opal_avx2_kernels();
#endif
#if defined(__aarch64__)
const KernelOps* opal_neon_kernels();
#endif

const KernelOps& scalar_kernels() { return kScalarOps; }

const KernelOps* simd_kernels() {
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
  if (const KernelOps* ops = opal_avx2_kernels()) return ops;
#endif
#if defined(__aarch64__)
  if (const KernelOps* ops = opal_neon_kernels()) return ops;
#endif
  return nullptr;
}

const KernelOps& kernels() {
  const KernelOps* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    active = env_forces_scalar() ? &kScalarOps : simd_kernels();
    if (active == nullptr) active = &kScalarOps;
    g_active.store(active, std::memory_order_release);
  }
  return *active;
}

void set_force_scalar_kernels(bool force) {
  const KernelOps* table = force ? &kScalarOps : simd_kernels();
  if (table == nullptr) table = &kScalarOps;
  g_active.store(table, std::memory_order_release);
}

void set_active_kernels(const KernelOps* table) {
  g_active.store(table, std::memory_order_release);
}

}  // namespace opal
