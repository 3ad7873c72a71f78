// NEON kernel table (AArch64, where Advanced SIMD is baseline — no runtime
// probe needed beyond compiling for the architecture). Mirrors the AVX2
// table's structure contract (kernels.h): the file-local dot bodies under
// matvec, attend_scores and the fused dequant_scores_* consume 8 floats per
// iteration through the same pair of 2-wide double FMA accumulator vectors
// and finish with the same sequential scalar tail for n % 8 leftovers, and
// the fused decodes reproduce the read-back reference's floats exactly, so
// "fused == decode-then-plain" stays bitwise within this table. Compiled
// with -ffp-contract=off like the others.

#if defined(__aarch64__)

#include <arm_neon.h>

#include "common/kernels.h"

namespace opal {

namespace {

// acc0/acc1 += a[0..3] * b[0..3] in double lanes.
inline void dacc4(const float* a, float32x4_t bv, float64x2_t& acc0,
                  float64x2_t& acc1) {
  const float32x4_t av = vld1q_f32(a);
  acc0 = vfmaq_f64(acc0, vcvt_f64_f32(vget_low_f32(av)),
                   vcvt_f64_f32(vget_low_f32(bv)));
  acc1 = vfmaq_f64(acc1, vcvt_high_f64_f32(av), vcvt_high_f64_f32(bv));
}

inline double hsum(float64x2_t acc0, float64x2_t acc1) {
  return vaddvq_f64(vaddq_f64(acc0, acc1));
}

struct F32x8 {
  float32x4_t lo, hi;
};

// Eight int8 codes dequantized to the reference's exact floats:
// float(code) * s.
inline F32x8 decode8_int8(const std::int8_t* c, float32x4_t sv) {
  const int16x8_t w = vmovl_s8(vld1_s8(c));
  return {vmulq_f32(vcvtq_f32_s32(vmovl_s16(vget_low_s16(w))), sv),
          vmulq_f32(vcvtq_f32_s32(vmovl_s16(vget_high_s16(w))), sv)};
}

// Four log2-7bit codes dequantized by integer exponent assembly (see the
// AVX2 twin for the bit-level derivation): be = (exponent+127) - code,
// normal = be << 23, denormal = 1 << (22 + be), code 127 = exactly +0.
inline float32x4_t decode4_log2(int32x4_t b32, int32x4_t ebias) {
  const int32x4_t code = vandq_s32(b32, vdupq_n_s32(kKvLog2CodeMax));
  const int32x4_t sign =
      vshlq_n_s32(vandq_s32(b32, vdupq_n_s32(0x80)), 24);
  const int32x4_t be = vsubq_s32(ebias, code);
  const int32x4_t normal = vshlq_n_s32(be, 23);
  // vshlq_s32 with a negative per-lane count shifts right, so 1 << (22+be)
  // correctly flushes to 0 once be drops below -22 (under the denormal min).
  const int32x4_t denorm =
      vshlq_s32(vdupq_n_s32(1), vaddq_s32(be, vdupq_n_s32(22)));
  int32x4_t bits =
      vbslq_s32(vcgtq_s32(be, vdupq_n_s32(0)), normal, denorm);
  bits = vbslq_s32(vcgtq_s32(be, vdupq_n_s32(255)),
                   vdupq_n_s32(0x7f800000), bits);
  bits = vorrq_s32(bits, sign);
  bits = vbicq_s32(
      bits, vreinterpretq_s32_u32(vceqq_s32(code, vdupq_n_s32(kKvLog2CodeMax))));
  return vreinterpretq_f32_s32(bits);
}

inline F32x8 decode8_log2(const std::int8_t* c, int32x4_t ebias) {
  const uint16x8_t w = vmovl_u8(vld1_u8(reinterpret_cast<const uint8_t*>(c)));
  const int32x4_t lo =
      vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w)));
  const int32x4_t hi =
      vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(w)));
  return {decode4_log2(lo, ebias), decode4_log2(hi, ebias)};
}

float neon_dot(const float* a, const float* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    dacc4(a + i, vld1q_f32(b + i), acc0, acc1);
    dacc4(a + i + 4, vld1q_f32(b + i + 4), acc0, acc1);
  }
  double acc = hsum(acc0, acc1);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

float neon_dequant_dot_int8(const float* a, const std::int8_t* codes,
                            std::size_t n, float s) {
  const float32x4_t sv = vdupq_n_f32(s);
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const F32x8 dv = decode8_int8(codes + i, sv);
    dacc4(a + i, dv.lo, acc0, acc1);
    dacc4(a + i + 4, dv.hi, acc0, acc1);
  }
  double acc = hsum(acc0, acc1);
  for (; i < n; ++i) {
    const float dv = static_cast<float>(codes[i]) * s;
    acc += static_cast<double>(a[i]) * static_cast<double>(dv);
  }
  return static_cast<float>(acc);
}

float neon_dequant_dot_log2(const float* a, const std::int8_t* codes,
                            std::size_t n, int exponent) {
  const int32x4_t ebias = vdupq_n_s32(exponent + 127);
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const F32x8 dv = decode8_log2(codes + i, ebias);
    dacc4(a + i, dv.lo, acc0, acc1);
    dacc4(a + i + 4, dv.hi, acc0, acc1);
  }
  double acc = hsum(acc0, acc1);
  for (; i < n; ++i) {
    const float dv = kv_decode_log2(codes[i], exponent);
    acc += static_cast<double>(a[i]) * static_cast<double>(dv);
  }
  return static_cast<float>(acc);
}

void neon_matvec(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, std::size_t n, float* y) {
  for (std::size_t i = 0; i < n; ++i, x += cols, y += rows) {
    for (std::size_t r = 0; r < rows; ++r) {
      y[r] = neon_dot(w + r * cols, x, cols);
    }
  }
}

void neon_axpy(float a, const float* x, float* y, std::size_t n) {
  const float32x4_t av = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), vld1q_f32(x + i), av));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void neon_scale(float s, float* x, std::size_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= s;
}

void neon_attend_scores(const float* q, const float* k, std::size_t rows,
                        std::size_t stride, std::size_t d_head, float scale,
                        float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = neon_dot(q, k + r * stride, d_head) * scale;
  }
}

void neon_attend_accum(const float* w, const float* v, std::size_t rows,
                       std::size_t stride, std::size_t d_head, float* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const float32x4_t wv = vdupq_n_f32(wr);
    const float* vr = v + r * stride;
    std::size_t c = 0;
    // 8 per iteration, like dequant_accum_*: the same lanes fuse in both.
    for (; c + 8 <= d_head; c += 8) {
      vst1q_f32(z + c, vfmaq_f32(vld1q_f32(z + c), vld1q_f32(vr + c), wv));
      vst1q_f32(z + c + 4,
                vfmaq_f32(vld1q_f32(z + c + 4), vld1q_f32(vr + c + 4), wv));
    }
    for (; c < d_head; ++c) z[c] += wr * vr[c];
  }
}

void neon_dequant_scores_int8(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, float s, float scale,
                              float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = neon_dequant_dot_int8(q, k_codes + r * stride, d_head, s) * scale;
  }
}

void neon_dequant_scores_log2(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, int exponent, float scale,
                              float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] =
        neon_dequant_dot_log2(q, k_codes + r * stride, d_head, exponent) *
        scale;
  }
}

void neon_dequant_accum_int8(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, float s, float* z) {
  const float32x4_t sv = vdupq_n_f32(s);
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const float32x4_t wv = vdupq_n_f32(wr);
    const std::int8_t* vr = v_codes + r * stride;
    std::size_t c = 0;
    for (; c + 8 <= d_head; c += 8) {
      const F32x8 dv = decode8_int8(vr + c, sv);
      vst1q_f32(z + c, vfmaq_f32(vld1q_f32(z + c), dv.lo, wv));
      vst1q_f32(z + c + 4, vfmaq_f32(vld1q_f32(z + c + 4), dv.hi, wv));
    }
    for (; c < d_head; ++c) {
      const float dv = static_cast<float>(vr[c]) * s;
      z[c] += wr * dv;
    }
  }
}

void neon_dequant_accum_log2(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, int exponent, float* z) {
  const int32x4_t ebias = vdupq_n_s32(exponent + 127);
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const float32x4_t wv = vdupq_n_f32(wr);
    const std::int8_t* vr = v_codes + r * stride;
    std::size_t c = 0;
    for (; c + 8 <= d_head; c += 8) {
      const F32x8 dv = decode8_log2(vr + c, ebias);
      vst1q_f32(z + c, vfmaq_f32(vld1q_f32(z + c), dv.lo, wv));
      vst1q_f32(z + c + 4, vfmaq_f32(vld1q_f32(z + c + 4), dv.hi, wv));
    }
    for (; c < d_head; ++c) {
      const float dv = kv_decode_log2(vr[c], exponent);
      z[c] += wr * dv;
    }
  }
}

constexpr KernelOps kNeonOps = {
    "neon",
    neon_matvec,
    neon_axpy,
    neon_scale,
    neon_attend_scores,
    neon_attend_accum,
    neon_dequant_scores_int8,
    neon_dequant_scores_log2,
    neon_dequant_accum_int8,
    neon_dequant_accum_log2,
    mx_quantize_scalar,  // no NEON body yet: the scalar reference
};

}  // namespace

const KernelOps* opal_neon_kernels() { return &kNeonOps; }

}  // namespace opal

#endif  // __aarch64__
