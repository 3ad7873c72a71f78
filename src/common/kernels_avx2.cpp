// AVX2+FMA kernel table (x86-64). Compiled with -mavx2 -mfma
// -ffp-contract=off on x86 hosts regardless of the build machine's CPU; the
// probe at the bottom checks the *running* CPU before the table is ever
// dispatched to, so a generic build stays safe on pre-AVX2 hardware.
//
// Structure contract (see kernels.h): matvec, attend_scores and the fused
// dequant_scores_* share one dot body per output row — 8 floats per
// iteration into two 4-wide double FMA accumulators, hsum, then a
// sequential scalar tail for n % 8 leftovers — and the fused decode
// produces exactly the read-back reference's floats (common/kernels.h).
// That keeps "fused == decode-then-plain" bitwise within this table; only
// scalar-vs-AVX2 is tolerance-level (lane reduction reorders the double
// sums).
//
// Latency hiding never reorders one output's accumulation: the dot bodies
// run four rows interleaved (independent FMA chains, the shared vector
// converted once), matvec over four (or a leftover two) input rows
// converts each weight vector once for all of them, and the accumulate
// bodies hold 64 output columns in registers across all input rows, in
// row order. Either way each output sees exactly the one-row sequence, so
// a multi-row call is bitwise equal to one call per row.

#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <climits>

#include "common/float_bits.h"
#include "common/kernels.h"

namespace opal {

namespace {

// v[0..7] widened to double: lo holds lanes 0..3, hi lanes 4..7.
inline void widen8(__m256 v, __m256d& lo, __m256d& hi) {
  lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

inline double hsum(__m256d acc0, __m256d acc1) {
  const __m256d s = _mm256_add_pd(acc0, acc1);
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

// Eight int8 codes dequantized to the reference's exact floats:
// float(code) * s.
inline __m256 decode8_int8(const std::int8_t* c, __m256 sv) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
  return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes)), sv);
}

// Eight log2-7bit codes dequantized via integer exponent assembly: for
// biased exponent be = (exponent+127) - code, a normal value is be << 23, a
// denormal (be <= 0, down to 2^-149) is a mantissa bit 1 << (22 + be), and
// code 127 is exactly +0 — bit-identical to kv_decode_log2's exp2f result.
inline __m256 decode8_log2(const std::int8_t* c, __m256i ebias) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
  const __m256i b32 = _mm256_cvtepu8_epi32(bytes);
  const __m256i code =
      _mm256_and_si256(b32, _mm256_set1_epi32(kKvLog2CodeMax));
  const __m256i sign =
      _mm256_slli_epi32(_mm256_and_si256(b32, _mm256_set1_epi32(0x80)), 24);
  const __m256i be = _mm256_sub_epi32(ebias, code);
  const __m256i normal = _mm256_slli_epi32(be, 23);
  const __m256i denorm = _mm256_sllv_epi32(
      _mm256_set1_epi32(1), _mm256_add_epi32(be, _mm256_set1_epi32(22)));
  __m256i bits = _mm256_blendv_epi8(
      denorm, normal, _mm256_cmpgt_epi32(be, _mm256_setzero_si256()));
  bits = _mm256_blendv_epi8(bits, _mm256_set1_epi32(0x7f800000),
                            _mm256_cmpgt_epi32(be, _mm256_set1_epi32(255)));
  bits = _mm256_or_si256(bits, sign);
  return _mm256_castsi256_ps(_mm256_andnot_si256(
      _mm256_cmpeq_epi32(code, _mm256_set1_epi32(kKvLog2CodeMax)), bits));
}

// decode8_log2 for a block exponent in [0, 127], where every code 0..126
// has a biased exponent (exponent+127) - code in [1, 254]: a normal float,
// no denormal or inf select. The sign-extending widen leaves the byte's sign
// bit in bit 31; code 127 is still exactly +0. Same bits as decode8_log2.
inline __m256 decode8_log2_normal(const std::int8_t* c, __m256i ebias) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
  const __m256i b32 = _mm256_cvtepi8_epi32(bytes);
  const __m256i code =
      _mm256_and_si256(b32, _mm256_set1_epi32(kKvLog2CodeMax));
  const __m256i sign = _mm256_and_si256(b32, _mm256_set1_epi32(INT_MIN));
  const __m256i bits = _mm256_or_si256(
      _mm256_slli_epi32(_mm256_sub_epi32(ebias, code), 23), sign);
  return _mm256_castsi256_ps(_mm256_andnot_si256(
      _mm256_cmpeq_epi32(code, _mm256_set1_epi32(kKvLog2CodeMax)), bits));
}

// Row sources shared by both kernel families: load8 gives eight values of a
// row exactly as the read-back reference decodes them, load8_pd the same widened to
// double, at one value for a scalar tail.
struct F32Rows {
  const float* base;
  std::size_t stride;
  const float* row(std::size_t r) const { return base + r * stride; }
  static __m256 load8(const float* p) { return _mm256_loadu_ps(p); }
  // Two 4-float loads widen straight from memory, with no lane extract.
  static void load8_pd(const float* p, __m256d& lo, __m256d& hi) {
    lo = _mm256_cvtps_pd(_mm_loadu_ps(p));
    hi = _mm256_cvtps_pd(_mm_loadu_ps(p + 4));
  }
  static float at(const float* p) { return *p; }
};

struct Int8Rows {
  const std::int8_t* base;
  std::size_t stride;
  float s;
  __m256 sv = _mm256_set1_ps(s);
  const std::int8_t* row(std::size_t r) const { return base + r * stride; }
  __m256 load8(const std::int8_t* p) const { return decode8_int8(p, sv); }
  void load8_pd(const std::int8_t* p, __m256d& lo, __m256d& hi) const {
    widen8(load8(p), lo, hi);
  }
  float at(const std::int8_t* p) const { return static_cast<float>(*p) * s; }
};

// Normal selects decode8_log2_normal, for a block exponent in [0, 127].
template <bool Normal>
struct Log2Rows {
  const std::int8_t* base;
  std::size_t stride;
  int exponent;
  __m256i ebias = _mm256_set1_epi32(exponent + 127);
  const std::int8_t* row(std::size_t r) const { return base + r * stride; }
  __m256 load8(const std::int8_t* p) const {
    if constexpr (Normal) return decode8_log2_normal(p, ebias);
    return decode8_log2(p, ebias);
  }
  void load8_pd(const std::int8_t* p, __m256d& lo, __m256d& hi) const {
    widen8(load8(p), lo, hi);
  }
  float at(const std::int8_t* p) const { return kv_decode_log2(*p, exponent); }
};

// acc0/acc1 += row[0..7] * (x0 | x1) in double lanes, x already widened.
// The double product of two floats is exact, so operand order cannot
// change a bit.
template <typename Rows, typename T>
void dacc8(const Rows& src, const T* row, __m256d x0, __m256d x1,
           __m256d& acc0, __m256d& acc1) {
  __m256d lo, hi;
  src.load8_pd(row, lo, hi);
  acc0 = _mm256_fmadd_pd(lo, x0, acc0);
  acc1 = _mm256_fmadd_pd(hi, x1, acc1);
}

// Sequential scalar tail of one dot row from column i on, after hsum.
template <typename Rows, typename T>
float dot_tail(const float* x, const Rows& src, const T* row, std::size_t i,
               std::size_t n, double acc) {
  for (; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(src.at(row + i));
  }
  return static_cast<float>(acc);
}

// The one-row dot body: 8 floats per iteration into two double
// accumulators, hsum, then the scalar tail.
template <typename Rows>
float dot_row(const float* x, const Rows& src, std::size_t r, std::size_t n) {
  const auto* row = src.row(r);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d x0, x1;
    F32Rows::load8_pd(x + i, x0, x1);
    dacc8(src, row + i, x0, x1, acc0, acc1);
  }
  return dot_tail(x, src, row, i, n, hsum(acc0, acc1));
}

// out[r] = dot(x, row r) for r in [0, rows). Four rows run interleaved so
// their FMA chains overlap: per 8 columns x converts to double once and each
// row advances its own acc0/acc1 pair with dot_row's exact sequence, then
// gets the same hsum and tail. rows % 4 leftovers use dot_row.
template <typename Rows>
void dot_rows(const float* x, const Rows& src, std::size_t rows, std::size_t n,
              float* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const auto* r0 = src.row(r);
    const auto* r1 = src.row(r + 1);
    const auto* r2 = src.row(r + 2);
    const auto* r3 = src.row(r + 3);
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256d x0, x1;
      F32Rows::load8_pd(x + i, x0, x1);
      dacc8(src, r0 + i, x0, x1, a00, a01);
      dacc8(src, r1 + i, x0, x1, a10, a11);
      dacc8(src, r2 + i, x0, x1, a20, a21);
      dacc8(src, r3 + i, x0, x1, a30, a31);
    }
    out[r] = dot_tail(x, src, r0, i, n, hsum(a00, a01));
    out[r + 1] = dot_tail(x, src, r1, i, n, hsum(a10, a11));
    out[r + 2] = dot_tail(x, src, r2, i, n, hsum(a20, a21));
    out[r + 3] = dot_tail(x, src, r3, i, n, hsum(a30, a31));
  }
  for (; r < rows; ++r) out[r] = dot_row(x, src, r, n);
}

// z[c] += w[r] * row r[c] for r in [0, rows), c in [0, d_head), rows in
// order for every column. Each full 64-column block stays in eight
// registers across all rows and is stored once; the columns past the last
// full block take the row loop (8-wide body, then scalar tail). Either way
// every z[c] sees the same FMA sequence.
template <typename Rows>
void accum_rows(const float* w, const Rows& src, std::size_t rows,
                std::size_t d_head, float* z) {
  std::size_t c0 = 0;
  for (; c0 + 64 <= d_head; c0 += 64) {
    __m256 zv[8];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) zv[j] = _mm256_loadu_ps(z + c0 + 8 * j);
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256 wv = _mm256_set1_ps(w[r]);
      const auto* vr = src.row(r) + c0;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < 8; ++j) {
        zv[j] = _mm256_fmadd_ps(src.load8(vr + 8 * j), wv, zv[j]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) _mm256_storeu_ps(z + c0 + 8 * j, zv[j]);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    const __m256 wv = _mm256_set1_ps(wr);
    const auto* vr = src.row(r);
    std::size_t c = c0;
    for (; c + 8 <= d_head; c += 8) {
      _mm256_storeu_ps(z + c, _mm256_fmadd_ps(src.load8(vr + c), wv,
                                              _mm256_loadu_ps(z + c)));
    }
    for (; c < d_head; ++c) z[c] += wr * src.at(vr + c);
  }
}

// Widest input row the multi-row matvec bodies tile (16 KB of stack for
// four widened rows); wider shapes take dot_rows once per input row.
constexpr std::size_t kTileCols = 512;

// Four input rows x (row-major, cols apart) against every weight row, into
// y (rows apart). The input rows' 8-column bodies are widened to double
// once, into a stack tile; each weight row's 8 columns are then widened
// once for all four. Every (weight row, input row) pair advances its own
// acc0/acc1 with dot_row's exact sequence and gets the same hsum and
// scalar tail, so each output is bitwise a one-row call's.
void matvec_rows4(const float* w, std::size_t rows, std::size_t cols,
                  const float* x, float* y) {
  __m256d tile[kTileCols / 8][4][2];
  const std::size_t body = cols / 8 * 8;
  const float* x0 = x;
  const float* x1 = x + cols;
  const float* x2 = x + 2 * cols;
  const float* x3 = x + 3 * cols;
  for (std::size_t i = 0; i < body; i += 8) {
    __m256d(&t)[4][2] = tile[i / 8];
    F32Rows::load8_pd(x0 + i, t[0][0], t[0][1]);
    F32Rows::load8_pd(x1 + i, t[1][0], t[1][1]);
    F32Rows::load8_pd(x2 + i, t[2][0], t[2][1]);
    F32Rows::load8_pd(x3 + i, t[3][0], t[3][1]);
  }
  const F32Rows src{w, cols};
  for (std::size_t r = 0; r < rows; ++r) {
    const float* wr = src.row(r);
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < body; i += 8) {
      const __m256d(&t)[4][2] = tile[i / 8];
      __m256d lo, hi;
      F32Rows::load8_pd(wr + i, lo, hi);
      a00 = _mm256_fmadd_pd(lo, t[0][0], a00);
      a01 = _mm256_fmadd_pd(hi, t[0][1], a01);
      a10 = _mm256_fmadd_pd(lo, t[1][0], a10);
      a11 = _mm256_fmadd_pd(hi, t[1][1], a11);
      a20 = _mm256_fmadd_pd(lo, t[2][0], a20);
      a21 = _mm256_fmadd_pd(hi, t[2][1], a21);
      a30 = _mm256_fmadd_pd(lo, t[3][0], a30);
      a31 = _mm256_fmadd_pd(hi, t[3][1], a31);
    }
    y[r] = dot_tail(x0, src, wr, body, cols, hsum(a00, a01));
    y[rows + r] = dot_tail(x1, src, wr, body, cols, hsum(a10, a11));
    y[2 * rows + r] = dot_tail(x2, src, wr, body, cols, hsum(a20, a21));
    y[3 * rows + r] = dot_tail(x3, src, wr, body, cols, hsum(a30, a31));
  }
}

// Two input rows (a 2- or 3-row verify burst, or a chunk's leftover pair)
// against the weight rows two at a time: widened into a tile like
// matvec_rows4, with two weight rows sharing each tile load so eight FMA
// chains stay in flight. Each (weight row, input row) pair keeps dot_row's
// exact sequence; an odd last weight row takes dot_row itself.
void matvec_rows2(const float* w, std::size_t rows, std::size_t cols,
                  const float* x, float* y) {
  __m256d tile[kTileCols / 8][2][2];
  const std::size_t body = cols / 8 * 8;
  const float* x0 = x;
  const float* x1 = x + cols;
  for (std::size_t i = 0; i < body; i += 8) {
    F32Rows::load8_pd(x0 + i, tile[i / 8][0][0], tile[i / 8][0][1]);
    F32Rows::load8_pd(x1 + i, tile[i / 8][1][0], tile[i / 8][1][1]);
  }
  const F32Rows src{w, cols};
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const float* w0 = src.row(r);
    const float* w1 = src.row(r + 1);
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d b00 = _mm256_setzero_pd(), b01 = _mm256_setzero_pd();
    __m256d b10 = _mm256_setzero_pd(), b11 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < body; i += 8) {
      const __m256d(&t)[2][2] = tile[i / 8];
      __m256d lo0, hi0, lo1, hi1;
      F32Rows::load8_pd(w0 + i, lo0, hi0);
      F32Rows::load8_pd(w1 + i, lo1, hi1);
      a00 = _mm256_fmadd_pd(lo0, t[0][0], a00);
      a01 = _mm256_fmadd_pd(hi0, t[0][1], a01);
      a10 = _mm256_fmadd_pd(lo0, t[1][0], a10);
      a11 = _mm256_fmadd_pd(hi0, t[1][1], a11);
      b00 = _mm256_fmadd_pd(lo1, t[0][0], b00);
      b01 = _mm256_fmadd_pd(hi1, t[0][1], b01);
      b10 = _mm256_fmadd_pd(lo1, t[1][0], b10);
      b11 = _mm256_fmadd_pd(hi1, t[1][1], b11);
    }
    y[r] = dot_tail(x0, src, w0, body, cols, hsum(a00, a01));
    y[rows + r] = dot_tail(x1, src, w0, body, cols, hsum(a10, a11));
    y[r + 1] = dot_tail(x0, src, w1, body, cols, hsum(b00, b01));
    y[rows + r + 1] = dot_tail(x1, src, w1, body, cols, hsum(b10, b11));
  }
  if (r < rows) {
    y[r] = dot_row(x0, src, r, cols);
    y[rows + r] = dot_row(x1, src, r, cols);
  }
}

// n input rows: whole 4-row blocks through matvec_rows4, then a leftover
// pair through matvec_rows2; a last odd row (and every row of a shape
// wider than the tile) takes dot_rows, one input row at a time.
void avx2_matvec(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, std::size_t n, float* y) {
  std::size_t i = 0;
  if (cols <= kTileCols) {
    for (; i + 4 <= n; i += 4) {
      matvec_rows4(w, rows, cols, x + i * cols, y + i * rows);
    }
    if (i + 2 <= n) {
      matvec_rows2(w, rows, cols, x + i * cols, y + i * rows);
      i += 2;
    }
  }
  for (; i < n; ++i) {
    dot_rows(x + i * cols, F32Rows{w, cols}, rows, cols, y + i * rows);
  }
}

void avx2_axpy(float a, const float* x, float* y, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(_mm256_loadu_ps(x + i), av,
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void avx2_scale(float s, float* x, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= s;
}

// Scores are the float dots times `scale`, rounded once more in float.
template <typename Rows>
void scores_rows(const float* q, const Rows& src, std::size_t rows,
                 std::size_t d_head, float scale, float* out) {
  dot_rows(q, src, rows, d_head, out);
  for (std::size_t r = 0; r < rows; ++r) out[r] *= scale;
}

void avx2_attend_scores(const float* q, const float* k, std::size_t rows,
                        std::size_t stride, std::size_t d_head, float scale,
                        float* out) {
  scores_rows(q, F32Rows{k, stride}, rows, d_head, scale, out);
}

void avx2_attend_accum(const float* w, const float* v, std::size_t rows,
                       std::size_t stride, std::size_t d_head, float* z) {
  accum_rows(w, F32Rows{v, stride}, rows, d_head, z);
}

void avx2_dequant_scores_int8(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, float s, float scale,
                              float* out) {
  scores_rows(q, Int8Rows{k_codes, stride, s}, rows, d_head, scale, out);
}

// Whether every code 0..126 decodes to a normal float under `exponent`,
// so a segment can take the normal-range Log2Rows body.
inline bool log2_normal_range(int exponent) {
  return exponent >= 0 && exponent <= 127;
}

void avx2_dequant_scores_log2(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, int exponent, float scale,
                              float* out) {
  if (log2_normal_range(exponent)) {
    scores_rows(q, Log2Rows<true>{k_codes, stride, exponent}, rows, d_head,
                scale, out);
  } else {
    scores_rows(q, Log2Rows<false>{k_codes, stride, exponent}, rows, d_head,
                scale, out);
  }
}

void avx2_dequant_accum_int8(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, float s, float* z) {
  accum_rows(w, Int8Rows{v_codes, stride, s}, rows, d_head, z);
}

void avx2_dequant_accum_log2(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, int exponent, float* z) {
  if (log2_normal_range(exponent)) {
    accum_rows(w, Log2Rows<true>{v_codes, stride, exponent}, rows, d_head, z);
  } else {
    accum_rows(w, Log2Rows<false>{v_codes, stride, exponent}, rows, d_head, z);
  }
}

// --- MX fake-quant ----------------------------------------------------------
// Bitwise mx_quantize_scalar (quant/mx_block.cpp), with no tolerance: the
// selection is integer work, and every float step of the shifter is exact
// (scaling by powers of two, saturating, flooring).
//
// Selection, per block: keys[i] = (bits(x_i) & 0x7FFFFFFF) + 1, and 0 past
// the block's end. Each of the min(n, len) picks takes the largest key and
// zeroes its first index, which is select_block_outliers' order (magnitude
// bits, ties to the lower index); a zero key then marks an outlier. The
// largest key left, minus 1 (0 when none is left), is the rest key, whose
// bf16 exponent is the block's shared scale.
//
// Shifter, 8 lanes at a time and branch-free: round to bf16 (NaN kept
// quiet), q = floor(min(|bf16| / step, max_code) + half) with half 1/2
// (nearest) or 0 (truncate), NaN to 0, and q * step with x's sign (a zero
// code is +0); an outlier lane takes its bf16 value instead.

// Blocks longer than this run the scalar body (the keys live on the stack).
constexpr std::size_t kMxMaxBlock = 256;
// Keys one row keeps on the stack between its two passes: 32 blocks of 128.
constexpr std::size_t kMxRowKeys = 4096;
// bf16_exponent_of's value for zero and subnormals (format.h's
// kZeroExponent): the scale an all-zero block reports.
constexpr int kMxZeroScale = -127;

// bf16_exponent_of(f32_from_bits(key)) for a magnitude key.
int mx_key_scale(std::uint32_t key) {
  if (key > 0x7F800000u) return 127;  // NaN
  const std::uint32_t biased =
      ((key + 0x7FFFu + ((key >> 16) & 1u)) >> 16) >> kBF16MantissaBits;
  if (biased == 0) return kMxZeroScale;
  if (biased == 0xFF) return 127;  // inf, or rounded up to it
  return static_cast<int>(biased) - kBF16ExponentBias;
}

// Lanes [0, len) of 8 set, for a block's last partial vector.
inline __m256i mx_lanes(std::size_t len) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(len)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

inline __m256i mx_load(const std::uint32_t* keys) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(keys));
}

// Lane-wise max of the four key vectors of one 32-key group.
inline __m256i mx_group_max(const std::uint32_t* group) {
  return _mm256_max_epu32(
      _mm256_max_epu32(mx_load(group), mx_load(group + 8)),
      _mm256_max_epu32(mx_load(group + 16), mx_load(group + 24)));
}

// The largest lane of v, in every lane.
inline __m256i mx_broadcast_max(__m256i v) {
  v = _mm256_max_epu32(v, _mm256_permute2x128_si256(v, v, 1));
  v = _mm256_max_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm256_max_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
}

// One bit per lane of v equal to `top`, 8 bits per vector.
inline std::uint32_t mx_hits(__m256i v, __m256i top) {
  return static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, top))));
}

// Fills keys[0, 32 * ceil(len / 32)) for the block x[0, len), zeroes its
// min(n, len) outliers' keys and returns its shared scale. The keys sit in
// groups of 32 whose lane-wise maxima `group_max` tracks, so a pick is
// branch-free: the first group holding the largest key, then its first
// lane holding it.
int mx_select(const float* x, std::size_t len, std::size_t n,
              std::uint32_t* keys) {
  const __m256i magnitude = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i one = _mm256_set1_epi32(1);
  const std::size_t groups = (len + 31) / 32;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(keys + i),
                       _mm256_add_epi32(_mm256_and_si256(b, magnitude), one));
  }
  if (i < len) {
    const __m256i lanes = mx_lanes(len - i);
    const __m256i b = _mm256_castps_si256(_mm256_maskload_ps(x + i, lanes));
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(keys + i),
        _mm256_and_si256(
            _mm256_add_epi32(_mm256_and_si256(b, magnitude), one), lanes));
    i += 8;
  }
  for (; i < 32 * groups; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(keys + i),
                       _mm256_setzero_si256());
  }
  __m256i group_max[kMxMaxBlock / 32];
  for (std::size_t g = 0; g < groups; ++g) {
    group_max[g] = mx_group_max(keys + 32 * g);
  }
  const auto largest = [&] {
    __m256i m = _mm256_setzero_si256();
    for (std::size_t g = 0; g < groups; ++g) {
      m = _mm256_max_epu32(m, group_max[g]);
    }
    return mx_broadcast_max(m);
  };
  for (std::size_t j = 0; j < std::min(n, len); ++j) {
    const __m256i top = largest();
    std::uint64_t group_hits = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      group_hits |= std::uint64_t{mx_hits(group_max[g], top)} << (8 * g);
    }
    const auto g = static_cast<std::size_t>(__builtin_ctzll(group_hits)) / 8;
    std::uint32_t* group = keys + 32 * g;
    __m256i v[4];
    std::uint32_t hits = 0;
    for (int q = 0; q < 4; ++q) {
      v[q] = mx_load(group + 8 * q);
      hits |= mx_hits(v[q], top) << (8 * q);
    }
    // Zero the first hit's key in registers, then refresh the group's max
    // from them; the stores stay off the next pick's path.
    const __m256i at =
        _mm256_set1_epi32(static_cast<int>(__builtin_ctz(hits)));
    for (int q = 0; q < 4; ++q) {
      v[q] = _mm256_andnot_si256(
          _mm256_cmpeq_epi32(at, _mm256_setr_epi32(8 * q, 8 * q + 1,
                                                   8 * q + 2, 8 * q + 3,
                                                   8 * q + 4, 8 * q + 5,
                                                   8 * q + 6, 8 * q + 7)),
          v[q]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(group + 8 * q), v[q]);
    }
    group_max[g] = _mm256_max_epu32(_mm256_max_epu32(v[0], v[1]),
                                    _mm256_max_epu32(v[2], v[3]));
  }
  const auto rest = static_cast<std::uint32_t>(
      _mm256_cvtsi256_si32(largest()));
  return mx_key_scale(rest == 0 ? 0 : rest - 1);
}

// Writes the block x[0, len) to y: each element's code on the grid of step
// 2^step_exp times the step, or its bf16 value where its key is 0. The code
// is mx_code_of_bf16's, computed in float where every step is exact: the
// bf16 magnitude times 2^-step_exp is sig * 2^-shift exactly (overflow
// only past every code, underflow only below 1/2), saturated, plus 1/2
// (nearest) or 0 (truncate), floored.
void mx_shift_block(const float* x, std::size_t len,
                    const std::uint32_t* keys, int step_exp, int max_code,
                    bool truncate, float* y) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i high16 = _mm256_set1_epi32(static_cast<int>(0xFFFF0000u));
  const __m256i magnitude = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256 sign_bit = _mm256_castsi256_ps(
      _mm256_set1_epi32(static_cast<int>(0x80000000u)));
  const __m256 max_q = _mm256_set1_ps(static_cast<float>(max_code));
  const __m256 half = _mm256_set1_ps(truncate ? 0.0f : 0.5f);
  // 1 / step as two powers of two: 2^139 is past float's range.
  const __m256 inv1 = _mm256_set1_ps(exp2i_subnormal(std::min(-step_exp, 127)));
  const __m256 inv2 = _mm256_set1_ps(exp2i(std::max(-step_exp - 127, 0)));
  const __m256 step = _mm256_set1_ps(exp2i_subnormal(step_exp));
  for (std::size_t i = 0; i < len; i += 8) {
    const bool tail = len - i < 8;
    const __m256i lanes = tail ? mx_lanes(len - i) : _mm256_set1_epi32(-1);
    const __m256i b = _mm256_castps_si256(
        tail ? _mm256_maskload_ps(x + i, lanes) : _mm256_loadu_ps(x + i));
    // to_bf16(x) as binary32 bits: NaN keeps its sign and top payload with
    // the quiet bit set, the rest round to nearest even.
    const __m256i nan =
        _mm256_cmpgt_epi32(_mm256_and_si256(b, magnitude),
                           _mm256_set1_epi32(0x7F800000));
    const __m256i bias = _mm256_add_epi32(
        _mm256_set1_epi32(0x7FFF),
        _mm256_and_si256(_mm256_srli_epi32(b, 16), one));
    const __m256i rounded =
        _mm256_and_si256(_mm256_add_epi32(b, bias), high16);
    const __m256i quiet = _mm256_and_si256(
        _mm256_or_si256(b, _mm256_set1_epi32(0x00400000)), high16);
    const __m256i h = _mm256_blendv_epi8(rounded, quiet, nan);
    // |h| / step, saturated, rounded to its code; NaN codes to 0.
    const __m256 t = _mm256_min_ps(
        _mm256_mul_ps(
            _mm256_mul_ps(
                _mm256_castsi256_ps(_mm256_and_si256(h, magnitude)), inv1),
            inv2),
        max_q);
    const __m256 q = _mm256_andnot_ps(
        _mm256_castsi256_ps(nan),
        _mm256_round_ps(_mm256_add_ps(t, half),
                        _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));
    // q * step with x's sign; adding +0 turns a -0 into the +0 that
    // float(code) * step gives for code 0.
    const __m256 signed_step =
        _mm256_xor_ps(step, _mm256_and_ps(_mm256_castsi256_ps(b), sign_bit));
    const __m256 value =
        _mm256_add_ps(_mm256_mul_ps(q, signed_step), _mm256_setzero_ps());
    const __m256i key =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256 out = _mm256_blendv_ps(
        value, _mm256_castsi256_ps(h),
        _mm256_castsi256_ps(
            _mm256_cmpeq_epi32(key, _mm256_setzero_si256())));
    if (tail) {
      _mm256_maskstore_ps(y + i, lanes, out);
    } else {
      _mm256_storeu_ps(y + i, out);
    }
  }
}

void avx2_mx_quantize(const float* in, std::size_t n, std::size_t width,
                      std::size_t block_size, int bits, std::size_t outliers,
                      bool truncate, float* out) {
  if (block_size > kMxMaxBlock) {
    return mx_quantize_scalar(in, n, width, block_size, bits, outliers,
                              truncate, out);
  }
  // Each block's keys take whole 32-key groups. A row whose keys all fit
  // keeps them from the scale pass for the write pass; a longer one
  // selects each block again before writing it.
  alignas(32) std::uint32_t keys[kMxRowKeys];
  int scales[kMxRowKeys / 32];
  const std::size_t k = block_size;
  const std::size_t stride = (k + 31) / 32 * 32;
  const std::size_t blocks = (width + k - 1) / k;
  const bool kept = blocks * stride <= kMxRowKeys;
  const int max_code = (1 << (bits - 1)) - 1;
  for (std::size_t r = 0; r < n; ++r, in += width, out += width) {
    // The global scale is the lowest nonzero block scale (0 if none).
    int lowest = INT_MAX;
    for (std::size_t b = 0; b < blocks; ++b) {
      const int scale = mx_select(in + b * k, std::min(k, width - b * k),
                                  outliers, kept ? keys + b * stride : keys);
      if (kept) scales[b] = scale;
      if (scale != kMxZeroScale) lowest = std::min(lowest, scale);
    }
    const int global = lowest == INT_MAX ? 0 : lowest;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t len = std::min(k, width - b * k);
      std::uint32_t* block_keys = kept ? keys + b * stride : keys;
      const int scale = kept ? scales[b]
                             : mx_select(in + b * k, len, outliers, block_keys);
      // effective_block_scale: a 4-bit offset over the global scale.
      const int effective = scale == kMxZeroScale
                                ? global
                                : global + std::clamp(scale - global, 0, 15);
      mx_shift_block(in + b * k, len, block_keys, effective - (bits - 2),
                     max_code, truncate, out + b * k);
    }
  }
}

constexpr KernelOps kAvx2Ops = {
    "avx2",
    avx2_matvec,
    avx2_axpy,
    avx2_scale,
    avx2_attend_scores,
    avx2_attend_accum,
    avx2_dequant_scores_int8,
    avx2_dequant_scores_log2,
    avx2_dequant_accum_int8,
    avx2_dequant_accum_log2,
    avx2_mx_quantize,
};

}  // namespace

// Probe for kernels.cpp's resolve chain: table only when the running CPU has
// both AVX2 and FMA.
const KernelOps* opal_avx2_kernels() {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2Ops;
  }
  return nullptr;
}

}  // namespace opal

#endif  // x86
