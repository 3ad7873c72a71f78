// SIMD kernel layer for the serving hot path: the ten primitives a decode
// step runs — vectorized GEMV, axpy and scale, the attention score /
// weighted-sum kernels over row-major KV segments, their fused dequantize
// twins that consume quantized KV block codes directly, and the MX
// (MXINT / MX-OPAL) activation fake-quant.
//
// ## Dispatch rules
//
// All kernels are reached through a function-pointer table (`KernelOps`)
// resolved once at first use:
//
//   1. If the environment variable OPAL_FORCE_SCALAR_KERNELS is set to
//      anything but "0"/"", the scalar reference table is pinned.
//   2. Otherwise the best table the *running* CPU supports wins: AVX2+FMA on
//      x86-64 (checked with __builtin_cpu_supports at runtime, so a binary
//      built on a newer machine still runs on an older one), NEON on
//      AArch64.
//   3. Otherwise the scalar reference table is used.
//
// Tests and benches can override the resolution at runtime with
// set_force_scalar_kernels(); the scalar table is always compiled, on every
// architecture, and is the behavioral reference for everything else.
//
// ## Numerical contract (the bitwise-reference guarantee)
//
// * The scalar table is the reference. kernels.cpp is compiled with
//   -ffp-contract=off, so its arithmetic is exactly the source-order IEEE
//   sequence written there.
// * SIMD tables' arithmetic kernels are *tolerance*-equal to scalar
//   (vector lanes change the reduction order of dot products; mx_quantize,
//   below, is exact), and every table is deterministic: the same inputs
//   through the same table give the same bits, every time.
// * Within one table, `matvec`, `attend_scores` and `dequant_scores_*` are
//   built on file-local dot bodies with one accumulation structure (vector
//   body + sequential scalar tail), in double in every table.
// * Blocking never changes a bit. A SIMD body may interleave independent
//   output rows (to overlap FMA latency), share one widened weight vector
//   across several input rows, or hold output columns in registers across
//   input rows, but it never reorders any single output's accumulation. So
//   within ANY single table, a multi-row call equals one `rows = 1` call
//   per row, bitwise: `matvec` / `*_scores` row by row, and `*_accum` over
//   R rows as R successive one-row calls on the same z. Likewise an
//   `n`-input-row `matvec` equals n `n = 1` calls, one per input row.
// * Fused dequantize kernels decode quantized codes to *exactly* the floats
//   KvBlockPool::read_row produces (int8: float(code) * (scale/127); log2:
//   kv_decode_log2 below) and accumulate them with exactly the structure of
//   their plain twin. Hence within ANY single table, over the decoded rows:
//     dequant_scores_* == attend_scores   and
//     dequant_accum_*  == attend_accum,   bitwise —
//   fusion removes the fp32 scratch materialization, never a bit of the
//   result. A fused decoder may pick its body once per segment from the
//   block scale (AVX2's log2 decode has a normal-range body for exponents
//   0..127, where no code decodes to a denormal or an infinity), provided
//   every body yields the same floats.
// * `mx_quantize` is integer work (selection on magnitude bits, shifts,
//   one exact float multiply per element), so it has no tolerance: every
//   table's entry is BITWISE equal to the scalar table's, on every input
//   (NaN, infinities and subnormals included), and an n-row call equals n
//   one-row calls.
//
// ## Adding an ISA variant
//
// 1. Add src/common/kernels_<isa>.cpp defining every KernelOps entry, with
//    one accumulation structure (vector body + sequential scalar tail) for
//    the dot bodies under matvec / attend_scores / dequant_scores_* and
//    each dequant_accum_* mirroring attend_accum's, blocked across rows or
//    columns only as the contract above allows, guarded by the
//    architecture's predefine (e.g. #if defined(__riscv_vector)).
//    `mx_quantize` must be bitwise the scalar body's; until a vector body
//    is written and tested, point the entry at mx_quantize_scalar.
// 2. Give the TU its ISA flags in CMakeLists.txt (-ffp-contract=off is
//    tree-wide), keyed on CMAKE_SYSTEM_PROCESSOR, and declare its
//    `const KernelOps* opal_<isa>_kernels()` probe in kernels.cpp's resolve
//    chain (return nullptr when the running CPU lacks the extension).
// 3. tests/test_kernels.cpp and bench/bench_kernels.cpp pick the new table
//    up automatically through simd_kernels().
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace opal {

/// The kernel function table one CPU dispatch target provides. All pointers
/// are always non-null. Spans are passed as raw pointer + length because the
/// hot path has already validated sizes once at its entry (see
/// common/tensor.cpp) — kernels do no per-row checking.
struct KernelOps {
  /// Dispatch target name: "scalar", "avx2", "neon".
  const char* name;

  /// y[i*rows + r] = sum_c w[r, c] * x[i*cols + c] for a row-major
  /// [rows x cols] matrix and n input rows: x is [n x cols] and y is
  /// [n x rows], both row-major (accumulated in double). One n-row call is
  /// bitwise equal to n one-row calls.
  void (*matvec)(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, std::size_t n, float* y);

  /// y[i] += a * x[i].
  void (*axpy)(float a, const float* x, float* y, std::size_t n);

  /// x[i] *= s.
  void (*scale)(float s, float* x, std::size_t n);

  /// Attention scores over one row-major KV segment:
  ///   out[r] = (sum_c q[c] * k[r*stride + c]) * scale    for r in [0, rows)
  /// (the sum over c accumulated in double, the product with `scale` in
  /// float).
  void (*attend_scores)(const float* q, const float* k, std::size_t rows,
                        std::size_t stride, std::size_t d_head, float scale,
                        float* out);

  /// Attention weighted value sum over one row-major KV segment:
  ///   z[c] += w[r] * v[r*stride + c]    for r in [0, rows), c in [0, d_head)
  /// rows outer, c inner — the order attention has always accumulated in.
  void (*attend_accum)(const float* w, const float* v, std::size_t rows,
                       std::size_t stride, std::size_t d_head, float* z);

  // --- fused dequantize kernels (quantized KV blocks, no fp32 scratch) ----

  /// attend_scores against int8 K codes: each code decodes in-register to
  /// float(code) * s (s = block amax / 127, pre-divided by the caller, the
  /// exact value KvBlockPool::read_row multiplies by).
  void (*dequant_scores_int8)(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, float s, float scale,
                              float* out);

  /// attend_scores against log2-7bit K codes (sign | 7-bit code, block
  /// scale 2^exponent), decoded in-register via kv_decode_log2 — shift-based
  /// scaling, no multiply needed to form the magnitude.
  void (*dequant_scores_log2)(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, int exponent, float scale,
                              float* out);

  /// attend_accum against int8 V codes: z[c] += w[r] * decode(v_codes[...]).
  void (*dequant_accum_int8)(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, float s, float* z);

  /// attend_accum against log2 V codes.
  void (*dequant_accum_log2)(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, int exponent, float* z);

  // --- activation quantization ----------------------------------------------

  /// MX fake-quant (quantize then dequantize, quant/mx_block.h) of n
  /// independent rows of `width` floats: row i is in[i*width, (i+1)*width),
  /// written to the same range of `out`, and is its own tensor with its own
  /// global scale. The format is block_size elements per block, `bits`
  /// per code (2..15), the top `outliers` magnitudes per block kept at
  /// bf16 (0: MXINT), and shifted-out bits truncated or rounded half away
  /// from zero. `in == out` is allowed. Bitwise equal to
  /// mx_quantize_scalar in every table.
  void (*mx_quantize)(const float* in, std::size_t n, std::size_t width,
                      std::size_t block_size, int bits, std::size_t outliers,
                      bool truncate, float* out);
};

/// The scalar table's mx_quantize: quant/mx_block.cpp's block kernel, one
/// row after another. It is the reference every table's entry equals
/// bitwise. No allocation for up to 16 outliers per block.
void mx_quantize_scalar(const float* in, std::size_t n, std::size_t width,
                        std::size_t block_size, int bits, std::size_t outliers,
                        bool truncate, float* out);

/// The active kernel table (resolved once per the dispatch rules above).
[[nodiscard]] const KernelOps& kernels();

/// The always-available scalar reference table.
[[nodiscard]] const KernelOps& scalar_kernels();

/// The best SIMD table the running CPU supports, or nullptr when only the
/// scalar reference is available (bench/tests compare it against scalar
/// without flipping the global dispatch).
[[nodiscard]] const KernelOps* simd_kernels();

/// Pins (true) or releases (false) the scalar reference table, overriding
/// both the CPU probe and the OPAL_FORCE_SCALAR_KERNELS environment switch.
/// Intended for tests and benches; not thread-safe against concurrent
/// kernel use (flip it between runs, not during one).
void set_force_scalar_kernels(bool force);

/// Installs `table` as the active dispatch target, bypassing the resolve
/// chain entirely — the interposition hook KernelProfiler uses to swap in
/// its timing wrapper. Passing nullptr drops back to lazy re-resolution
/// (env switch, CPU probe, scalar fallback) on the next kernels() call.
/// Same thread-safety contract as set_force_scalar_kernels.
void set_active_kernels(const KernelOps* table);

// --- log2-7bit KV code layout -----------------------------------------------
// Shared between KvBlockPool (encode/rescale/read_row) and the fused kernels
// (in-register decode): one definition, so "fused == gather" stays bitwise.

inline constexpr int kKvLog2CodeBits = 7;
inline constexpr int kKvLog2CodeMax = (1 << kKvLog2CodeBits) - 1;  // 127
inline constexpr std::uint8_t kKvLog2SignBit = 0x80;

/// Decodes one stored log2 KV byte (sign | 7-bit code) under block scale
/// 2^exponent: |v| = 2^(exponent - code); code 127 decodes to exactly +0.
[[nodiscard]] inline float kv_decode_log2(std::int8_t stored,
                                          int exponent) noexcept {
  const auto byte = static_cast<std::uint8_t>(stored);
  const int code = byte & kKvLog2CodeMax;
  if (code == kKvLog2CodeMax) return 0.0f;
  const float mag = std::exp2(static_cast<float>(exponent - code));
  return (byte & kKvLog2SignBit) ? -mag : mag;
}

}  // namespace opal
