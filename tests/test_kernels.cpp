// Kernel-layer contract tests (common/kernels.h):
//  * dispatch honors the runtime switches and always yields usable tables;
//  * the dispatched SIMD table matches the scalar reference within
//    reduction-reorder tolerance across odd lengths, unaligned spans, and
//    tails;
//  * fused dequantize kernels are BITWISE equal to decode-into-scratch
//    then plain-kernel (dequant_scores_* == attend_scores, dequant_accum_*
//    == attend_accum), within each table — the guarantee the quantized
//    attend path builds on;
//  * attention over a PagedKvCache's per-block segments (float spans for
//    fp32 pools, code segments for int8/log2) is BITWISE equal to the plain
//    kernels over PagedKvCache::gather()'s floats as one contiguous
//    segment, within each table, across scale growth and mid-block
//    rescales;
//  * blocking never changes a row's bits: a multi-row call of any dot- or
//    accumulate-shaped kernel is BITWISE equal to one single-row call per
//    row, and an n-input-row matvec to n one-input-row calls, within each
//    table;
//  * the in-register log2/int8 decodes match KvBlockPool's scalar decode
//    exactly for every byte value;
//  * mx_quantize is BITWISE equal in every table to the scalar body (and
//    that to tests/mx_reference.h) on every input, NaN and inf included,
//    and an n-row call equals n one-row calls;
//  * end-to-end: ServingEngine token streams agree between SIMD and
//    forced-scalar kernels in every kv_mode.
#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "eval/schemes.h"
#include "kv_read_reference.h"
#include "llm/paged_kv_cache.h"
#include "llm/serving_engine.h"
#include "mx_reference.h"

namespace opal {
namespace {

using kv_read_reference::gather;

// Deterministic LCG so test data is identical across runs and platforms.
std::uint64_t lcg_state = 0x9e3779b97f4a7c15ull;
float frand() {
  lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<float>((lcg_state >> 33) & 0xffffff) / 0x1000000p0f *
             4.0f -
         2.0f;
}

std::vector<float> rand_vec(std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = frand();
  return v;
}

std::vector<std::int8_t> rand_codes(std::size_t n, bool log2_mode) {
  std::vector<std::int8_t> v(n);
  for (auto& c : v) {
    lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
    const auto byte = static_cast<std::uint8_t>(lcg_state >> 40);
    if (log2_mode) {
      c = static_cast<std::int8_t>(byte);  // any sign|code byte is valid
    } else {
      const int q = static_cast<int>(byte) - 128;
      c = static_cast<std::int8_t>(q == -128 ? -127 : q);  // int8 uses ±127
    }
  }
  return v;
}

// Lengths exercising the 8-wide vector body, the scalar tail (1..7), and
// both at once.
const std::size_t kLengths[] = {1, 2, 3, 5, 7, 8, 9, 13, 16,
                                17, 24, 31, 33, 64, 100, 257};

class KernelDispatch : public ::testing::Test {
 protected:
  void TearDown() override { set_force_scalar_kernels(false); }
};

TEST_F(KernelDispatch, ForceScalarSwitchPinsAndReleases) {
  set_force_scalar_kernels(true);
  EXPECT_STREQ(kernels().name, "scalar");
  set_force_scalar_kernels(false);
  if (simd_kernels() != nullptr) {
    EXPECT_STREQ(kernels().name, simd_kernels()->name);
  } else {
    EXPECT_STREQ(kernels().name, "scalar");
  }
}

TEST(Kernels, ScalarTableAlwaysAvailable) {
  const KernelOps& ops = scalar_kernels();
  EXPECT_STREQ(ops.name, "scalar");
  // The scalar reference is the plain double-accumulated loop, cast once
  // and then scaled in float.
  const std::size_t rows = 3, stride = 19, d_head = 16;
  const auto q = rand_vec(d_head), k = rand_vec(rows * stride);
  std::vector<float> out(rows);
  ops.attend_scores(q.data(), k.data(), rows, stride, d_head, 0.5f,
                    out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    double ref = 0.0;
    for (std::size_t c = 0; c < d_head; ++c) {
      ref += static_cast<double>(q[c]) *
             static_cast<double>(k[r * stride + c]);
    }
    EXPECT_EQ(out[r], static_cast<float>(ref) * 0.5f) << "row " << r;
  }
}

// --- dispatched vs scalar: tolerance across lengths / alignments ------------

void expect_near_rel(float got, float want, const char* what, std::size_t n) {
  const float tol = 1e-5f * (1.0f + std::fabs(want));
  EXPECT_NEAR(got, want, tol) << what << " n=" << n;
}

TEST(KernelsSimd, DotMatchesScalarAcrossLengthsAndAlignment) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t n : kLengths) {
    // +3 slack so the same data can be re-read at unaligned offsets.
    const auto a = rand_vec(n + 3), b = rand_vec(n + 3);
    // attend_scores over one row with scale 1 is the table's dot body.
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
      float got = 0.0f, want = 0.0f;
      simd->attend_scores(a.data() + off, b.data() + off, 1, n, n, 1.0f,
                          &got);
      ref.attend_scores(a.data() + off, b.data() + off, 1, n, n, 1.0f,
                        &want);
      expect_near_rel(got, want, "dot", n);
    }
  }
}

TEST(KernelsSimd, MatvecMatchesScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  const auto check = [&](std::size_t rows, std::size_t cols) {
    const auto w = rand_vec(rows * cols);
    const auto x = rand_vec(cols);
    std::vector<float> y_simd(rows), y_ref(rows);
    simd->matvec(w.data(), rows, cols, x.data(), 1, y_simd.data());
    ref.matvec(w.data(), rows, cols, x.data(), 1, y_ref.data());
    for (std::size_t r = 0; r < rows; ++r) {
      expect_near_rel(y_simd[r], y_ref[r], "matvec", cols);
    }
  };
  for (const std::size_t cols : {3u, 8u, 17u, 33u}) {
    for (const std::size_t rows : {1u, 5u, 16u}) check(rows, cols);
  }
  // Served widths: whole row blocks, a row remainder, and a column tail.
  for (const std::size_t cols : {128u, 130u}) {
    for (const std::size_t rows : {4u, 7u, 128u}) check(rows, cols);
  }
}

TEST(KernelsSimd, AxpyAndScaleMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t n : kLengths) {
    const auto x = rand_vec(n);
    auto y_simd = rand_vec(n);
    auto y_ref = y_simd;
    auto y1_simd = y_simd;
    auto y1_ref = y_simd;
    // General a: SIMD fuses the multiply-add (one rounding) where the
    // scalar reference rounds twice, so the match is tolerance-level...
    simd->axpy(0.37f, x.data(), y_simd.data(), n);
    ref.axpy(0.37f, x.data(), y_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_near_rel(y_simd[i], y_ref[i], "axpy", n);
    }
    // ...but a == 1.0 (the residual-add case the model layers use) and
    // scale (a single multiply per lane) are exact in every table.
    simd->axpy(1.0f, x.data(), y1_simd.data(), n);
    ref.axpy(1.0f, x.data(), y1_ref.data(), n);
    EXPECT_EQ(y1_simd, y1_ref) << "axpy(1.0) n=" << n;
    simd->scale(1.73f, y1_simd.data(), n);
    ref.scale(1.73f, y1_ref.data(), n);
    EXPECT_EQ(y1_simd, y1_ref) << "scale n=" << n;
  }
}

TEST(KernelsSimd, AttendPrimitivesMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  const std::size_t rows = 9, stride = 24, d_head = 20;  // d_head % 8 != 0
  const auto q = rand_vec(d_head);
  const auto kv = rand_vec(rows * stride);
  const auto w = rand_vec(rows);
  std::vector<float> s_simd(rows), s_ref(rows);
  simd->attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.25f,
                      s_simd.data());
  ref.attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.25f,
                    s_ref.data());
  for (std::size_t r = 0; r < rows; ++r) {
    expect_near_rel(s_simd[r], s_ref[r], "attend_scores", d_head);
  }
  std::vector<float> z_simd(d_head, 0.0f), z_ref(d_head, 0.0f);
  simd->attend_accum(w.data(), kv.data(), rows, stride, d_head,
                     z_simd.data());
  ref.attend_accum(w.data(), kv.data(), rows, stride, d_head, z_ref.data());
  for (std::size_t c = 0; c < d_head; ++c) {
    expect_near_rel(z_simd[c], z_ref[c], "attend_accum", rows);
  }
}

// --- fused == decode-then-plain, bitwise, per table -------------------------

void check_fused_bitwise(const KernelOps& ops) {
  // Strided score/accum forms over every d_head in kLengths: vector body
  // only, tail only, and both. Log2 codes decode under exponent -2 and 3,
  // so both AVX2 log2 bodies run.
  const std::size_t rows = 7;
  const float s = 0.004f;
  for (const std::size_t d_head : kLengths) {
    const std::size_t stride = d_head + 5;
    const auto q = rand_vec(d_head);
    const auto w = rand_vec(rows);
    const auto k8 = rand_codes(rows * stride, false);
    const auto klg = rand_codes(rows * stride, true);
    std::vector<float> kdec(rows * stride), got(rows), want(rows);

    for (std::size_t i = 0; i < kdec.size(); ++i) {
      kdec[i] = static_cast<float>(k8[i]) * s;
    }
    ops.dequant_scores_int8(q.data(), k8.data(), rows, stride, d_head, s,
                            0.5f, got.data());
    ops.attend_scores(q.data(), kdec.data(), rows, stride, d_head, 0.5f,
                      want.data());
    EXPECT_EQ(got, want) << ops.name << " dequant_scores_int8 d=" << d_head;

    std::vector<float> z_got(d_head, 0.0f), z_want(d_head, 0.0f);
    ops.dequant_accum_int8(w.data(), k8.data(), rows, stride, d_head, s,
                           z_got.data());
    ops.attend_accum(w.data(), kdec.data(), rows, stride, d_head,
                     z_want.data());
    EXPECT_EQ(z_got, z_want) << ops.name << " dequant_accum_int8 d=" << d_head;

    for (const int exponent : {-2, 3}) {
      for (std::size_t i = 0; i < kdec.size(); ++i) {
        kdec[i] = kv_decode_log2(klg[i], exponent);
      }
      ops.dequant_scores_log2(q.data(), klg.data(), rows, stride, d_head,
                              exponent, 0.5f, got.data());
      ops.attend_scores(q.data(), kdec.data(), rows, stride, d_head, 0.5f,
                        want.data());
      EXPECT_EQ(got, want) << ops.name << " dequant_scores_log2 d=" << d_head
                           << " exponent=" << exponent;

      std::fill(z_got.begin(), z_got.end(), 0.0f);
      std::fill(z_want.begin(), z_want.end(), 0.0f);
      ops.dequant_accum_log2(w.data(), klg.data(), rows, stride, d_head,
                             exponent, z_got.data());
      ops.attend_accum(w.data(), kdec.data(), rows, stride, d_head,
                       z_want.data());
      EXPECT_EQ(z_got, z_want) << ops.name << " dequant_accum_log2 d="
                               << d_head << " exponent=" << exponent;
    }
  }
}

TEST(KernelsFused, ScalarFusedEqualsGatherThenDotBitwise) {
  check_fused_bitwise(scalar_kernels());
}

TEST(KernelsFused, SimdFusedEqualsGatherThenDotBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_fused_bitwise(*simd);
}

// --- block segments == gather() as one segment, bitwise, per table ----------

TEST(KernelsFused, BlockSegmentsEqualGatheredSegmentBitwise) {
  // The view PreparedModel::attend reads: one segment per block, scored and
  // accumulated with the same per-mode dispatch. Row amplitudes grow within
  // blocks, so quantized blocks rescale their earlier codes mid-block; 10
  // rows in blocks of 4 leave the last block partly filled.
  const std::size_t bs = 4, len = 10, n_heads = 3, d_head = 12;
  const std::size_t d = n_heads * d_head;  // d_head % 8 != 0: vector tails
  const float amps[len] = {1.0f, 0.5f, 3.0f, 1.0f, 2.0f,
                           8.0f, 0.25f, 1.0f, 4.0f, 16.0f};
  std::vector<const KernelOps*> tables = {&scalar_kernels()};
  if (const KernelOps* simd = simd_kernels()) tables.push_back(simd);

  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    KvBlockPool pool(8, bs, d, mode);
    PagedKvCache cache(pool, 1, 16);
    for (const float amp : amps) {
      cache.advance_by(1);
      auto k = rand_vec(d), v = rand_vec(d);
      for (std::size_t c = 0; c < d; ++c) {
        k[c] *= amp;
        v[c] *= amp;
      }
      cache.write_at(0, cache.length() - 1, k, v);
    }
    std::vector<KvSegment> segs;
    cache.append_segments(0, len, segs);
    ASSERT_EQ(segs.size(), 3u);
    ASSERT_EQ(segs.back().rows, 2u);
    std::vector<float> gk(len * d), gv(len * d);
    gather(cache, 0, gk, gv);

    const auto q = rand_vec(d);
    const auto w = rand_vec(len);
    for (const KernelOps* ops : tables) {
      for (std::size_t head = 0; head < n_heads; ++head) {
        const std::size_t base = head * d_head;
        std::vector<float> got(len), want(len);
        std::vector<float> z_got(d_head, 0.0f), z_want(d_head, 0.0f);
        std::size_t t = 0;
        for (const KvSegment& seg : segs) {
          ASSERT_EQ(seg.mode, mode);
          switch (mode) {
            case KvQuantMode::kFp32:
              ops->attend_scores(q.data() + base, seg.k.data() + base,
                                 seg.rows, d, d_head, 0.5f, got.data() + t);
              ops->attend_accum(w.data() + t, seg.v.data() + base, seg.rows,
                                d, d_head, z_got.data());
              break;
            case KvQuantMode::kInt8:
              ops->dequant_scores_int8(q.data() + base,
                                       seg.k_codes.data() + base, seg.rows,
                                       d, d_head, seg.k_scale / 127.0f, 0.5f,
                                       got.data() + t);
              ops->dequant_accum_int8(w.data() + t, seg.v_codes.data() + base,
                                      seg.rows, d, d_head,
                                      seg.v_scale / 127.0f, z_got.data());
              break;
            case KvQuantMode::kLog2:
              ops->dequant_scores_log2(q.data() + base,
                                       seg.k_codes.data() + base, seg.rows,
                                       d, d_head,
                                       static_cast<int>(seg.k_scale), 0.5f,
                                       got.data() + t);
              ops->dequant_accum_log2(w.data() + t, seg.v_codes.data() + base,
                                      seg.rows, d, d_head,
                                      static_cast<int>(seg.v_scale),
                                      z_got.data());
              break;
          }
          t += seg.rows;
        }
        ops->attend_scores(q.data() + base, gk.data() + base, len, d, d_head,
                           0.5f, want.data());
        ops->attend_accum(w.data(), gv.data() + base, len, d, d_head,
                          z_want.data());
        EXPECT_EQ(got, want) << ops->name << " " << to_string(mode)
                             << " scores, head " << head;
        EXPECT_EQ(z_got, z_want) << ops->name << " " << to_string(mode)
                                 << " accum, head " << head;
      }
    }
  }
}

// --- multi-row == one row per call, bitwise, per table ----------------------

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

void check_blocking_bitwise(const KernelOps& ops) {
  // Row counts cover whole row blocks, every remainder and both at once;
  // widths cover the 8-wide body, the scalar tail and register-held column
  // blocks with and without leftover columns. Log2 codes decode under
  // exponent -2 for odd row counts and 3 (the normal-range body) for even.
  const float s = 0.004f;
  for (const std::size_t n : {1u, 3u, 8u, 17u, 20u, 63u, 64u, 65u, 128u, 130u,
                              136u, 200u}) {
    for (const std::size_t rows :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 17u}) {
      const int exponent = rows % 2 == 0 ? 3 : -2;
      const std::size_t stride = n + 3;
      const std::string shape = std::string(ops.name) + " rows=" +
                                std::to_string(rows) +
                                " n=" + std::to_string(n);
      auto x = rand_vec(n);
      auto dense = rand_vec(rows * n);
      auto m = rand_vec(rows * stride);
      auto k8 = rand_codes(rows * stride, false);
      auto klg = rand_codes(rows * stride, true);
      const auto w = rand_vec(rows);
      // Exact double products rarely round a dot's float, so plant a pair
      // that does: x[0] = x[1] = 2^40 and each row's column 1 negates its
      // column 0. The pair cancels exactly, but only after the other
      // products have rounded against it, so any change to a row's
      // accumulation order shows in its bits.
      if (n >= 2) {
        x[0] = x[1] = 0x1p40f;
        for (std::size_t r = 0; r < rows; ++r) {
          dense[r * n + 1] = -dense[r * n];
          m[r * stride + 1] = -m[r * stride];
          k8[r * stride + 1] = static_cast<std::int8_t>(-k8[r * stride]);
          klg[r * stride + 1] = static_cast<std::int8_t>(
              static_cast<std::uint8_t>(klg[r * stride]) ^ kKvLog2SignBit);
        }
      }
      std::vector<float> got(rows), want(rows);

      ops.matvec(dense.data(), rows, n, x.data(), 1, got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.matvec(dense.data() + r * n, 1, n, x.data(), 1, &want[r]);
      }
      expect_same_bits(got, want, "matvec " + shape);

      ops.attend_scores(x.data(), m.data(), rows, stride, n, 0.3f, got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.attend_scores(x.data(), m.data() + r * stride, 1, stride, n, 0.3f,
                          &want[r]);
      }
      expect_same_bits(got, want, "attend_scores " + shape);

      ops.dequant_scores_int8(x.data(), k8.data(), rows, stride, n, s, 0.3f,
                              got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.dequant_scores_int8(x.data(), k8.data() + r * stride, 1, stride, n,
                                s, 0.3f, &want[r]);
      }
      expect_same_bits(got, want, "dequant_scores_int8 " + shape);

      ops.dequant_scores_log2(x.data(), klg.data(), rows, stride, n, exponent,
                              0.3f, got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.dequant_scores_log2(x.data(), klg.data() + r * stride, 1, stride,
                                n, exponent, 0.3f, &want[r]);
      }
      expect_same_bits(got, want, "dequant_scores_log2 " + shape);

      // Accumulations start from a nonzero z, as a later KV segment does.
      const auto z0 = rand_vec(n);
      auto z_got = z0, z_want = z0;
      ops.attend_accum(w.data(), m.data(), rows, stride, n, z_got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.attend_accum(w.data() + r, m.data() + r * stride, 1, stride, n,
                         z_want.data());
      }
      expect_same_bits(z_got, z_want, "attend_accum " + shape);

      z_got = z0;
      z_want = z0;
      ops.dequant_accum_int8(w.data(), k8.data(), rows, stride, n, s,
                             z_got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.dequant_accum_int8(w.data() + r, k8.data() + r * stride, 1, stride,
                               n, s, z_want.data());
      }
      expect_same_bits(z_got, z_want, "dequant_accum_int8 " + shape);

      z_got = z0;
      z_want = z0;
      ops.dequant_accum_log2(w.data(), klg.data(), rows, stride, n, exponent,
                             z_got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ops.dequant_accum_log2(w.data() + r, klg.data() + r * stride, 1,
                               stride, n, exponent, z_want.data());
      }
      expect_same_bits(z_got, z_want, "dequant_accum_log2 " + shape);
    }
  }
}

void check_input_rows_bitwise(const KernelOps& ops) {
  // n covers every 4-row block remainder and several blocks; cols cover
  // the 8-wide body, the scalar tail, both at once, the served widths and
  // one width past the AVX2 body's stack tile; rows cover one weight row,
  // a 4-row block, a remainder and a served height.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 17u}) {
    for (const std::size_t cols :
         {1u, 3u, 8u, 17u, 63u, 64u, 65u, 128u, 130u, 256u, 600u}) {
      for (const std::size_t rows : {1u, 4u, 7u, 128u}) {
        const std::string shape = std::string(ops.name) +
                                  " n=" + std::to_string(n) +
                                  " rows=" + std::to_string(rows) +
                                  " cols=" + std::to_string(cols);
        auto w = rand_vec(rows * cols);
        auto x = rand_vec(n * cols);
        // The planted cancellation pair of check_blocking_bitwise, in every
        // input row: x[0] = x[1] = 2^40 and each weight row's column 1
        // negates its column 0, so any change to one output's accumulation
        // order shows in its bits.
        if (cols >= 2) {
          for (std::size_t i = 0; i < n; ++i) {
            x[i * cols] = x[i * cols + 1] = 0x1p40f;
          }
          for (std::size_t r = 0; r < rows; ++r) {
            w[r * cols + 1] = -w[r * cols];
          }
        }
        std::vector<float> got(n * rows), want(n * rows);
        ops.matvec(w.data(), rows, cols, x.data(), n, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          ops.matvec(w.data(), rows, cols, x.data() + i * cols, 1,
                     want.data() + i * rows);
        }
        expect_same_bits(got, want, "matvec " + shape);
      }
    }
  }
}

TEST(KernelsBlocked, ScalarInputRowsEqualOneRowCallsBitwise) {
  check_input_rows_bitwise(scalar_kernels());
}

TEST(KernelsBlocked, SimdInputRowsEqualOneRowCallsBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_input_rows_bitwise(*simd);
}

TEST(KernelsBlocked, ScalarRowsEqualOneRowCallsBitwise) {
  check_blocking_bitwise(scalar_kernels());
}

TEST(KernelsBlocked, SimdRowsEqualOneRowCallsBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_blocking_bitwise(*simd);
}

// --- in-register decodes vs the scalar decode, every byte value -------------

TEST(KernelsFused, SimdLog2DecodeExactForAllByteValues) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  // Exponents cover deep denormals and the flush to zero (-24, -23: code
  // 126 lands on 2^-150 and 2^-149), the boundary of the normal-range body
  // (-1 | 0, 127 | 128) and infinities (128: code 0 is 2^128).
  for (const int exponent : {-24, -23, -10, -3, -1, 0, 1, 7, 40, 126, 127,
                             128}) {
    for (int b = 0; b < 256; ++b) {
      const auto byte = static_cast<std::int8_t>(b);
      const float want = kv_decode_log2(byte, exponent);
      const std::string what =
          "byte=" + std::to_string(b) + " exponent=" + std::to_string(exponent);
      // Scores: row r holds the byte in lane r % 8 and +0 (code 127)
      // elsewhere, so with q all ones each score is the one decoded value,
      // through the 4-row interleaved body (rows 0-7) and the one-row body
      // (row 8). The sum starts at +0, so a -0 decode scores +0.
      constexpr std::size_t kRows = 9;
      std::vector<std::int8_t> onehot(kRows * 8, std::int8_t{kKvLog2CodeMax});
      for (std::size_t r = 0; r < kRows; ++r) onehot[r * 8 + r % 8] = byte;
      const std::vector<float> q(8, 1.0f);
      std::vector<float> scores(kRows);
      simd->dequant_scores_log2(q.data(), onehot.data(), kRows, 8, 8, exponent,
                                1.0f, scores.data());
      expect_same_bits(scores, std::vector<float>(kRows, want + 0.0f),
                       "scores " + what);
      // Accum: one row of the byte, weight 1, onto z = -0, so each z is the
      // decoded value with its sign of zero. 8 columns take the row loop, 64
      // the register-blocked body.
      for (const std::size_t d : {std::size_t{8}, std::size_t{64}}) {
        const std::vector<std::int8_t> codes(d, byte);
        const float w = 1.0f;
        std::vector<float> z(d, -0.0f);
        simd->dequant_accum_log2(&w, codes.data(), 1, d, d, exponent,
                                 z.data());
        expect_same_bits(z, std::vector<float>(d, want),
                         "accum d=" + std::to_string(d) + " " + what);
      }
    }
  }
}

TEST(KernelsFused, SimdInt8DecodeExactForAllCodes) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  for (const float s : {1.0f, 0.0371f, 3.25e-4f}) {
    for (int c = -127; c <= 127; ++c) {
      std::vector<std::int8_t> codes(8, static_cast<std::int8_t>(c));
      std::vector<float> a(8, 0.0f);
      a[5] = 1.0f;
      float got = 0.0f;
      simd->dequant_scores_int8(a.data(), codes.data(), 1, 8, 8, s, 1.0f,
                                &got);
      const float want = static_cast<float>(c) * s;
      EXPECT_EQ(got, want) << "code=" << c << " s=" << s;
    }
  }
}

// --- MX fake-quant: bitwise equal in every table ----------------------------

struct MxFormat {
  std::size_t block_size;
  int bits;
  std::size_t outliers;
  bool truncate;

  [[nodiscard]] BlockFormat block_format() const {
    return {block_size, bits, outliers,
            truncate ? RoundingMode::kTruncate : RoundingMode::kNearest};
  }
  [[nodiscard]] std::string str() const {
    return "block=" + std::to_string(block_size) +
           " bits=" + std::to_string(bits) +
           " outliers=" + std::to_string(outliers) +
           (truncate ? " truncate" : " nearest");
  }
};

// n rows of `width` through one table's mx_quantize, out of place.
std::vector<float> mx_run(const KernelOps& ops, const MxFormat& f,
                          const std::vector<float>& in, std::size_t n,
                          std::size_t width) {
  std::vector<float> out(in.size(), -7.0f);
  ops.mx_quantize(in.data(), n, width, f.block_size, f.bits, f.outliers,
                  f.truncate, out.data());
  return out;
}

enum class MxInput { kRandom, kBitPatterns, kTied, kZero, kNanFlood, kGrid };
constexpr MxInput kMxInputs[] = {MxInput::kRandom,   MxInput::kBitPatterns,
                                 MxInput::kTied,     MxInput::kZero,
                                 MxInput::kNanFlood, MxInput::kGrid};

// One tensor of `len` floats. kRandom is mx_reference::random_tensor
// (Gaussian bulk, planted outliers, exact ties, zeros, subnormals, inf);
// kBitPatterns draws arbitrary binary32 bits and plants NaNs whose payload
// sits only in the low 16 bits (they round to inf unless kept quiet),
// infinities and subnormals; kTied is one magnitude with random signs;
// kZero is +0 and -0; kNanFlood puts outliers + 2 NaNs in every block;
// kGrid is small integers times nearby powers of two, so many elements
// land exactly on a grid point or halfway between two (rounding ties).
std::vector<float> mx_input(MxInput kind, Rng& rng, std::size_t len,
                            std::size_t block_size, std::size_t outliers) {
  std::uniform_int_distribution<std::uint32_t> any_bits;
  const auto sign = [&] { return (any_bits(rng) & 1u) << 31; };
  switch (kind) {
    case MxInput::kRandom:
      return mx_reference::random_tensor(rng, len, block_size);
    case MxInput::kBitPatterns: {
      std::vector<float> v(len);
      const std::uint32_t planted[] = {0x7F800001u, 0x7F80FFFFu, 0x7FC00000u,
                                       0x7F800000u, 0x00000001u, 0x007FFFFFu,
                                       0x7F7FFFFFu, 0x7F7F8000u, 0x00008000u};
      for (auto& x : v) {
        const std::uint32_t r = any_bits(rng);
        x = std::bit_cast<float>(r % 4 == 0 ? planted[(r >> 8) % 9] | sign()
                                            : any_bits(rng));
      }
      return v;
    }
    case MxInput::kTied: {
      // Half the time the magnitude sits one below a bf16 rounding tie that
      // carries into the exponent (bf16 mantissa all ones, low bits 0x7FFF).
      const std::uint32_t exponent = 1 + any_bits(rng) % 250;
      const float mag =
          any_bits(rng) % 2 == 0
              ? std::bit_cast<float>((exponent << 23) | 0x7F7FFFu)
              : std::ldexp(
                    1.0f + static_cast<float>(any_bits(rng) % 128) / 128.0f,
                    static_cast<int>(exponent % 60) - 30);
      std::vector<float> v(len);
      for (auto& x : v) {
        x = std::bit_cast<float>(std::bit_cast<std::uint32_t>(mag) | sign());
      }
      return v;
    }
    case MxInput::kZero: {
      std::vector<float> v(len);
      for (auto& x : v) x = std::bit_cast<float>(sign());
      return v;
    }
    case MxInput::kGrid: {
      const int top = static_cast<int>(any_bits(rng) % 200) - 100;
      std::vector<float> v(len);
      for (auto& x : v) {
        const auto m = static_cast<float>(any_bits(rng) % 256);
        const int octave = top - static_cast<int>(any_bits(rng) % 16);
        x = std::bit_cast<float>(std::bit_cast<std::uint32_t>(
                                     std::ldexp(m, octave)) |
                                 sign());
      }
      return v;
    }
    case MxInput::kNanFlood: {
      std::vector<float> v = mx_reference::random_tensor(rng, len, block_size);
      for (std::size_t off = 0; off < len; off += block_size) {
        const std::size_t blen = std::min(block_size, len - off);
        for (std::size_t j = 0; j < outliers + 2; ++j) {
          const std::uint32_t nan = 0x7FC00000u | (any_bits(rng) & 0xFFFFu);
          v[off + any_bits(rng) % blen] = std::bit_cast<float>(nan | sign());
        }
      }
      return v;
    }
  }
  return {};
}

bool mx_has_nan(const std::vector<float>& v) {
  return std::any_of(v.begin(), v.end(), [](float x) { return std::isnan(x); });
}

// One tensor of `kind` in format `f`: 1..5 blocks, half of them with a
// partial final block. `ops` equals the scalar table by memcmp, out of
// place and in place, and on NaN-free inputs the scalar table equals the
// decode(encode()) reference.
void check_mx_tensor(const KernelOps& ops, const MxFormat& f, MxInput kind,
                     Rng& rng) {
  const std::size_t block = f.block_size;
  const std::size_t blocks = 1 + rng() % 5;
  const std::size_t tail = rng() % 2 == 0 ? 0 : 1 + rng() % block;
  const std::size_t len =
      tail != 0 && tail < block ? (blocks - 1) * block + tail : blocks * block;
  const std::vector<float> in = mx_input(kind, rng, len, block, f.outliers);
  const std::string what = std::string(ops.name) + " " + f.str() +
                           " len=" + std::to_string(len) +
                           " input=" + std::to_string(static_cast<int>(kind));
  const std::vector<float> want = mx_run(scalar_kernels(), f, in, 1, len);
  expect_same_bits(mx_run(ops, f, in, 1, len), want, what);
  std::vector<float> aliased = in;
  ops.mx_quantize(aliased.data(), 1, len, f.block_size, f.bits, f.outliers,
                  f.truncate, aliased.data());
  expect_same_bits(aliased, want, "in place " + what);
  if (!mx_has_nan(in)) {
    expect_same_bits(want,
                     mx_reference::quantize_dequantize(f.block_format(), in),
                     "reference " + what);
  }
}

// check_mx_tensor twice for every input kind in every format of bits
// 2..15 x outliers {0, 1, 4, 16} x the block sizes below x both roundings.
void check_mx_against_scalar(const KernelOps& ops) {
  Rng rng = make_rng(2718);
  for (const std::size_t block : {1u, 3u, 8u, 17u, 100u, 128u, 256u}) {
    for (const std::size_t outliers : {0u, 1u, 4u, 16u}) {
      for (int bits = 2; bits <= 15; ++bits) {
        for (const bool truncate : {false, true}) {
          const MxFormat f{block, bits, outliers, truncate};
          for (const MxInput kind : kMxInputs) {
            check_mx_tensor(ops, f, kind, rng);
            check_mx_tensor(ops, f, kind, rng);
          }
        }
      }
    }
  }
}

// n-row calls, n in 1..9 and 16, rows of 1..5 blocks (some with a partial
// last block), equal n one-row calls in `ops` by memcmp, and the scalar
// table's n-row call; in place too.
void check_mx_rows(const KernelOps& ops) {
  Rng rng = make_rng(3141);
  const MxFormat formats[] = {{128, 4, 4, false}, {128, 7, 4, false},
                              {17, 3, 1, true}, {8, 15, 16, false},
                              {100, 5, 0, true}};
  for (const MxFormat& f : formats) {
    for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u}) {
      const std::size_t partial = rng() % 2 == 0 ? 0 : rng() % f.block_size;
      const std::size_t width = (1 + rng() % 5) * f.block_size - partial;
      std::vector<float> in;
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = mx_input(kMxInputs[rng() % 6], rng, width,
                                  f.block_size, f.outliers);
        in.insert(in.end(), row.begin(), row.end());
      }
      const std::string what = std::string(ops.name) + " " + f.str() +
                               " n=" + std::to_string(n) +
                               " width=" + std::to_string(width);
      std::vector<float> one_row(in.size());
      for (std::size_t i = 0; i < n; ++i) {
        ops.mx_quantize(in.data() + i * width, 1, width, f.block_size, f.bits,
                        f.outliers, f.truncate, one_row.data() + i * width);
      }
      const std::vector<float> got = mx_run(ops, f, in, n, width);
      expect_same_bits(got, one_row, "n rows vs one-row calls " + what);
      expect_same_bits(got, mx_run(scalar_kernels(), f, in, n, width),
                       "vs scalar " + what);
      std::vector<float> aliased = in;
      ops.mx_quantize(aliased.data(), n, width, f.block_size, f.bits,
                      f.outliers, f.truncate, aliased.data());
      expect_same_bits(aliased, got, "in place " + what);
    }
  }
}

TEST(KernelsMxQuantize, ScalarMatchesReferenceBitwise) {
  check_mx_against_scalar(scalar_kernels());
}

TEST(KernelsMxQuantize, SimdMatchesScalarBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_mx_against_scalar(*simd);
}

TEST(KernelsMxQuantize, ScalarRowsEqualOneRowCallsBitwise) {
  check_mx_rows(scalar_kernels());
}

TEST(KernelsMxQuantize, SimdRowsEqualOneRowCallsBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_mx_rows(*simd);
}

// Past the inline limits: more than 16 outliers (the scalar body's heap
// slots) and a block longer than any SIMD body's stack keys.
TEST(KernelsMxQuantize, WideFormatsMatchScalarBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  Rng rng = make_rng(1618);
  const MxFormat formats[] = {{64, 6, 20, false}, {300, 4, 4, false},
                              {1024, 7, 40, true}};
  for (const MxFormat& f : formats) {
    for (const MxInput kind : kMxInputs) {
      const std::size_t len = 2 * f.block_size + 5;
      const auto in = mx_input(kind, rng, len, f.block_size, f.outliers);
      expect_same_bits(mx_run(*simd, f, in, 1, len),
                       mx_run(scalar_kernels(), f, in, 1, len), f.str());
    }
  }
}

// --- end-to-end -------------------------------------------------------------

class KernelsEndToEnd : public ::testing::Test {
 protected:
  void TearDown() override { set_force_scalar_kernels(false); }

  static const SyntheticModel& tiny_model() {
    static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                      42);
    return model;
  }

  static std::vector<Request> requests() {
    return {
        Request{{3, 1, 4, 1, 5}, 8},
        Request{{2, 7}, 10},
        Request{{9, 2, 6, 5, 3, 5, 8}, 5},
    };
  }

  static std::vector<std::vector<std::size_t>> serve_tokens(
      const std::shared_ptr<const PreparedModel>& model) {
    ServingConfig scfg;
    scfg.max_batch = 3;
    ServingEngine engine(model, scfg);
    std::vector<RequestId> ids;
    for (const auto& req : requests()) ids.push_back(engine.submit(req));
    engine.run();
    std::vector<std::vector<std::size_t>> out;
    for (const auto id : ids) out.push_back(engine.result(id).tokens);
    return out;
  }
};

TEST_F(KernelsEndToEnd, ServingTokensMatchForcedScalarInEveryKvMode) {
  if (simd_kernels() == nullptr) {
    GTEST_SKIP() << "no SIMD table on this CPU";
  }
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    set_force_scalar_kernels(false);
    const auto simd_tokens = serve_tokens(model);
    set_force_scalar_kernels(true);
    const auto scalar_tokens = serve_tokens(model);
    EXPECT_EQ(simd_tokens, scalar_tokens) << to_string(mode);
  }
}

}  // namespace
}  // namespace opal
