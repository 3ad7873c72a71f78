// Kernel-layer micro bench: scalar reference vs the runtime-dispatched SIMD
// table (common/kernels.h) on the serving hot path's shapes — GEMV, the
// attention score kernel and its fused dequantize twins per kv_mode,
// attention score/accumulate over realistic block-segment shapes, and the
// MX-OPAL activation fake-quant — plus the dispatched table's row-blocking,
// multi-row and served-shape grouping matvec ratios. Every timed number is
// a same-process ratio: the median over 15 repeats of two loops timed back
// to back, so host speed cancels out. Absolute kernel rates are
// servebench's (kernel.matvec.gmac_per_s and ns_per_call, --trace 1).
// Persisted as BENCH_kernels.json (path = argv[1], default
// ./BENCH_kernels.json): the dispatch table's name, the parity verdict,
// scalar-over-dispatched ratios per kernel, the three matvec ratios and
// the mx_quantize and log2-attend gate ratios.
//
// Asserted (exit 1): every dispatched kernel matches the scalar reference
// within reduction-reorder tolerance; the fused dequant score kernels match
// decode-then-attend_scores BITWISE within each table; with a SIMD table
// present, the dispatched GEMV is not slower than scalar; on the AVX2 table,
// 128 one-row matvec calls take at least 1.3x the time of one 128-row call
// (matvec_blocked_over_rowwise), and 16 one-input-row matvec calls over
// 256x128 weights at least 1.2x the time of one 16-input-row call
// (matvec_multirow_over_rowwise), and 8 one-row walks over the served
// model's 25 weight matrices at least 1.5x the time of 2 four-row walks
// (matvec_group4_over_rowwise); the dispatched mx_quantize matches the
// scalar table by memcmp, and on AVX2 the scalar table takes at least 2x
// the time of the dispatched one on both served MX shapes
// (mx_quantize_over_scalar, the lower of mx_quantize_128_a4 and
// mx_quantize_256_a7); and on AVX2 the fused log2 scores + accum take at
// most 3x the time of fp32 attend_scores + attend_accum on the served
// attend shape (log2_attend_over_fp32).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/kernels.h"

namespace {

using namespace opal;
using clock_type = std::chrono::steady_clock;

std::uint64_t lcg = 0x2545f4914f6cdd1dull;
float frand() {
  lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<float>((lcg >> 33) & 0xffffff) / 0x1000000p0f * 2.0f -
         1.0f;
}

std::vector<float> rand_vec(std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = frand();
  return v;
}

std::vector<std::int8_t> rand_codes(std::size_t n) {
  std::vector<std::int8_t> v(n);
  for (auto& c : v) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const int q = static_cast<int>((lcg >> 40) & 0xff) - 128;
    c = static_cast<std::int8_t>(q == -128 ? -127 : q);
  }
  return v;
}

float g_sink = 0.0f;  // defeats dead-code elimination across timed calls

/// The time `iters` calls of `slow` take over the time `iters` calls of
/// `fast` take, median over 15 repeats. Each repeat times the two loops
/// back to back in this process, so host speed cancels out of the ratio.
template <typename Slow, typename Fast>
double median_ratio(Slow&& slow, Fast&& fast, int iters) {
  const auto seconds = [iters](auto& f) {
    const auto t0 = clock_type::now();
    for (int i = 0; i < iters; ++i) f();
    return std::chrono::duration<double>(clock_type::now() - t0).count();
  };
  slow();  // warmup
  fast();
  std::vector<double> ratios(15);
  for (double& r : ratios) {
    const double t_slow = seconds(slow);
    r = t_slow / seconds(fast);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

bool g_ok = true;
void check(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    g_ok = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const KernelOps& scalar = scalar_kernels();
  const KernelOps* simd = simd_kernels();
  const KernelOps& dispatched = simd != nullptr ? *simd : scalar;
  std::printf("kernel dispatch: %s (scalar reference always compiled)\n\n",
              dispatched.name);

  // --- parity ---------------------------------------------------------------
  {
    // One score row of n MACs: attend_scores with scale 1 is the dot body.
    const std::size_t n = 1037;  // vector body + tail
    const auto q = rand_vec(n), k = rand_vec(n);
    float got = 0.0f, want = 0.0f;
    dispatched.attend_scores(q.data(), k.data(), 1, n, n, 1.0f, &got);
    scalar.attend_scores(q.data(), k.data(), 1, n, n, 1.0f, &want);
    check(std::fabs(got - want) <= 1e-4f * (1.0f + std::fabs(want)),
          "dispatched attend_scores within tolerance of scalar");

    const auto codes = rand_codes(n);
    const float s = 0.0173f;
    std::vector<float> dec(n), lg(n);
    for (std::size_t i = 0; i < n; ++i) {
      dec[i] = static_cast<float>(codes[i]) * s;
      lg[i] = kv_decode_log2(codes[i], 2);
    }
    for (const KernelOps* ops : {&scalar, &dispatched}) {
      ops->dequant_scores_int8(q.data(), codes.data(), 1, n, n, s, 1.0f, &got);
      ops->attend_scores(q.data(), dec.data(), 1, n, n, 1.0f, &want);
      check(got == want,
            "fused int8 dequant-scores bitwise == decode-then-attend_scores");
      ops->dequant_scores_log2(q.data(), codes.data(), 1, n, n, 2, 1.0f, &got);
      ops->attend_scores(q.data(), lg.data(), 1, n, n, 1.0f, &want);
      check(got == want,
            "fused log2 dequant-scores bitwise == decode-then-attend_scores");
    }
    // MX fake-quant is exact in every table: 16 rows of 256 at A4 and A7,
    // both roundings, over arbitrary bit patterns (NaN, inf, subnormals).
    std::vector<float> mx_in(16 * 256);
    for (float& x : mx_in) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      x = std::bit_cast<float>(static_cast<std::uint32_t>(lcg >> 32));
    }
    std::vector<float> mx_got(mx_in.size()), mx_want(mx_in.size());
    for (const int bits : {4, 7}) {
      for (const bool truncate : {false, true}) {
        dispatched.mx_quantize(mx_in.data(), 16, 256, 128, bits, 4, truncate,
                               mx_got.data());
        scalar.mx_quantize(mx_in.data(), 16, 256, 128, bits, 4, truncate,
                           mx_want.data());
        check(std::memcmp(mx_got.data(), mx_want.data(),
                          mx_in.size() * sizeof(float)) == 0,
              "dispatched mx_quantize bitwise == scalar");
      }
    }
    std::printf("parity: dispatched-vs-scalar tolerance, fused-vs-decoded and "
                "mx_quantize bitwise checks %s\n\n",
                g_ok ? "PASS" : "FAIL");
  }

  // --- scalar over dispatched, per kernel -----------------------------------
  std::printf("%-26s %9s\n", "kernel", "speedup");
  std::vector<std::pair<std::string, double>> speedups;
  // `run(ops)` calls the kernel once on table `ops`.
  auto speedup = [&](std::string name, auto&& run, int iters) {
    const double ratio = median_ratio([&] { run(scalar); },
                                      [&] { run(dispatched); }, iters);
    std::printf("%-26s %8.2fx\n", name.c_str(), ratio);
    speedups.emplace_back(std::move(name), ratio);
    return ratio;
  };

  // GEMV: the wo projection of a d_model=512 model, then the shapes
  // servebench's d_model 128 / d_ffn 256 / vocab 512 model serves.
  const std::pair<std::size_t, std::size_t> gemvs[] = {
      {512, 512}, {128, 128}, {256, 128}, {128, 256}, {512, 128}};
  for (const auto& [rows, cols] : gemvs) {
    const auto w = rand_vec(rows * cols);
    const auto x = rand_vec(cols);
    std::vector<float> y(rows);
    speedup("gemv_" + std::to_string(rows) + "x" + std::to_string(cols),
            [&](const KernelOps& ops) {
              ops.matvec(w.data(), rows, cols, x.data(), 1, y.data());
            },
            static_cast<int>(20 * 512 * 512 / (rows * cols)));
    g_sink += y[0];
  }
  const double gemv_speedup = speedups[0].second;

  // Score kernels over 4096 MACs (64 contiguous KV rows of d_head 64), one
  // per kv_mode: attend_scores, then its fused int8 / log2 twins.
  const std::size_t sc_rows = 64, sc_d = 64;
  const auto sq = rand_vec(sc_d), sk = rand_vec(sc_rows * sc_d);
  const auto sk_codes = rand_codes(sc_rows * sc_d);
  std::vector<float> sc_out(sc_rows);
  speedup("attend_scores_64x64",
          [&](const KernelOps& ops) {
            ops.attend_scores(sq.data(), sk.data(), sc_rows, sc_d, sc_d,
                              0.125f, sc_out.data());
            g_sink += sc_out[0];
          },
          200);
  speedup("dequant_scores_int8_64x64",
          [&](const KernelOps& ops) {
            ops.dequant_scores_int8(sq.data(), sk_codes.data(), sc_rows, sc_d,
                                    sc_d, 0.01f, 0.125f, sc_out.data());
            g_sink += sc_out[0];
          },
          200);
  speedup("dequant_scores_log2_64x64",
          [&](const KernelOps& ops) {
            ops.dequant_scores_log2(sq.data(), sk_codes.data(), sc_rows, sc_d,
                                    sc_d, 2, 0.125f, sc_out.data());
            g_sink += sc_out[0];
          },
          200);

  // Attend over realistic paged-KV segment shapes: context 256 in 16-row
  // blocks (16 segments), d_model 128, d_head 64, scores then weighted sum.
  const std::size_t segs = 16, seg_rows = 16, d_model = 128, d_head = 64;
  const std::size_t seg = seg_rows * d_model;
  const auto kv = rand_vec(segs * seg);
  const auto kvc = rand_codes(segs * seg);
  const auto q = rand_vec(d_head);
  const auto wts = rand_vec(segs * seg_rows);
  std::vector<float> scores(segs * seg_rows), z(d_head);
  speedup("attend_fp32_segments",
          [&](const KernelOps& ops) {
            std::fill(z.begin(), z.end(), 0.0f);
            for (std::size_t sg = 0; sg < segs; ++sg) {
              ops.attend_scores(q.data(), kv.data() + sg * seg, seg_rows,
                                d_model, d_head, 0.125f,
                                scores.data() + sg * seg_rows);
              ops.attend_accum(wts.data() + sg * seg_rows,
                               kv.data() + sg * seg, seg_rows, d_model,
                               d_head, z.data());
            }
            g_sink += z[0];
          },
          50);
  speedup("attend_int8_fused_segments",
          [&](const KernelOps& ops) {
            std::fill(z.begin(), z.end(), 0.0f);
            for (std::size_t sg = 0; sg < segs; ++sg) {
              ops.dequant_scores_int8(q.data(), kvc.data() + sg * seg,
                                      seg_rows, d_model, d_head, 0.01f,
                                      0.125f, scores.data() + sg * seg_rows);
              ops.dequant_accum_int8(wts.data() + sg * seg_rows,
                                     kvc.data() + sg * seg, seg_rows, d_model,
                                     d_head, 0.01f, z.data());
            }
            g_sink += z[0];
          },
          50);
  speedup("attend_log2_fused_segments",
          [&](const KernelOps& ops) {
            std::fill(z.begin(), z.end(), 0.0f);
            for (std::size_t sg = 0; sg < segs; ++sg) {
              ops.dequant_scores_log2(q.data(), kvc.data() + sg * seg,
                                      seg_rows, d_model, d_head, 2, 0.125f,
                                      scores.data() + sg * seg_rows);
              ops.dequant_accum_log2(wts.data() + sg * seg_rows,
                                     kvc.data() + sg * seg, seg_rows, d_model,
                                     d_head, 2, z.data());
            }
            g_sink += z[0];
          },
          50);

  // MX-OPAL fake-quant (k 128, 4 outliers) over 16 served rows: the
  // low-precision site (A4, d_model 128) and the fc1 output (A7, d_ffn
  // 256, two blocks a row), activation-like: two 24x outliers a block.
  auto mx_rows = [](std::size_t width) {
    std::vector<float> v = rand_vec(16 * width);
    for (std::size_t b = 0; b < v.size(); b += 128) {
      v[b + 17] *= 24.0f;
      v[b + 90] *= 24.0f;
    }
    return v;
  };
  const auto mx_in_128 = mx_rows(128), mx_in_256 = mx_rows(256);
  std::vector<float> mx_out(16 * 256);
  const double mx_128_a4 = speedup(
      "mx_quantize_128_a4",
      [&](const KernelOps& ops) {
        ops.mx_quantize(mx_in_128.data(), 16, 128, 128, 4, 4, false,
                        mx_out.data());
        g_sink += mx_out[0];
      },
      200);
  const double mx_256_a7 = speedup(
      "mx_quantize_256_a7",
      [&](const KernelOps& ops) {
        ops.mx_quantize(mx_in_256.data(), 16, 256, 128, 7, 4, false,
                        mx_out.data());
        g_sink += mx_out[0];
      },
      100);
  const double mx_over_scalar = std::min(mx_128_a4, mx_256_a7);

  // --- dispatched-table ratios -----------------------------------------------
  // Row blocking: 128 one-row matvec calls over 128x128 weights against one
  // 128-row call.
  double blocked_over_rowwise = 0.0;
  {
    const std::size_t n = 128;
    const auto w = rand_vec(n * n);
    const auto x = rand_vec(n);
    std::vector<float> y(n);
    blocked_over_rowwise = median_ratio(
        [&] {
          for (std::size_t r = 0; r < n; ++r) {
            dispatched.matvec(w.data() + r * n, 1, n, x.data(), 1, &y[r]);
          }
        },
        [&] { dispatched.matvec(w.data(), n, n, x.data(), 1, y.data()); },
        100);
    g_sink += y[0];
    std::printf("%-26s %8.2fx\n", "matvec blocked/rowwise",
                blocked_over_rowwise);
  }

  // Input-row sharing: 16 one-row matvec calls over 256x128 weights (the
  // fc1 shape) against one 16-row call, as a 16-row prefill chunk runs
  // them.
  double multirow_over_rowwise = 0.0;
  {
    const std::size_t rows = 256, cols = 128, n = 16;
    const auto w = rand_vec(rows * cols);
    const auto x = rand_vec(n * cols);
    std::vector<float> y(n * rows);
    multirow_over_rowwise = median_ratio(
        [&] {
          for (std::size_t i = 0; i < n; ++i) {
            dispatched.matvec(w.data(), rows, cols, x.data() + i * cols, 1,
                              y.data() + i * rows);
          }
        },
        [&] {
          dispatched.matvec(w.data(), rows, cols, x.data(), n, y.data());
        },
        50);
    g_sink += y[0];
    std::printf("%-26s %8.2fx\n", "matvec multirow/rowwise",
                multirow_over_rowwise);
  }

  // Decode-batch grouping: 8 one-row walks over the served model's weight
  // set (4 layers of Wq/Wk/Wv/Wo 128x128, fc1 256x128, fc2 128x256, plus
  // the 512x128 tied head, ~2.25 MB of fp32, over a 2 MiB L2) against 2
  // four-row walks, as the serving engine runs 8 one-row slots in 2 pass
  // groups.
  double group4_over_rowwise = 0.0;
  {
    struct Shape {
      std::size_t rows, cols;
    };
    std::vector<Shape> shapes;
    for (int l = 0; l < 4; ++l) {
      shapes.insert(shapes.end(),
                    {{128, 128}, {128, 128}, {128, 128}, {128, 128},
                     {256, 128}, {128, 256}});
    }
    shapes.push_back({512, 128});
    std::vector<std::vector<float>> weights;
    for (const Shape& sh : shapes) weights.push_back(rand_vec(sh.rows * sh.cols));
    const std::size_t slots = 8, group = 4;
    const auto x = rand_vec(slots * 256);
    std::vector<float> y(slots * 512);
    const auto walk = [&](std::size_t first, std::size_t n) {
      for (std::size_t m = 0; m < shapes.size(); ++m) {
        dispatched.matvec(weights[m].data(), shapes[m].rows, shapes[m].cols,
                          x.data() + first * shapes[m].cols, n,
                          y.data() + first * shapes[m].rows);
      }
    };
    group4_over_rowwise = median_ratio(
        [&] {
          for (std::size_t s = 0; s < slots; ++s) walk(s, 1);
        },
        [&] {
          for (std::size_t s = 0; s < slots; s += group) walk(s, group);
        },
        10);
    g_sink += y[0];
    std::printf("%-26s %8.2fx\n", "matvec group4/rowwise",
                group4_over_rowwise);
  }

  // Quantized-KV attend cost: fused log2 scores + accum over fp32 scores +
  // accum in the dispatched table, on the served shape (one head of 128,
  // context 256 in 16-row segments, block exponent 4).
  double log2_attend_over_fp32 = 0.0;
  {
    const std::size_t n_segs = 16, rows = 16, d = 128, block = rows * d;
    const auto k = rand_vec(n_segs * block), v = rand_vec(n_segs * block);
    const auto k_codes = rand_codes(n_segs * block);
    const auto v_codes = rand_codes(n_segs * block);
    const auto qh = rand_vec(d), w = rand_vec(n_segs * rows);
    std::vector<float> out(n_segs * rows), zh(d);
    const auto attend = [&](bool log2) {
      std::fill(zh.begin(), zh.end(), 0.0f);
      for (std::size_t sg = 0; sg < n_segs; ++sg) {
        const std::size_t at = sg * block;
        if (log2) {
          dispatched.dequant_scores_log2(qh.data(), k_codes.data() + at, rows,
                                         d, d, 4, 0.088f,
                                         out.data() + sg * rows);
          dispatched.dequant_accum_log2(w.data() + sg * rows,
                                        v_codes.data() + at, rows, d, d, 4,
                                        zh.data());
        } else {
          dispatched.attend_scores(qh.data(), k.data() + at, rows, d, d,
                                   0.088f, out.data() + sg * rows);
          dispatched.attend_accum(w.data() + sg * rows, v.data() + at, rows,
                                  d, d, zh.data());
        }
      }
      g_sink += zh[0] + out[0];
    };
    log2_attend_over_fp32 =
        median_ratio([&] { attend(true); }, [&] { attend(false); }, 50);
    std::printf("%-26s %8.2fx\n", "log2 attend/fp32 attend",
                log2_attend_over_fp32);
  }

  if (simd != nullptr) {
    check(gemv_speedup >= 1.0, "dispatched GEMV not slower than scalar");
  }
  // AVX2's matvec interleaves four rows to hide FMA latency; the gate is
  // set on that table only.
  const bool gate_blocking = std::string(dispatched.name) == "avx2";
  if (gate_blocking) {
    check(blocked_over_rowwise >= 1.3,
          "AVX2 matvec_blocked_over_rowwise >= 1.3");
    // Four input rows share each widened weight vector.
    check(multirow_over_rowwise >= 1.2,
          "AVX2 matvec_multirow_over_rowwise >= 1.2");
    // Two 4-row walks stream the weight set twice where 8 one-row walks
    // stream it 8 times.
    check(group4_over_rowwise >= 1.5,
          "AVX2 matvec_group4_over_rowwise >= 1.5");
    // The vector selection and branch-free shifter against the scalar
    // block kernel, the lower of the two served shapes.
    check(mx_over_scalar >= 2.0, "AVX2 mx_quantize_over_scalar >= 2.0");
    // Log2 codes decode with integer ops only (normal-range body at the
    // served exponents), so the fused attend stays within 3x of fp32's.
    check(log2_attend_over_fp32 <= 3.0,
          "AVX2 log2_attend_over_fp32 <= 3.0");
  }

  // --- persist --------------------------------------------------------------
  const std::string path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::ofstream json(path);
  json.precision(2);
  json << std::fixed << "{\n"
       << "  \"bench\": \"kernels\",\n"
       << "  \"dispatch\": \"" << dispatched.name << "\",\n"
       << "  \"parity\": \"" << (g_ok ? "pass" : "fail") << "\",\n"
       << "  \"scalar_over_dispatched\": {\n";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    json << "    \"" << speedups[i].first << "\": " << speedups[i].second
         << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  json << "  },\n"
       << "  \"matvec_blocked_over_rowwise\": " << blocked_over_rowwise
       << ",\n"
       << "  \"matvec_multirow_over_rowwise\": " << multirow_over_rowwise
       << ",\n"
       << "  \"matvec_group4_over_rowwise\": " << group4_over_rowwise
       << ",\n"
       << "  \"mx_quantize_over_scalar\": " << mx_over_scalar << ",\n"
       << "  \"log2_attend_over_fp32\": " << log2_attend_over_fp32
       << "\n}\n";
  std::printf("\nwrote %s\n", path.c_str());

  if (g_ok) {
    std::printf("PASS: parity checks clean; dispatched GEMV %.2fx scalar\n",
                gemv_speedup);
    std::printf("PASS: matvec_blocked_over_rowwise %.2f (%s)\n",
                blocked_over_rowwise,
                gate_blocking ? ">= 1.3 on avx2" : "not gated on this table");
    std::printf("PASS: matvec_multirow_over_rowwise %.2f (%s)\n",
                multirow_over_rowwise,
                gate_blocking ? ">= 1.2 on avx2" : "not gated on this table");
    std::printf("PASS: matvec_group4_over_rowwise %.2f (%s)\n",
                group4_over_rowwise,
                gate_blocking ? ">= 1.5 on avx2" : "not gated on this table");
    std::printf("PASS: mx_quantize_over_scalar %.2f (%s)\n", mx_over_scalar,
                gate_blocking ? ">= 2.0 on avx2" : "not gated on this table");
    std::printf("PASS: log2_attend_over_fp32 %.2f (%s)\n",
                log2_attend_over_fp32,
                gate_blocking ? "<= 3.0 on avx2" : "not gated on this table");
    return 0;
  }
  return 1;
}
