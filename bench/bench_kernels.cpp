// Kernel-layer micro bench: scalar reference vs the runtime-dispatched SIMD
// table (common/kernels.h) on the serving hot path's shapes — GEMV (plus the
// dispatched table's multi-row over one-row matvec ratio), the
// attention score kernel and its fused dequantize twins per kv_mode, and
// attention score/accumulate over realistic block-segment shapes — plus
// the in-process serving headline
// numbers (fifo chunk-1 vs chunk-8 short-request p50 TTFT steps, decode
// tokens/s) that bench_scheduler/bench_sampling report, persisted together
// as BENCH_kernels.json (path = argv[1], default ./BENCH_kernels.json) to
// start the cross-PR perf trajectory.
//
// Asserted (exit 1): every dispatched kernel matches the scalar reference
// within reduction-reorder tolerance; the fused dequant score kernels match
// decode-then-attend_scores BITWISE within each table; with a SIMD table
// present, the dispatched GEMV is not slower than scalar; on the AVX2 table,
// 128 one-row matvec calls take at least 1.3x the time of one 128-row call
// (matvec_blocked_over_rowwise), and 16 one-input-row matvec calls over
// 256x128 weights at least 1.2x the time of one 16-input-row call
// (matvec_multirow_over_rowwise).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

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

template <typename F>
double us_per_call(F&& f, int iters) {
  f();  // warmup
  const auto t0 = clock_type::now();
  for (int i = 0; i < iters; ++i) f();
  return std::chrono::duration<double, std::micro>(clock_type::now() - t0)
             .count() /
         iters;
}

bool g_ok = true;
void check(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    g_ok = false;
  }
}

// --- serving headline numbers (in-process) ----------------------------------

struct ServingHeadline {
  std::size_t chunk1_ttft_p50_steps = 0;
  std::size_t chunk8_ttft_p50_steps = 0;
  double decode_tokens_per_s = 0.0;
};

ServingHeadline serving_headline() {
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);
  EngineConfig cfg;
  cfg.max_seq_len = 128;
  cfg.kv_block_size = 16;
  cfg.kv_mode = KvQuantMode::kInt8;
  auto prepared = std::make_shared<const PreparedModel>(model, cfg);

  std::vector<Request> requests;
  for (std::size_t r = 0; r < 2; ++r) {  // long prompts hog the slots first
    Request req;
    for (std::size_t i = 0; i < 64; ++i) req.prompt.push_back((i * 13 + r) % 256);
    req.max_new_tokens = 8;
    requests.push_back(std::move(req));
  }
  for (std::size_t r = 0; r < 4; ++r) {  // then short interactive requests
    Request req;
    for (std::size_t i = 0; i < 8; ++i) {
      req.prompt.push_back((i * 29 + 7 * r + 3) % 256);
    }
    req.max_new_tokens = 8;
    requests.push_back(std::move(req));
  }

  ServingHeadline out;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{8}}) {
    ServingConfig scfg;
    scfg.max_batch = 3;
    scfg.scheduler = std::make_shared<FifoScheduler>();
    scfg.prefill_chunk_tokens = chunk;
    ServingEngine engine(prepared, scfg);
    std::vector<RequestId> ids;
    for (const auto& req : requests) ids.push_back(engine.submit(req));
    std::vector<std::size_t> short_ttft;
    std::vector<bool> seen(requests.size(), false);
    std::size_t steps = 0, decodes = 0, n;
    const auto t0 = clock_type::now();
    while ((n = engine.step()) > 0) {
      ++steps;
      decodes += n;
      for (std::size_t r = 2; r < requests.size(); ++r) {
        if (!seen[r] && engine.result(ids[r]).generated() > 0) {
          seen[r] = true;
          short_ttft.push_back(steps);
        }
      }
    }
    const double sec =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    std::sort(short_ttft.begin(), short_ttft.end());
    const std::size_t p50 = short_ttft[short_ttft.size() / 2];
    if (chunk == 1) {
      out.chunk1_ttft_p50_steps = p50;
    } else {
      out.chunk8_ttft_p50_steps = p50;
      out.decode_tokens_per_s = static_cast<double>(decodes) / sec;
    }
  }
  return out;
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
    std::printf("parity: dispatched-vs-scalar tolerance and fused-vs-decoded "
                "bitwise checks %s\n\n",
                g_ok ? "PASS" : "FAIL");
  }

  // --- micro timings --------------------------------------------------------
  std::printf("%-26s %12s %12s %9s\n", "kernel", "scalar us", "dispatch us",
              "speedup");
  auto row = [](const char* name, double us_scalar, double us_dispatched) {
    std::printf("%-26s %12.2f %12.2f %8.2fx\n", name, us_scalar,
                us_dispatched, us_scalar / us_dispatched);
    return us_scalar / us_dispatched;
  };

  // GEMV: the wo projection of a d_model=512 model, then the shapes
  // servebench's d_model 128 / d_ffn 256 / vocab 512 model serves.
  struct Gemv {
    std::size_t rows, cols;
    double scalar_us = 0.0, dispatched_us = 0.0;
    double gflops(double us) const {
      return 2.0 * static_cast<double>(rows * cols) / us / 1e3;
    }
    std::string key() const {
      return "gemv_" + std::to_string(rows) + "x" + std::to_string(cols);
    }
  };
  std::vector<Gemv> gemvs = {
      {512, 512}, {128, 128}, {256, 128}, {128, 256}, {512, 128}};
  for (Gemv& g : gemvs) {
    const auto w = rand_vec(g.rows * g.cols);
    const auto x = rand_vec(g.cols);
    std::vector<float> y(g.rows);
    const int iters = static_cast<int>(200 * 512 * 512 / (g.rows * g.cols));
    g.scalar_us = us_per_call(
        [&] { scalar.matvec(w.data(), g.rows, g.cols, x.data(), 1, y.data()); },
        iters);
    g.dispatched_us = us_per_call(
        [&] {
          dispatched.matvec(w.data(), g.rows, g.cols, x.data(), 1, y.data());
        },
        iters);
    g_sink += y[0];
    row(g.key().c_str(), g.scalar_us, g.dispatched_us);
  }
  const double gemv_speedup = gemvs[0].scalar_us / gemvs[0].dispatched_us;

  // Row blocking: 128 one-row matvec calls over 128x128 weights against one
  // 128-row call on the dispatched table, median over repeats. Both sides
  // run in this process back to back, so host speed cancels out.
  double blocked_over_rowwise = 0.0;
  {
    const std::size_t n = 128;
    const auto w = rand_vec(n * n);
    const auto x = rand_vec(n);
    std::vector<float> y(n);
    std::vector<double> ratios;
    for (int rep = 0; rep < 15; ++rep) {
      const double rowwise = us_per_call(
          [&] {
            for (std::size_t r = 0; r < n; ++r) {
              dispatched.matvec(w.data() + r * n, 1, n, x.data(), 1, &y[r]);
            }
          },
          100);
      const double blocked = us_per_call(
          [&] { dispatched.matvec(w.data(), n, n, x.data(), 1, y.data()); },
          100);
      ratios.push_back(rowwise / blocked);
    }
    g_sink += y[0];
    std::sort(ratios.begin(), ratios.end());
    blocked_over_rowwise = ratios[ratios.size() / 2];
    std::printf("%-26s %12s %12s %8.2fx\n", "matvec blocked/rowwise", "-",
                "-", blocked_over_rowwise);
  }

  // Input-row sharing: 16 one-row matvec calls over 256x128 weights (the
  // fc1 shape) against one 16-row call, as a 16-row prefill chunk runs
  // them, median over repeats.
  double multirow_over_rowwise = 0.0;
  {
    const std::size_t rows = 256, cols = 128, n = 16;
    const auto w = rand_vec(rows * cols);
    const auto x = rand_vec(n * cols);
    std::vector<float> y(n * rows);
    std::vector<double> ratios;
    for (int rep = 0; rep < 15; ++rep) {
      const double rowwise = us_per_call(
          [&] {
            for (std::size_t i = 0; i < n; ++i) {
              dispatched.matvec(w.data(), rows, cols, x.data() + i * cols, 1,
                                y.data() + i * rows);
            }
          },
          50);
      const double multirow = us_per_call(
          [&] {
            dispatched.matvec(w.data(), rows, cols, x.data(), n, y.data());
          },
          50);
      ratios.push_back(rowwise / multirow);
    }
    g_sink += y[0];
    std::sort(ratios.begin(), ratios.end());
    multirow_over_rowwise = ratios[ratios.size() / 2];
    std::printf("%-26s %12s %12s %8.2fx\n", "matvec multirow/rowwise", "-",
                "-", multirow_over_rowwise);
  }

  // Score kernels over 4096 MACs (64 contiguous KV rows of d_head 64), one
  // per kv_mode: attend_scores, then its fused int8 / log2 twins.
  const std::size_t sc_rows = 64, sc_d = 64;
  const auto sq = rand_vec(sc_d), sk = rand_vec(sc_rows * sc_d);
  const auto sk_codes = rand_codes(sc_rows * sc_d);
  std::vector<float> sc_out(sc_rows);
  auto scores_us = [&](const KernelOps& ops, KvQuantMode mode) {
    return us_per_call(
        [&] {
          if (mode == KvQuantMode::kFp32) {
            ops.attend_scores(sq.data(), sk.data(), sc_rows, sc_d, sc_d,
                              0.125f, sc_out.data());
          } else if (mode == KvQuantMode::kInt8) {
            ops.dequant_scores_int8(sq.data(), sk_codes.data(), sc_rows, sc_d,
                                    sc_d, 0.01f, 0.125f, sc_out.data());
          } else {
            ops.dequant_scores_log2(sq.data(), sk_codes.data(), sc_rows, sc_d,
                                    sc_d, 2, 0.125f, sc_out.data());
          }
          g_sink += sc_out[0];
        },
        2000);
  };
  const double sc_scalar = scores_us(scalar, KvQuantMode::kFp32);
  const double sc_simd = scores_us(dispatched, KvQuantMode::kFp32);
  const double sc_speedup = row("attend_scores 64x64", sc_scalar, sc_simd);
  const double i8_scalar = scores_us(scalar, KvQuantMode::kInt8);
  const double i8_simd = scores_us(dispatched, KvQuantMode::kInt8);
  const double i8_speedup =
      row("dequant_scores int8 64x64", i8_scalar, i8_simd);
  const double lg_scalar = scores_us(scalar, KvQuantMode::kLog2);
  const double lg_simd = scores_us(dispatched, KvQuantMode::kLog2);
  const double lg_speedup =
      row("dequant_scores log2 64x64", lg_scalar, lg_simd);

  // Attend over realistic paged-KV segment shapes: context 256 in 16-row
  // blocks (16 segments), d_model 128, d_head 64, scores then weighted sum.
  const std::size_t segs = 16, seg_rows = 16, d_model = 128, d_head = 64;
  const auto kv = rand_vec(segs * seg_rows * d_model);
  const auto kvc = rand_codes(segs * seg_rows * d_model);
  const auto q = rand_vec(d_head);
  const auto wts = rand_vec(segs * seg_rows);
  std::vector<float> scores(segs * seg_rows), z(d_head);
  auto attend_fp32 = [&](const KernelOps& ops) {
    std::fill(z.begin(), z.end(), 0.0f);
    for (std::size_t sg = 0; sg < segs; ++sg) {
      ops.attend_scores(q.data(), kv.data() + sg * seg_rows * d_model,
                        seg_rows, d_model, d_head, 0.125f,
                        scores.data() + sg * seg_rows);
      ops.attend_accum(wts.data() + sg * seg_rows,
                       kv.data() + sg * seg_rows * d_model, seg_rows, d_model,
                       d_head, z.data());
    }
    g_sink += z[0];
  };
  auto attend_fused_int8 = [&](const KernelOps& ops) {
    std::fill(z.begin(), z.end(), 0.0f);
    for (std::size_t sg = 0; sg < segs; ++sg) {
      ops.dequant_scores_int8(q.data(), kvc.data() + sg * seg_rows * d_model,
                              seg_rows, d_model, d_head, 0.01f, 0.125f,
                              scores.data() + sg * seg_rows);
      ops.dequant_accum_int8(wts.data() + sg * seg_rows,
                             kvc.data() + sg * seg_rows * d_model, seg_rows,
                             d_model, d_head, 0.01f, z.data());
    }
    g_sink += z[0];
  };
  auto attend_fused_log2 = [&](const KernelOps& ops) {
    std::fill(z.begin(), z.end(), 0.0f);
    for (std::size_t sg = 0; sg < segs; ++sg) {
      ops.dequant_scores_log2(q.data(), kvc.data() + sg * seg_rows * d_model,
                              seg_rows, d_model, d_head, 2, 0.125f,
                              scores.data() + sg * seg_rows);
      ops.dequant_accum_log2(wts.data() + sg * seg_rows,
                             kvc.data() + sg * seg_rows * d_model, seg_rows,
                             d_model, d_head, 2, z.data());
    }
    g_sink += z[0];
  };
  const double at_scalar =
      us_per_call([&] { attend_fp32(scalar); }, 500);
  const double at_simd = us_per_call([&] { attend_fp32(dispatched); }, 500);
  const double attend_speedup =
      row("attend fp32 16x16seg", at_scalar, at_simd);
  const double at8_scalar =
      us_per_call([&] { attend_fused_int8(scalar); }, 500);
  const double at8_simd =
      us_per_call([&] { attend_fused_int8(dispatched); }, 500);
  const double attend_i8_speedup =
      row("attend int8 fused", at8_scalar, at8_simd);
  const double atl_scalar =
      us_per_call([&] { attend_fused_log2(scalar); }, 500);
  const double atl_simd =
      us_per_call([&] { attend_fused_log2(dispatched); }, 500);
  const double attend_lg_speedup =
      row("attend log2 fused", atl_scalar, atl_simd);

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
  }

  // --- serving headline numbers --------------------------------------------
  const ServingHeadline sh = serving_headline();
  std::printf("\nserving headline (int8 paged KV, fifo): short-request p50 "
              "TTFT %zu steps @ chunk 1 -> %zu steps @ chunk 8; decode "
              "%.1f tokens/s\n",
              sh.chunk1_ttft_p50_steps, sh.chunk8_ttft_p50_steps,
              sh.decode_tokens_per_s);

  // --- persist --------------------------------------------------------------
  const std::string path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::ofstream json(path);
  json.precision(4);
  json << std::fixed << "{\n"
       << "  \"bench\": \"kernels\",\n"
       << "  \"dispatch\": \"" << dispatched.name << "\",\n"
       << "  \"parity\": \"" << (g_ok ? "pass" : "fail") << "\",\n"
       << "  \"kernels\": {\n";
  for (const Gemv& g : gemvs) {
    json << "    \"" << g.key() << "\": {\"scalar_us\": " << g.scalar_us
         << ", \"dispatched_us\": " << g.dispatched_us
         << ", \"scalar_gflops\": " << g.gflops(g.scalar_us)
         << ", \"dispatched_gflops\": " << g.gflops(g.dispatched_us)
         << ", \"speedup\": " << g.scalar_us / g.dispatched_us << "},\n";
  }
  json << "    \"matvec_blocked_over_rowwise\": " << blocked_over_rowwise
       << ",\n"
       << "    \"matvec_multirow_over_rowwise\": " << multirow_over_rowwise
       << ",\n"
       << "    \"attend_scores_64x64\": {\"scalar_us\": " << sc_scalar
       << ", \"dispatched_us\": " << sc_simd << ", \"speedup\": "
       << sc_speedup << "},\n"
       << "    \"dequant_scores_int8_64x64\": {\"scalar_us\": " << i8_scalar
       << ", \"dispatched_us\": " << i8_simd << ", \"speedup\": "
       << i8_speedup << "},\n"
       << "    \"dequant_scores_log2_64x64\": {\"scalar_us\": " << lg_scalar
       << ", \"dispatched_us\": " << lg_simd << ", \"speedup\": "
       << lg_speedup << "},\n"
       << "    \"attend_fp32_segments\": {\"scalar_us\": " << at_scalar
       << ", \"dispatched_us\": " << at_simd << ", \"speedup\": "
       << attend_speedup << "},\n"
       << "    \"attend_int8_fused_segments\": {\"scalar_us\": " << at8_scalar
       << ", \"dispatched_us\": " << at8_simd << ", \"speedup\": "
       << attend_i8_speedup << "},\n"
       << "    \"attend_log2_fused_segments\": {\"scalar_us\": " << atl_scalar
       << ", \"dispatched_us\": " << atl_simd << ", \"speedup\": "
       << attend_lg_speedup << "}\n"
       << "  },\n"
       << "  \"serving\": {\n"
       << "    \"fifo_chunk1_short_ttft_p50_steps\": "
       << sh.chunk1_ttft_p50_steps << ",\n"
       << "    \"fifo_chunk8_short_ttft_p50_steps\": "
       << sh.chunk8_ttft_p50_steps << ",\n"
       << "    \"decode_tokens_per_s\": " << sh.decode_tokens_per_s << "\n"
       << "  }\n"
       << "}\n";
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
    return 0;
  }
  return 1;
}
