// Table 1 reproduction: perplexity of the four evaluation models under the
// nine quantization schemes, via the teacher-student proxy (DESIGN.md §2).
// Each model column uses the scaled-down preset of the named architecture;
// the BF16 engine is the teacher whose sampled streams play WikiText-2.
//
// Runs on the batched serving path: per scheme the weights are prepared
// exactly once into a shared PreparedModel, and the evaluation streams are
// scored concurrently by a continuously-batched ServingEngine (bitwise
// identical to scoring them one engine at a time — see test_serving.cpp).
#include <cmath>
#include <cstdio>
#include <vector>

#include "eval/perplexity.h"
#include "eval/schemes.h"

namespace {

constexpr std::size_t kStreams = 4;     // concurrent sequences per scheme
constexpr std::size_t kStreamLen = 160;  // tokens per stream
constexpr std::size_t kThreads = 2;     // decode fan-out per step

const std::vector<opal::KvQuantMode> kKvModes = {
    opal::KvQuantMode::kFp32, opal::KvQuantMode::kInt8,
    opal::KvQuantMode::kLog2};

struct ModelRun {
  std::string name;
  std::vector<double> ppl;  // one per scheme (mean over streams)
  // Paged-KV accuracy cost: PPL of the paper's flagship W4A4/7 MX-OPAL
  // scheme under each KV storage mode (same streams, same weights).
  std::vector<double> kv_ppl;  // one per kKvModes entry
};

double pooled_ppl(const std::vector<double>& per_stream) {
  // Pooled corpus perplexity exp(total CE / total predictions): with
  // equal-length streams this is the geometric mean of per-stream PPLs
  // (an arithmetic mean would be upward-biased by Jensen's inequality).
  double log_sum = 0.0;
  for (const double p : per_stream) log_sum += std::log(p);
  return std::exp(log_sum / static_cast<double>(per_stream.size()));
}

ModelRun run_model(const opal::ModelConfig& full, std::uint64_t seed) {
  using namespace opal;
  const auto cfg = scaled_for_eval(full, 128, 3, 256);
  SyntheticModel model(cfg, seed, 0.02f);
  calibrate_logit_scale(model, 24, seed + 1);
  const auto calibration = calibrate_model(model, 48, seed + 2);

  // One shared BF16 teacher; each stream samples through its own cheap
  // facade (SequenceState) over the same prepared weights.
  EngineConfig teacher_cfg;
  teacher_cfg.max_seq_len = kStreamLen + 2;
  auto teacher = std::make_shared<const PreparedModel>(model, teacher_cfg);
  std::vector<std::vector<std::size_t>> streams;
  for (std::size_t s = 0; s < kStreams; ++s) {
    InferenceEngine facade(teacher);
    streams.push_back(generate_stream(facade, kStreamLen, seed + 3 + s));
  }

  ModelRun run;
  run.name = full.name;
  const auto schemes = table1_schemes();
  for (const auto& scheme : schemes) {
    EngineConfig engine_cfg = scheme.config;
    engine_cfg.max_seq_len = kStreamLen + 2;
    const PreparedModel prepared(model, engine_cfg, &calibration);
    run.ppl.push_back(
        pooled_ppl(evaluate_perplexity_batched(prepared, streams, kThreads)));
  }

  // KV-mode sweep on W4A4/7 MX-OPAL: weights and activations fixed, only
  // the paged cache's entry storage changes. The fp32-KV row is exactly
  // the scheme-table entry above (default kv_mode is fp32) — reuse it
  // instead of re-quantizing and re-scoring; if the scheme table ever
  // drops that row, fall through and compute it like the other modes.
  std::ptrdiff_t mx_opal_row = -1;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    if (schemes[s].label == "W4A4/7 (MX-OPAL)") {
      mx_opal_row = static_cast<std::ptrdiff_t>(s);
      break;
    }
  }
  for (const KvQuantMode mode : kKvModes) {
    if (mode == KvQuantMode::kFp32 && mx_opal_row >= 0) {
      run.kv_ppl.push_back(run.ppl[static_cast<std::size_t>(mx_opal_row)]);
      continue;
    }
    EngineConfig engine_cfg = scheme_mx_opal(4, 4, 7);
    engine_cfg.max_seq_len = kStreamLen + 2;
    engine_cfg.kv_mode = mode;
    const PreparedModel prepared(model, engine_cfg, &calibration);
    run.kv_ppl.push_back(
        pooled_ppl(evaluate_perplexity_batched(prepared, streams, kThreads)));
  }
  return run;
}

}  // namespace

int main() {
  using namespace opal;
  std::printf("=== Table 1: perplexity (teacher-student proxy) on scaled "
              "models ===\n");
  std::printf("(each cell: pooled PPL over %zu streams of %zu tokens, scored "
              "concurrently on the batched serving path)\n",
              kStreams, kStreamLen);

  const std::vector<ModelConfig> models = {llama2_7b(), llama2_13b(),
                                           opt_6_7b(), opt_13b()};
  std::vector<ModelRun> runs;
  for (std::size_t i = 0; i < models.size(); ++i) {
    runs.push_back(run_model(models[i], 100 + 17 * i));
  }

  std::printf("%-20s", "Scheme");
  for (const auto& run : runs) std::printf(" %12s", run.name.c_str());
  std::printf("\n");
  const auto schemes = table1_schemes();
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::printf("%-20s", schemes[s].label.c_str());
    for (const auto& run : runs) std::printf(" %12.3f", run.ppl[s]);
    std::printf("\n");
  }

  std::printf(
      "\nPaper reference (shape): MX-OPAL tracks the BF16 baseline within "
      "~1 PPL at W4A4/7; the W3A3/5 MinMax rows blow up (32.7/10.8/28.7/"
      "95.8 on the real models) while W3A3/5 MX-OPAL stays close.\n");

  std::printf("\n=== Paged KV-cache storage mode (W4A4/7 MX-OPAL, batched "
              "serving path) ===\n");
  std::printf("(delta vs fp32-paged KV, which stores the written bits "
              "exactly)\n");
  std::printf("%-20s", "KV mode");
  for (const auto& run : runs) std::printf(" %12s", run.name.c_str());
  std::printf("\n");
  for (std::size_t m = 0; m < kKvModes.size(); ++m) {
    const std::size_t bits = kv_bits_per_entry(kKvModes[m]);
    const std::string label =
        to_string(kKvModes[m]) + " (" + std::to_string(bits) + "b)";
    std::printf("%-20s", label.c_str());
    for (const auto& run : runs) std::printf(" %12.3f", run.kv_ppl[m]);
    std::printf("\n");
    if (m > 0) {
      std::printf("%-20s", "  delta vs fp32");
      for (const auto& run : runs) {
        std::printf(" %+12.3f", run.kv_ppl[m] - run.kv_ppl[0]);
      }
      std::printf("\n");
    }
  }
  return 0;
}
