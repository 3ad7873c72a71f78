#include "llm/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "calibration_reference.h"
#include "eval/perplexity.h"
#include "eval/schemes.h"
#include "llm/sequence_state.h"

namespace opal {
namespace {

ModelConfig tiny_config() {
  return scaled_for_eval(llama2_7b(), 128, 2, 64);
}

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(tiny_config(), 42);
  return model;
}

TEST(Engine, StepProducesFiniteLogits) {
  InferenceEngine engine(tiny_model(), EngineConfig{});
  const auto logits = engine.step(0);
  ASSERT_EQ(logits.size(), tiny_model().config().vocab);
  for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(Engine, DeterministicAcrossInstances) {
  InferenceEngine a(tiny_model(), EngineConfig{});
  InferenceEngine b(tiny_model(), EngineConfig{});
  const auto la = a.step(3);
  const auto lb = b.step(3);
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(Engine, ResetRestoresInitialState) {
  InferenceEngine engine(tiny_model(), EngineConfig{});
  engine.step(1);
  engine.step(2);
  engine.reset();
  EXPECT_EQ(engine.position(), 0u);
  const auto l1_again = engine.step(1);
  InferenceEngine fresh(tiny_model(), EngineConfig{});
  const auto expected = fresh.step(1);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(l1_again[i], expected[i]);
  }
}

TEST(Engine, PositionTracksSteps) {
  InferenceEngine engine(tiny_model(), EngineConfig{});
  EXPECT_EQ(engine.position(), 0u);
  engine.step(0);
  engine.step(1);
  EXPECT_EQ(engine.position(), 2u);
}

TEST(Engine, ContextChangesLogits) {
  // The KV cache works: same token, different history -> different logits.
  InferenceEngine engine(tiny_model(), EngineConfig{});
  engine.step(5);
  const std::vector<float> with_ctx(engine.step(9).begin(),
                                    engine.step(9).end());
  engine.reset();
  const auto no_ctx = engine.step(9);
  bool differs = false;
  for (std::size_t i = 0; i < no_ctx.size(); ++i) {
    if (no_ctx[i] != with_ctx[i]) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Engine, TokenOutOfRangeThrows) {
  InferenceEngine engine(tiny_model(), EngineConfig{});
  EXPECT_THROW(engine.step(tiny_model().config().vocab),
               std::invalid_argument);
}

TEST(Engine, Bf16BaselineHasNoQuantizedWeights) {
  InferenceEngine engine(tiny_model(), EngineConfig{});
  EXPECT_EQ(engine.fp_weight_fraction(), 1.0);
  // Full bf16 storage: params * 16 bits for the decoder stack.
  const auto& cfg = tiny_model().config();
  const std::size_t decoder_params =
      cfg.n_layers * (4 * cfg.d_model * cfg.d_model +
                      2 * cfg.d_ffn * cfg.d_model);
  EXPECT_EQ(engine.weight_storage_bits(), decoder_params * 16);
}

TEST(Engine, OwqReducesWeightStorage) {
  InferenceEngine bf16(tiny_model(), EngineConfig{});
  InferenceEngine owq(tiny_model(), scheme_owq(4));
  EXPECT_LT(owq.weight_storage_bits(), bf16.weight_storage_bits() / 3);
  EXPECT_LT(owq.fp_weight_fraction(), 0.05);
  EXPECT_GT(owq.fp_weight_fraction(), 0.0);
}

TEST(Engine, QuantizedEnginePerturbsLogitsSlightly) {
  InferenceEngine teacher(tiny_model(), EngineConfig{});
  InferenceEngine student(tiny_model(), scheme_mx_opal(4, 4, 7));
  const auto lt = teacher.step(2);
  const auto ls = student.step(2);
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < lt.size(); ++i) {
    diff += std::abs(static_cast<double>(lt[i]) - ls[i]);
    norm += std::abs(lt[i]);
  }
  EXPECT_GT(diff, 0.0);                // quantization does something
  EXPECT_LT(diff / norm, 0.5);         // ...but not catastrophic at W4A4/7
}

TEST(Engine, RecorderSeesAllSites) {
  struct CountingRecorder final : ActivationRecorder {
    std::map<RecordSite, int> counts;
    void record(std::size_t, RecordSite site,
                std::span<const float>) override {
      ++counts[site];
    }
  } recorder;

  InferenceEngine engine(tiny_model(), EngineConfig{});
  engine.set_recorder(&recorder);
  engine.step(0);
  engine.step(1);
  const int layers = static_cast<int>(tiny_model().config().n_layers);
  for (const auto site :
       {RecordSite::kAttnIn, RecordSite::kQuery, RecordSite::kKey,
        RecordSite::kValue, RecordSite::kProjIn, RecordSite::kFc1In,
        RecordSite::kFc2In}) {
    EXPECT_EQ(recorder.counts[site], 2 * layers) << to_string(site);
  }
}

TEST(Engine, CalibrationShapesMatch) {
  const auto cal = calibrate_model(tiny_model(), 16, 3);
  ASSERT_EQ(cal.size(), tiny_model().config().n_layers);
  EXPECT_EQ(cal[0].attn_in.dim(), tiny_model().config().d_model);
  EXPECT_EQ(cal[0].fc2_in.dim(), tiny_model().config().d_ffn);
  EXPECT_EQ(cal[0].attn_in.tokens_seen(), 16u);
}

TEST(Engine, CalibrationFindsPlantedOutlierChannels) {
  const auto cal = calibrate_model(tiny_model(), 32, 3);
  // The planted outlier channels must rank at the top of the post-LN
  // sensitivity (they get the amplified norm gains).
  const auto planted = tiny_model().outlier_channels();
  const auto top =
      calibration_reference::top_channels(cal[0].attn_in, planted.size());
  std::size_t hits = 0;
  for (const auto c : planted) {
    if (std::find(top.begin(), top.end(), c) != top.end()) ++hits;
  }
  EXPECT_GE(hits, planted.size() - 1);  // allow one tie-break miss
}

TEST(Engine, CalibratedOwqTargetsOutlierColumns) {
  const auto cal = calibrate_model(tiny_model(), 32, 3);
  InferenceEngine engine(tiny_model(), scheme_owq(4), &cal);
  EXPECT_GT(engine.fp_weight_fraction(), 0.0);
}

TEST(Engine, Log2SoftmaxEngineRuns) {
  EngineConfig cfg;
  cfg.log2_softmax = true;
  cfg.softmax_bits = 7;
  InferenceEngine engine(tiny_model(), cfg);
  const auto logits = engine.step(0);
  for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(Engine, LogitScaleCalibrationHitsTarget) {
  SyntheticModel model(tiny_config(), 77);
  calibrate_logit_scale(model, 24, 5, 2.5f);
  // After calibration a fresh run's logit stddev is near the target.
  InferenceEngine engine(model, EngineConfig{});
  double sum = 0.0, sum_sq = 0.0;
  std::size_t n = 0;
  std::size_t token = 0;
  for (int t = 0; t < 16; ++t) {
    const auto logits = engine.step(token);
    for (const float v : logits) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    n += logits.size();
    token = (token + 7) % model.config().vocab;
  }
  const double mean = sum / static_cast<double>(n);
  const double stddev = std::sqrt(sum_sq / static_cast<double>(n) -
                                  mean * mean);
  EXPECT_NEAR(stddev, 2.5, 1.0);
}

TEST(Engine, OptStyleModelRuns) {
  // LayerNorm + ReLU path (OPT architecture), quantized end to end.
  SyntheticModel model(scaled_for_eval(opt_6_7b(), 128, 2, 64), 55);
  ASSERT_EQ(model.config().norm, NormKind::kLayerNorm);
  ASSERT_EQ(model.config().activation, ActivationKind::kReLU);
  InferenceEngine engine(model, scheme_mx_opal(4, 4, 7));
  for (const std::size_t t : {0u, 5u, 9u}) {
    const auto logits = engine.step(t);
    for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Engine, StepIsAOneRowChunk) {
  const PreparedModel model(tiny_model(), EngineConfig{});
  SequenceState state = model.make_sequence();
  PassScratch scratch = model.make_scratch();
  EXPECT_TRUE(state.logits().empty());  // no pass yet
  for (const std::size_t token : {3u, 1u, 4u}) {
    const auto returned = model.step(state, token, scratch);
    ASSERT_EQ(state.chunk_tokens(), 1u);
    const auto row = state.chunk_logits_row(0);
    const auto logits = state.logits();
    ASSERT_EQ(logits.size(), row.size());
    EXPECT_EQ(logits.data(), returned.data());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(logits[i]),
                std::bit_cast<std::uint32_t>(row[i]))
          << i;
    }
  }
}

TEST(EngineConfig, Labels) {
  EXPECT_EQ(EngineConfig{}.label(), "W16A16 (BF16)");
  EXPECT_EQ(scheme_owq(4).label(), "W4A16 (BF16)");
  EXPECT_EQ(scheme_mx_opal(4, 4, 7).label(), "W4A4/7 (MX-OPAL)");
  EXPECT_EQ(scheme_minmax(3, 3, 5).label(), "W3A3/5 (MinMax)");
}

}  // namespace
}  // namespace opal
