#include "eval/perplexity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "eval/schemes.h"

namespace opal {
namespace {

const SyntheticModel& eval_model() {
  static const SyntheticModel model = [] {
    SyntheticModel m(scaled_for_eval(llama2_7b(), 128, 2, 64), 42);
    calibrate_logit_scale(m, 24, 5);
    return m;
  }();
  return model;
}

TEST(LogSoftmax, NormalizedDistribution) {
  const std::vector<float> logits = {1.0f, 2.0f, 3.0f};
  std::vector<double> out(3);
  log_softmax(logits, out);
  double sum = 0.0;
  for (const double lp : out) {
    EXPECT_LE(lp, 0.0);
    sum += std::exp(lp);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LogSoftmax, StableForHugeLogits) {
  const std::vector<float> logits = {10000.0f, 0.0f};
  std::vector<double> out(2);
  log_softmax(logits, out);
  EXPECT_NEAR(out[0], 0.0, 1e-6);
  EXPECT_TRUE(std::isfinite(out[1]));
}

TEST(GenerateStream, LengthAndRange) {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  InferenceEngine engine(eval_model(), cfg);
  const auto tokens = generate_stream(engine, 48, 7);
  EXPECT_EQ(tokens.size(), 48u);
  for (const auto t : tokens) EXPECT_LT(t, eval_model().config().vocab);
}

TEST(GenerateStream, DeterministicGivenSeed) {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  InferenceEngine a(eval_model(), cfg), b(eval_model(), cfg);
  EXPECT_EQ(generate_stream(a, 32, 9), generate_stream(b, 32, 9));
}

TEST(GenerateStream, SeedsDiffer) {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  InferenceEngine a(eval_model(), cfg), b(eval_model(), cfg);
  EXPECT_NE(generate_stream(a, 32, 1), generate_stream(b, 32, 2));
}

TEST(Perplexity, TeacherBeatsUniform) {
  EngineConfig cfg;
  cfg.max_seq_len = 128;
  InferenceEngine teacher(eval_model(), cfg);
  const auto tokens = generate_stream(teacher, 96, 11);
  const double ppl = evaluate_perplexity(teacher, tokens);
  // The teacher predicts its own stream better than chance...
  EXPECT_LT(ppl, static_cast<double>(eval_model().config().vocab));
  // ...but sampling at temperature 1 keeps entropy well above 1.
  EXPECT_GT(ppl, 1.5);
}

TEST(Perplexity, QuantizationIncreasesPerplexity) {
  EngineConfig cfg;
  cfg.max_seq_len = 128;
  InferenceEngine teacher(eval_model(), cfg);
  const auto tokens = generate_stream(teacher, 96, 13);
  const double base = evaluate_perplexity(teacher, tokens);

  auto harsh = scheme_minmax(3, 3, 5);
  harsh.max_seq_len = 128;
  InferenceEngine student(eval_model(), harsh);
  const double quant_ppl = evaluate_perplexity(student, tokens);
  EXPECT_GT(quant_ppl, base);
}

TEST(Perplexity, RequiresTwoTokens) {
  EngineConfig cfg;
  InferenceEngine engine(eval_model(), cfg);
  const std::vector<std::size_t> one = {0};
  EXPECT_THROW(static_cast<void>(evaluate_perplexity(engine, one)),
               std::invalid_argument);
}

}  // namespace
}  // namespace opal
