#include "llm/model_config.h"

#include <gtest/gtest.h>

#include "model_reference.h"

namespace opal {
namespace {

TEST(ModelConfig, PublishedShapes) {
  const auto m7 = llama2_7b();
  EXPECT_EQ(m7.n_layers, 32u);
  EXPECT_EQ(m7.d_model, 4096u);
  EXPECT_EQ(m7.d_ffn, 11008u);
  EXPECT_EQ(m7.d_head(), 128u);
  EXPECT_EQ(m7.norm, NormKind::kRmsNorm);

  const auto m70 = llama2_70b();
  EXPECT_EQ(m70.n_layers, 80u);
  EXPECT_EQ(m70.d_model, 8192u);

  const auto o67 = opt_6_7b();
  EXPECT_EQ(o67.norm, NormKind::kLayerNorm);
  EXPECT_EQ(o67.activation, ActivationKind::kReLU);
}

TEST(ModelConfig, ParamCountsRoughlyMatchNames) {
  // Our two-matrix FFN (the paper's FC1/FC2 view of Fig 5) undercounts the
  // real SwiGLU models by the gate projection, so the named sizes are a
  // ~0.7-0.85x ballpark, not exact.
  const double p7 = static_cast<double>(llama2_7b().param_count());
  EXPECT_GT(p7, 0.6 * 6.7e9);
  EXPECT_LT(p7, 1.1 * 6.7e9);
  const double p13 = static_cast<double>(llama2_13b().param_count());
  EXPECT_GT(p13, 0.6 * 13e9);
  EXPECT_LT(p13, 1.1 * 13e9);
  const double p70 = static_cast<double>(llama2_70b().param_count());
  EXPECT_GT(p70, 0.6 * 70e9);
  EXPECT_LT(p70, 1.1 * 70e9);
}

TEST(ModelConfig, MacsPerTokenGrowsWithSeqLen) {
  const auto m = llama2_7b();
  EXPECT_GT(model_reference::macs_per_token(m, 2048),
            model_reference::macs_per_token(m, 1));
  // Projections dominate: MACs(1) ~ params.
  EXPECT_NEAR(static_cast<double>(model_reference::macs_per_token(m, 1)),
              static_cast<double>(m.param_count()), 0.05 * 6.7e9);
}

TEST(ScaledForEval, PreservesRatios) {
  const auto full = llama2_7b();
  const auto eval = scaled_for_eval(full, 128, 3);
  EXPECT_EQ(eval.d_model, 128u);
  EXPECT_EQ(eval.n_layers, 3u);
  EXPECT_EQ(eval.norm, full.norm);
  EXPECT_EQ(eval.activation, full.activation);
  // FFN expansion ratio ~ 11008/4096 = 2.6875 -> 344 -> floored to 256
  // (multiple of the MX block).
  EXPECT_EQ(eval.d_ffn % 128, 0u);
  EXPECT_GE(eval.d_ffn, 128u);
  EXPECT_EQ(eval.name, "Llama2-7B-eval");
}

TEST(ScaledForEval, HeadDimPreserved) {
  const auto eval = scaled_for_eval(llama2_7b(), 256, 2);
  EXPECT_EQ(eval.d_model / eval.n_heads, 128u);
}

TEST(ScaledForEval, VocabOverride) {
  const auto eval = scaled_for_eval(opt_13b(), 128, 2, 777);
  EXPECT_EQ(eval.vocab, 777u);
}

}  // namespace
}  // namespace opal
