#include "quant/policy.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "quant/minmax.h"
#include "quant/mx_opal.h"
#include "quant/mxint.h"

namespace opal {
namespace {

TEST(Policy, A47BitsPerSite) {
  const auto policy = policy_a4_7(QuantScheme::kMxOpal);
  EXPECT_EQ(policy.bits_for(ActivationSite::kPostLayerNorm), 4);
  EXPECT_EQ(policy.bits_for(ActivationSite::kAttentionInput), 7);
  EXPECT_EQ(policy.bits_for(ActivationSite::kGeneral), 7);
  EXPECT_EQ(policy.label(), "A4/7");
}

TEST(Policy, A35BitsPerSite) {
  const auto policy = policy_a3_5(QuantScheme::kMinMax);
  EXPECT_EQ(policy.bits_for(ActivationSite::kPostLayerNorm), 3);
  EXPECT_EQ(policy.bits_for(ActivationSite::kGeneral), 5);
  EXPECT_EQ(policy.label(), "A3/5");
}

TEST(Policy, UniformLabel) {
  EXPECT_EQ(policy_uniform(QuantScheme::kMxOpal, 7).label(), "A7");
  EXPECT_EQ(policy_bf16().label(), "A16");
}

TEST(Policy, FactoryBuildsMatchingQuantizer) {
  const auto policy = policy_a4_7(QuantScheme::kMxOpal);
  const auto low = policy.make_quantizer(ActivationSite::kPostLayerNorm);
  const auto high = policy.make_quantizer(ActivationSite::kGeneral);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(low->name(), "MX-OPAL4");
  EXPECT_EQ(high->name(), "MX-OPAL7");
  EXPECT_NE(dynamic_cast<const MxOpalQuantizer*>(low.get()), nullptr);
}

TEST(Policy, MinMaxAndMxIntFactories) {
  const auto mm = policy_a4_7(QuantScheme::kMinMax)
                      .make_quantizer(ActivationSite::kGeneral);
  EXPECT_NE(dynamic_cast<const MinMaxQuantizer*>(mm.get()), nullptr);
  const auto mx = policy_a4_7(QuantScheme::kMxInt)
                      .make_quantizer(ActivationSite::kGeneral);
  EXPECT_NE(dynamic_cast<const MxIntQuantizer*>(mx.get()), nullptr);
}

TEST(Policy, RowsEqualOneCallPerRowBitwise) {
  // quantize_dequantize_rows treats each row as its own tensor: MinMax's
  // default loop and the MX schemes' one multi-row kernel call both equal
  // one quantize_dequantize call per row, out of place and in place.
  std::mt19937 rng(5);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  for (const QuantScheme scheme :
       {QuantScheme::kMinMax, QuantScheme::kMxInt, QuantScheme::kMxOpal}) {
    const auto q = policy_a4_7(scheme).make_quantizer(ActivationSite::kGeneral);
    for (const std::size_t width : {128u, 256u, 200u}) {
      const std::size_t rows = 5;
      std::vector<float> in(rows * width);
      for (std::size_t i = 0; i < in.size(); ++i) {
        // Rows at different scales, so a shared scale would show.
        in[i] = gauss(rng) * static_cast<float>(1u << (i / width * 3));
      }
      std::vector<float> want(in.size()), got(in.size());
      for (std::size_t r = 0; r < rows; ++r) {
        q->quantize_dequantize(std::span(in).subspan(r * width, width),
                               std::span(want).subspan(r * width, width));
      }
      q->quantize_dequantize_rows(in, got, width);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), in.size() * 4), 0)
          << q->name() << " width " << width;
      std::vector<float> aliased = in;
      q->quantize_dequantize_rows(aliased, aliased, width);
      EXPECT_EQ(std::memcmp(aliased.data(), want.data(), in.size() * 4), 0)
          << q->name() << " width " << width << " in place";
    }
    std::vector<float> ragged(130);
    EXPECT_THROW(q->quantize_dequantize_rows(ragged, ragged, 128),
                 std::invalid_argument)
        << q->name();
  }
}

TEST(Policy, Bf16ReturnsNull) {
  const auto policy = policy_bf16();
  EXPECT_EQ(policy.make_quantizer(ActivationSite::kGeneral), nullptr);
  EXPECT_EQ(policy.make_quantizer(ActivationSite::kPostLayerNorm), nullptr);
}

TEST(Policy, SchemeNames) {
  EXPECT_EQ(to_string(QuantScheme::kNone), "BF16");
  EXPECT_EQ(to_string(QuantScheme::kMinMax), "MinMax");
  EXPECT_EQ(to_string(QuantScheme::kMxInt), "MXINT");
  EXPECT_EQ(to_string(QuantScheme::kMxOpal), "MX-OPAL");
}

TEST(Policy, SiteNames) {
  EXPECT_EQ(to_string(ActivationSite::kPostLayerNorm), "post-LN");
  EXPECT_EQ(to_string(ActivationSite::kGeneral), "general");
}

}  // namespace
}  // namespace opal
