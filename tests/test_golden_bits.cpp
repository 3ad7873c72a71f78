// Golden end-to-end bits: the paper's operating point (OWQ W4, MX-OPAL A4/7,
// log2 softmax) served through ServingEngine with chunked prefill, hashed
// over every observed logit and every token.
//
// Every other bitwise suite compares two serving paths that share one
// quantizer and one softmax unit, so a change to those would pass all of
// them. These hashes were recorded before the fused activation path
// replaced decode(encode()); any change to the bits of the quantizer, the
// bf16 rounding, the log2 softmax unit or the sampler's use of it fails
// here. Re-record a hash only for a change meant to alter outputs, and say
// so in its commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

const SyntheticModel& golden_model() {
  // d_model 192 puts a 64-element tail block behind every 128-element
  // block of the attention-path activations; d_ffn rounds to 512.
  static const SyntheticModel model(scaled_for_eval(llama2_7b(), 192, 2, 96),
                                    17);
  return model;
}

std::vector<Request> golden_requests() {
  std::vector<Request> requests;
  for (std::size_t r = 0; r < 4; ++r) {
    Request req;
    for (std::size_t i = 0; i < 9 + 5 * r; ++i) {
      req.prompt.push_back((i * 37 + r * 11 + 3) % 96);
    }
    req.max_new_tokens = 10;
    if (r % 2 == 1) {  // seeded top-p on the sampler's log2 path
      req.sampling.policy = SamplePolicy::kTopP;
      req.sampling.temperature = 0.8f;
      req.sampling.top_p = 0.9f;
      req.sampling.seed = 100 + r;
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Pins the scalar kernel table, the source-order IEEE reference, so the
/// hashes do not depend on which SIMD table the host resolves.
class GoldenBits : public ::testing::Test {
 protected:
  void SetUp() override { set_force_scalar_kernels(true); }
  void TearDown() override { set_force_scalar_kernels(false); }
};

std::uint64_t serve_hash(KvQuantMode mode) {
  EngineConfig ecfg = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  ecfg.max_seq_len = 64;
  ecfg.kv_block_size = 8;
  ecfg.kv_mode = mode;
  const auto model = std::make_shared<const PreparedModel>(golden_model(), ecfg);

  ServingConfig scfg;
  scfg.max_batch = 4;
  scfg.prefill_chunk_tokens = 4;
  ServingEngine engine(model, scfg);
  std::uint64_t h = kFnvOffset;
  engine.set_logits_observer(
      [&h](RequestId id, std::size_t pos, std::span<const float> logits) {
        fnv_mix(h, id);
        fnv_mix(h, pos);
        for (const float v : logits) fnv_mix(h, std::bit_cast<std::uint32_t>(v));
      });
  std::vector<RequestId> ids;
  for (const Request& req : golden_requests()) ids.push_back(engine.submit(req));
  engine.run();
  for (const RequestId id : ids) {
    const RequestResult res = engine.result(id);
    EXPECT_EQ(res.status, RequestStatus::kFinished);
    for (const std::size_t t : res.tokens) fnv_mix(h, t);
  }
  return h;
}

TEST_F(GoldenBits, MxOpalLog2ServingFp32Kv) {
  EXPECT_EQ(serve_hash(KvQuantMode::kFp32), 0x16e758c26127343bull);
}

TEST_F(GoldenBits, MxOpalLog2ServingInt8Kv) {
  EXPECT_EQ(serve_hash(KvQuantMode::kInt8), 0x4393bb76422f6c14ull);
}

TEST_F(GoldenBits, MxOpalLog2ServingLog2Kv) {
  EXPECT_EQ(serve_hash(KvQuantMode::kLog2), 0x0aec89d766a889ffull);
}

}  // namespace
}  // namespace opal
