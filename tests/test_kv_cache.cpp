// The KV backend the batch-of-1 facade runs on: a PagedKvCache over a
// private fp32 pool. Block churn, sharing and quantized modes live in
// test_kv_pool.cpp; this file covers the single-sequence contract (clock,
// capacity, dimension checks, rollback), the facade's capacity error, and
// the KV byte accounting the accelerator model uses.
#include "llm/paged_kv_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "eval/schemes.h"
#include "kv_read_reference.h"
#include "llm/engine.h"

namespace opal {
namespace {

using kv_read_reference::gather;

TEST(Fp32PagedKvCache, WriteBeforeAdvanceThrows) {
  KvBlockPool pool(4, 2, 2);
  PagedKvCache cache(pool, 1, 4);
  std::vector<float> kv = {1.0f, 2.0f};
  EXPECT_THROW(cache.write_at(0, 0, kv, kv), std::invalid_argument);
}

TEST(Fp32PagedKvCache, FullCacheThrows) {
  KvBlockPool pool(4, 2, 2);
  PagedKvCache cache(pool, 1, 1);
  cache.advance_by(1);
  EXPECT_THROW(cache.advance_by(1), std::invalid_argument);
}

TEST(Fp32PagedKvCache, TruncateBeyondLengthThrows) {
  KvBlockPool pool(4, 2, 2);
  PagedKvCache cache(pool, 1, 4);
  cache.advance_by(1);
  EXPECT_THROW(cache.truncate(2), std::invalid_argument);
  cache.truncate(1);  // no-op truncate to current length is fine
  EXPECT_EQ(cache.length(), 1u);
  cache.truncate(0);
  EXPECT_EQ(cache.length(), 0u);
}

TEST(Fp32PagedKvCache, DimChecks) {
  KvBlockPool pool(4, 2, 4);
  PagedKvCache cache(pool, 1, 4);
  cache.advance_by(1);
  std::vector<float> bad(3), good(4);
  EXPECT_THROW(cache.write_at(0, 0, bad, bad), std::invalid_argument);
  EXPECT_THROW(cache.write_at(5, 0, good, good), std::invalid_argument);
  std::vector<float> k(4), v(4);
  EXPECT_THROW(gather(cache, 5, k, v), std::invalid_argument);
}

TEST(Fp32PagedKvCache, OverwriteWithinStep) {
  // A layer may rewrite its row within the same step (idempotent writes).
  KvBlockPool pool(4, 2, 2);
  PagedKvCache cache(pool, 1, 4);
  cache.advance_by(1);
  std::vector<float> a = {1.0f, 1.0f}, b = {2.0f, 2.0f};
  cache.write_at(0, cache.length() - 1, a, a);
  cache.write_at(0, cache.length() - 1, b, b);
  std::vector<float> k(2), v(2);
  gather(cache, 0, k, v);
  EXPECT_EQ(k, b);
}

TEST(Fp32PagedKvCache, AdvanceToCapacityThenTruncateReopensSpace) {
  KvBlockPool pool(4, 2, 2);
  PagedKvCache cache(pool, 1, 2);
  cache.advance_by(1);
  cache.advance_by(1);
  EXPECT_THROW(cache.advance_by(1), std::invalid_argument);
  cache.truncate(1);
  cache.advance_by(1);  // space reopened by the rollback
  EXPECT_EQ(cache.length(), 2u);
}

TEST(Fp32PagedKvCache, FacadeStepPastMaxSeqLenIsInvalidArgument) {
  // The facade's private pool holds exactly one sequence at max_seq_len,
  // so running out of positions is a usage error, never pool pressure.
  static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                    42);
  EngineConfig cfg;
  cfg.max_seq_len = 6;
  cfg.kv_block_size = 4;
  InferenceEngine engine(model, cfg);
  for (std::size_t t = 0; t < cfg.max_seq_len; ++t) engine.step(t);
  ASSERT_EQ(engine.position(), cfg.max_seq_len);
  try {
    engine.step(0);
    FAIL() << "step at max_seq_len must throw";
  } catch (const KvPoolExhausted&) {
    FAIL() << "step at max_seq_len threw KvPoolExhausted";
  } catch (const std::invalid_argument&) {
  }
  EXPECT_EQ(engine.position(), cfg.max_seq_len);
}

TEST(MatrixBytes, ScalesWithBits) {
  const auto b16 = matrix_bytes(4096, 2048, 16);
  EXPECT_EQ(b16, 4096u * 2048 * 2);
  EXPECT_LT(matrix_bytes(4096, 2048, 7), b16 / 2);
}

TEST(MatrixBytes, BlockGranular) {
  // Length rounds up to whole blocks, and sub-32-bit layouts carry one
  // fp32 scale per block.
  EXPECT_EQ(matrix_bytes(64, 17, 32, 16), 32u * 64 * 4);
  EXPECT_EQ(matrix_bytes(64, 17, 8, 16), 32u * 64 + 2 * 4);
  // Quantized paged storage is ~4x below fp32.
  EXPECT_LT(matrix_bytes(4096, 2048, 8, 16),
            matrix_bytes(4096, 2048, 32, 16) / 3);
}

}  // namespace
}  // namespace opal
