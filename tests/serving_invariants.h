// Shared test helpers for the serving-engine property tests
// (test_serving_fuzz.cpp, test_serving_exhaustive.cpp): the pool-accounting
// invariant checked after every step, and the solo decode every served
// stream is compared against.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "llm/serving_engine.h"

namespace opal {

/// Every in-use block has a holder, allocations - frees == blocks in use,
/// the cache-only blocks are exactly the reclaimable ones, and committed
/// storage equals the in-use peak.
inline void expect_pool_balanced(const KvBlockPool& pool,
                                 const ServingEngine::Stats& stats,
                                 const std::string& what) {
  std::size_t held = 0, cached = 0, cache_only = 0;
  for (KvBlockPool::BlockId id = 0; id < pool.n_blocks(); ++id) {
    if (pool.ref_count(id) == 0) continue;
    ++held;
    if (pool.is_cached(id)) {
      ++cached;
      cache_only += pool.ref_count(id) == 1;
    }
  }
  ASSERT_EQ(held, pool.blocks_in_use()) << what;
  ASSERT_EQ(pool.counts().allocations - pool.counts().frees,
            pool.blocks_in_use())
      << what;
  ASSERT_EQ(cache_only, pool.reclaimable_blocks()) << what;
  ASSERT_EQ(cached, stats.prefix_cached_blocks) << what;
  ASSERT_EQ(stats.blocks_in_use, pool.blocks_in_use()) << what;
  ASSERT_EQ(pool.committed_blocks(), pool.peak_blocks_in_use()) << what;
}

/// The request served alone: a one-slot engine with an unbounded pool, no
/// speculation and no prefix cache, in the model's own kv_mode.
inline std::vector<std::size_t> solo_serve_tokens(
    const std::shared_ptr<const PreparedModel>& model, const Request& req) {
  ServingConfig scfg;
  scfg.max_batch = 1;
  ServingEngine solo(model, scfg);
  const RequestId id = solo.submit(req);
  solo.run();
  const RequestResult res = solo.result(id);
  EXPECT_EQ(res.status, RequestStatus::kFinished);
  return res.tokens;
}

}  // namespace opal
