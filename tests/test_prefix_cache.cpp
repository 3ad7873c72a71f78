// Prefix cache: radix lookup over block-aligned token chunks, refcounted
// sharing with LRU reclaim, and the ServingEngine acceptance property — N
// requests over one prompt prefix run from roughly one shared copy of the
// prefix blocks, bitwise identical to the dense fp32 baseline, with every
// block accounted for after release.
#include "llm/prefix_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "eval/schemes.h"
#include "kv_read_reference.h"
#include "llm/engine.h"
#include "llm/serving_engine.h"
#include "reference_decode.h"

namespace opal {
namespace {

using kv_read_reference::gather;

ModelConfig tiny_config() {
  return scaled_for_eval(llama2_7b(), 128, 2, 64);
}

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(tiny_config(), 42);
  return model;
}

/// Single-sequence greedy reference (dense fp32 KV): the bitwise baseline.
std::vector<std::size_t> reference_tokens(
    const std::shared_ptr<const PreparedModel>& model,
    std::vector<std::size_t> prompt, std::size_t max_new) {
  return reference_decode(model, std::move(prompt), max_new).tokens;
}

/// Fills `cache` with one appended row per token (value derived from the
/// token id so contents are distinguishable).
void fill_from_tokens(PagedKvCache& cache,
                      std::span<const std::size_t> tokens, std::size_t d) {
  for (const std::size_t token : tokens) {
    cache.advance_by(1);
    std::vector<float> row(d, static_cast<float>(token) * 0.125f);
    for (std::size_t l = 0; l < cache.n_layers(); ++l) {
      cache.write_at(l, cache.length() - 1, row, row);
    }
  }
}

// --- Radix index unit tests (pool + paged caches driven directly) ---

TEST(PrefixCache, InsertLookupRoundTripOnBlockAlignedChunks) {
  const std::size_t n_layers = 2, d = 8, bs = 4;
  KvBlockPool pool(32, bs, d);
  PagedKvCache cache(pool, n_layers, 16);
  const std::vector<std::size_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  fill_from_tokens(cache, tokens, d);

  PrefixCache pc(pool, n_layers);
  // Only the two full columns are indexable; the 9th position is not.
  EXPECT_EQ(pc.insert(tokens, 8, cache), 2u);
  EXPECT_EQ(pc.cached_blocks(), 2u * 2 * n_layers);
  EXPECT_EQ(pc.insert(tokens, 8, cache), 0u);  // idempotent

  const auto exact = pc.lookup(tokens, 8);
  EXPECT_EQ(exact.positions, 8u);
  ASSERT_EQ(exact.columns.size(), 2u);
  EXPECT_EQ(exact.columns[0].k[0], cache.block_column(0).k[0]);
  EXPECT_EQ(exact.columns[1].v[1], cache.block_column(1).v[1]);

  // A prompt diverging in the second chunk shares only the first.
  const std::vector<std::size_t> diverging = {1, 2, 3, 4, 6, 6, 7, 8};
  EXPECT_EQ(pc.lookup(diverging, 8).positions, 4u);
  // max_positions caps block-aligned: 7 allows one column, 3 allows none.
  EXPECT_EQ(pc.lookup(tokens, 7).positions, 4u);
  EXPECT_EQ(pc.lookup(tokens, 3).positions, 0u);
  const std::vector<std::size_t> unrelated = {9, 9, 9, 9};
  EXPECT_EQ(pc.lookup(unrelated, 4).positions, 0u);

  const auto stats = pc.stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.hit_positions, 8u + 4u + 4u);
  EXPECT_EQ(stats.nodes, 2u);
}

TEST(PrefixCache, CachedBlocksOutliveTheDonorAndMapBitwise) {
  const std::size_t n_layers = 1, d = 4, bs = 4;
  KvBlockPool pool(16, bs, d);
  const std::vector<std::size_t> tokens = {3, 1, 4, 1};
  PrefixCache pc(pool, n_layers);
  std::vector<float> donor_k(bs * d), donor_v(bs * d);
  {
    PagedKvCache donor(pool, n_layers, 8);
    fill_from_tokens(donor, tokens, d);
    gather(donor, 0, donor_k, donor_v);
    pc.insert(tokens, 4, donor);
  }
  // The donor is gone; its indexed column lives on, held by the cache.
  EXPECT_EQ(pool.blocks_in_use(), 2u);
  EXPECT_EQ(pool.reclaimable_blocks(), 2u);

  const auto match = pc.lookup(tokens, 4);
  ASSERT_EQ(match.positions, 4u);
  PagedKvCache reader(pool, n_layers, 8);
  reader.map_shared(match.columns, match.positions);
  EXPECT_EQ(pool.reclaimable_blocks(), 0u);  // referenced again
  std::vector<float> rk(bs * d), rv(bs * d);
  gather(reader, 0, rk, rv);
  EXPECT_EQ(rk, donor_k);
  EXPECT_EQ(rv, donor_v);
}

TEST(PrefixCache, ReclaimEvictsLruUnreferencedLeavesOnly) {
  const std::size_t n_layers = 1, d = 4, bs = 4;
  KvBlockPool pool(16, bs, d);
  PrefixCache pc(pool, n_layers);
  const std::vector<std::size_t> chain_a = {1, 1, 1, 1, 2, 2, 2, 2};
  const std::vector<std::size_t> chain_b = {7, 7, 7, 7};
  {
    PagedKvCache donor(pool, n_layers, 16);
    fill_from_tokens(donor, chain_a, d);
    pc.insert(chain_a, 8, donor);
  }
  PagedKvCache holder(pool, n_layers, 16);
  fill_from_tokens(holder, chain_b, d);
  pc.insert(chain_b, 4, holder);  // chain B stays referenced by `holder`
  EXPECT_EQ(pc.cached_blocks(), 6u);

  // Freshen chain A's leaf, then its root: LRU order inside the tree is
  // still leaf-first because interior nodes are never evictable.
  static_cast<void>(pc.lookup(chain_a, 8));

  // Chain B's column is referenced -> not evictable; chain A evicts leaf
  // (the {2,2,2,2} column) before its parent.
  const std::size_t before = pool.blocks_in_use();
  EXPECT_EQ(pc.reclaim(1), 2u);  // whole columns at a time
  EXPECT_EQ(pc.stats().nodes, 2u);
  EXPECT_EQ(pc.lookup(chain_a, 8).positions, 4u);  // parent survived
  EXPECT_EQ(pool.blocks_in_use(), before - 2u);

  EXPECT_EQ(pc.reclaim(2), 2u);  // now the parent goes too
  EXPECT_EQ(pc.lookup(chain_a, 8).positions, 0u);
  // Only the referenced chain B remains, and it cannot be reclaimed.
  EXPECT_EQ(pc.reclaim(100), 0u);
  EXPECT_EQ(pc.cached_blocks(), 2u);

  holder.clear();  // last reference gone: now it can
  EXPECT_EQ(pc.reclaim(100), 2u);
  EXPECT_EQ(pc.cached_blocks(), 0u);
  EXPECT_EQ(pool.blocks_in_use(), 0u);
}

TEST(PrefixCache, DestructorUnpinsEvenWhileReferenced) {
  const std::size_t n_layers = 1, d = 4, bs = 4;
  KvBlockPool pool(8, bs, d);
  const std::vector<std::size_t> tokens = {5, 6, 7, 8};
  PagedKvCache holder(pool, n_layers, 8);
  {
    PrefixCache pc(pool, n_layers);
    fill_from_tokens(holder, tokens, d);
    pc.insert(tokens, 4, holder);
    EXPECT_EQ(pool.ref_count(holder.block_column(0).k[0]), 2u);
  }
  // Cache destroyed first: the holder's references keep the blocks alive.
  EXPECT_EQ(pool.ref_count(holder.block_column(0).k[0]), 1u);
  holder.clear();
  EXPECT_EQ(pool.blocks_in_use(), 0u);
}

// --- ServingEngine acceptance ---

ServingConfig serving_config(std::size_t max_batch, bool prefix_cache) {
  ServingConfig cfg;
  cfg.max_batch = max_batch;
  cfg.enable_prefix_cache = prefix_cache;
  return cfg;
}

std::vector<std::size_t> shared_prefix(std::size_t len) {
  std::vector<std::size_t> prefix(len);
  for (std::size_t i = 0; i < len; ++i) prefix[i] = (i * 7 + 3) % 64;
  return prefix;
}

TEST(PrefixCacheServing, SharedPromptPrefixRunsFromOneCopy) {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  cfg.kv_block_size = 8;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  // 24-token shared prefix = 3 block columns = 12 pool blocks per copy.
  const auto prefix = shared_prefix(24);
  const std::size_t prefix_blocks = PagedKvCache::blocks_for(
      tiny_config().n_layers, prefix.size(), cfg.kv_block_size);
  ASSERT_EQ(prefix_blocks, 12u);

  std::vector<Request> requests;
  requests.push_back(Request{prefix, 6});  // warm-up populates the cache
  for (std::size_t r = 0; r < 5; ++r) {
    auto prompt = prefix;
    prompt.push_back(10 + r);  // distinct tails
    prompt.push_back(20 + r);
    requests.push_back(Request{std::move(prompt), 6});
  }

  auto run = [&](bool prefix_cache) {
    ServingEngine engine(model, serving_config(4, prefix_cache));
    std::vector<RequestId> ids;
    ids.push_back(engine.submit(requests[0]));
    engine.run();  // warm-up completes before the sharing wave arrives
    for (std::size_t r = 1; r < requests.size(); ++r) {
      ids.push_back(engine.submit(requests[r]));
    }
    engine.run();
    std::vector<std::vector<std::size_t>> tokens;
    for (std::size_t r = 0; r < ids.size(); ++r) {
      const auto result = engine.result(ids[r]);
      EXPECT_EQ(result.status, RequestStatus::kFinished) << "request " << r;
      tokens.push_back(result.tokens);
    }
    const auto stats = engine.stats();
    // After every sequence released, only the cache may still hold blocks;
    // clearing it must return the pool to empty — no leaked references.
    if (engine.prefix_cache() != nullptr) engine.prefix_cache()->clear();
    EXPECT_EQ(engine.kv_pool().blocks_in_use(), 0u);
    EXPECT_EQ(engine.kv_pool().free_blocks(), engine.kv_pool().n_blocks());
    return std::make_pair(tokens, stats);
  };

  const auto [cached_tokens, cached_stats] = run(true);
  const auto [plain_tokens, plain_stats] = run(false);

  // Outputs are bitwise identical to both the cache-off paged run and the
  // dense fp32 single-sequence baseline.
  EXPECT_EQ(cached_tokens, plain_tokens);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(cached_tokens[r],
              reference_tokens(model, requests[r].prompt,
                               requests[r].max_new_tokens))
        << "request " << r;
  }

  // Every sharing request hit the warm cache for the whole 24-position
  // prefix, skipping its prefill.
  EXPECT_EQ(cached_stats.prefix_hits, 5u);
  EXPECT_EQ(cached_stats.prefix_misses, 1u);  // the warm-up itself
  EXPECT_EQ(cached_stats.prefix_hit_tokens, 5u * prefix.size());
  EXPECT_EQ(cached_stats.evictions, 0u);
  EXPECT_EQ(cached_stats.preemptions, 0u);

  // Sharing is observable in the pool high-water mark: 5 concurrent
  // sequences over one shared prefix copy peak far below 5 private copies
  // (and far below the cache-off run over the same workload).
  EXPECT_LT(cached_stats.blocks_peak, 5 * prefix_blocks);
  EXPECT_LT(cached_stats.blocks_peak, plain_stats.blocks_peak);

  // After every sequence released, only the cache still held blocks, all
  // of them reclaimable (run() checked that clearing it empties the pool).
  EXPECT_EQ(cached_stats.blocks_in_use, cached_stats.prefix_cached_blocks);
  EXPECT_EQ(cached_stats.blocks_reclaimable, cached_stats.blocks_in_use);
}

TEST(PrefixCacheServing, QuantizedModesMatchTheCacheOffRunExactly) {
  // Cached full columns hold exactly the codes a replay would recompute
  // (per-block quantization state is a pure function of the rows written),
  // so even int8/log2 serving is identical with and without the cache —
  // and deterministic across repeats.
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 48;
    cfg.kv_block_size = 8;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    const auto prefix = shared_prefix(16);

    auto run = [&](bool prefix_cache) {
      ServingEngine engine(model, serving_config(3, prefix_cache));
      std::vector<RequestId> ids;
      ids.push_back(engine.submit(Request{prefix, 4}));
      engine.run();
      for (std::size_t r = 0; r < 3; ++r) {
        auto prompt = prefix;
        prompt.push_back(30 + r);
        ids.push_back(engine.submit(Request{std::move(prompt), 5}));
      }
      engine.run();
      std::vector<std::vector<std::size_t>> tokens;
      for (const auto id : ids) tokens.push_back(engine.result(id).tokens);
      return std::make_pair(tokens, engine.stats().prefix_hits);
    };

    const auto [with_cache, hits] = run(true);
    const auto [with_cache_again, hits_again] = run(true);
    const auto [without_cache, no_hits] = run(false);
    EXPECT_GE(hits, 3u) << to_string(mode);
    EXPECT_EQ(hits, hits_again) << to_string(mode);
    EXPECT_EQ(no_hits, 0u) << to_string(mode);
    EXPECT_EQ(with_cache, with_cache_again) << to_string(mode);
    EXPECT_EQ(with_cache, without_cache) << to_string(mode);
  }
}

TEST(PrefixCacheServing, CacheIsReclaimedUnderPressureBeforePreemption) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 8;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  // Pool sized for exactly one full-length sequence (16 blocks): after the
  // warm-up retires, its cached prefix occupies blocks a cold run of the
  // next (unrelated) request needs. The engine must reclaim the cache, not
  // preempt or evict anything.
  ServingConfig scfg = serving_config(2, true);
  scfg.kv_pool_blocks = model->kv_blocks_per_sequence();
  ServingEngine engine(model, scfg);

  const auto prefix = shared_prefix(17);
  const RequestId warm = engine.submit(Request{prefix, 6});
  engine.run();
  EXPECT_EQ(engine.result(warm).status, RequestStatus::kFinished);
  EXPECT_GT(engine.stats().prefix_cached_blocks, 0u);

  std::vector<std::size_t> unrelated(25);
  for (std::size_t i = 0; i < unrelated.size(); ++i) {
    unrelated[i] = (i * 11 + 5) % 64;
  }
  const RequestId cold = engine.submit(Request{unrelated, 6});
  engine.run();
  const auto stats = engine.stats();
  EXPECT_EQ(engine.result(cold).status, RequestStatus::kFinished);
  EXPECT_EQ(engine.result(cold).tokens,
            reference_tokens(model, unrelated, 6));
  EXPECT_GT(stats.prefix_reclaimed_blocks, 0u);
  EXPECT_EQ(stats.preemptions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PrefixCacheServing, PreemptionReplayRestoresFromTheCache) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingEngine engine(model, serving_config(2, true));

  const std::vector<std::size_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto expected = reference_tokens(model, prompt, 8);
  const RequestId id = engine.submit(Request{prompt, 8});
  for (int i = 0; i < 6; ++i) engine.step();
  // Manual full preemption: the 4 fully-fed positions are indexed before
  // the blocks are released, so readmission restores them as a hit
  // instead of replaying from scratch.
  engine.preempt(id);
  engine.run();
  EXPECT_EQ(engine.result(id).status, RequestStatus::kFinished);
  EXPECT_EQ(engine.result(id).tokens, expected);
  EXPECT_EQ(engine.stats().prefix_hits, 1u);
  EXPECT_GT(engine.stats().prefix_hit_tokens, 0u);
}

TEST(PrefixCacheServing, PressurePreemptionStaysLosslessWithCacheOn) {
  // The PR-2 exhaustion scenario with the cache enabled: a pool far below
  // the batch working set still drains every request with outputs equal to
  // the dense baseline (preempted prefixes now come back as cache hits
  // when the pool can keep them, and are reclaimed when it cannot).
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  const std::vector<Request> requests = {
      Request{{3, 1, 4, 1, 5}, 6},
      Request{{2, 7}, 9},
      Request{{9, 2, 6, 5, 3, 5, 8}, 3},
      Request{{1}, 12},
      Request{{4, 4, 4}, 0},
  };
  ServingConfig scfg = serving_config(4, true);
  scfg.kv_pool_blocks = 20;
  ServingEngine engine(model, scfg);
  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));
  engine.run();
  EXPECT_GT(engine.stats().preemptions, 0u);
  EXPECT_EQ(engine.stats().evictions, 0u);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(engine.result(ids[r]).status, RequestStatus::kFinished);
    EXPECT_EQ(engine.result(ids[r]).tokens,
              reference_tokens(model, requests[r].prompt,
                               requests[r].max_new_tokens))
        << "request " << r;
  }
  EXPECT_EQ(engine.stats().blocks_in_use,
            engine.stats().prefix_cached_blocks);
}

TEST(PrefixCacheServing, BlockedCandidateDropsItsMatchAndHitsOncePressureClears) {
  // A candidate that adopts its cached prefix and then cannot get the block
  // column its next position needs drops the adoption: queued requests
  // hold no KV, so its match stays reclaimable. It looks the prefix up
  // again on every attempt, and once pressure clears it admits with the
  // full hit.
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingConfig scfg = serving_config(2, true);
  scfg.kv_pool_blocks = 12;  // 3 block columns
  scfg.trace = true;
  ServingEngine engine(model, scfg);

  // W leaves its two prompt columns in the cache; the third is free.
  const auto history = shared_prefix(8);
  const RequestId w = engine.submit(Request{history, 1});
  engine.run();
  ASSERT_EQ(engine.result(w).status, RequestStatus::kFinished);
  ASSERT_EQ(engine.stats().prefix_cached_blocks, 8u);

  // A takes the free column and never needs another (4 fed positions).
  const std::vector<std::size_t> prompt_a = {5, 9, 2};
  const RequestId a = engine.submit(Request{prompt_a, 2});
  engine.step();
  auto prompt_b = history;
  prompt_b.push_back(11);
  const RequestId b = engine.submit(Request{prompt_b, 3});
  engine.step();
  // B matched 8 positions but position 8 needs a new column: blocked, and
  // holding nothing, so the whole cache is reclaimable again.
  EXPECT_EQ(engine.result(b).status, RequestStatus::kQueued);
  EXPECT_EQ(engine.stats().blocks_reclaimable, 8u);
  EXPECT_EQ(engine.stats().blocks_in_use, 12u);

  engine.run();
  EXPECT_EQ(engine.result(a).tokens, reference_tokens(model, prompt_a, 2));
  EXPECT_EQ(engine.result(b).tokens, reference_tokens(model, prompt_b, 3));
  EXPECT_EQ(engine.stats().preemptions, 0u);
  EXPECT_EQ(engine.stats().evictions, 0u);
  // B admitted once, restoring all 8 positions.
  std::size_t admits = 0;
  for (const TraceEvent& e : engine.tracer().events()) {
    if (e.kind != TraceEventKind::kAdmit || e.request != b) continue;
    ++admits;
    EXPECT_EQ(e.b, 8u);
  }
  EXPECT_EQ(admits, 1u);
}

TEST(PrefixCacheServing, QuantizedPreemptReplayIndexesItsWholeHistory) {
  // A preempted sequence releases every block and replays from its cached
  // full columns, so in every quantized mode its KV stays a pure function
  // of the token prefix: the finish-time insert indexes the whole replayed
  // history, and a follow-up over it decodes exactly like a cache-off run.
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    ServingEngine engine(model, serving_config(2, true));
    ServingEngine plain(model, serving_config(2, false));

    const auto prompt = shared_prefix(10);
    const RequestId first = engine.submit(Request{prompt, 6});
    for (int i = 0; i < 9; ++i) engine.step();
    engine.preempt(first);  // mid-block: 9 fed, 8 of them in full columns
    engine.run();
    ASSERT_EQ(engine.result(first).status, RequestStatus::kFinished);
    const auto full = engine.result(first).tokens;  // 16 tokens, 15 fed
    const RequestId first_ref = plain.submit(Request{prompt, 6});
    plain.run();
    EXPECT_EQ(full, plain.result(first_ref).tokens) << to_string(mode);
    EXPECT_EQ(engine.stats().prefix_hit_tokens, 8u) << to_string(mode);

    // All 12 aligned positions of the replayed history are indexed.
    const auto match = engine.prefix_cache()->lookup(full, full.size());
    EXPECT_EQ(match.positions, 12u) << to_string(mode);

    const RequestId second = engine.submit(Request{full, 4});
    engine.run();
    const RequestId ref = plain.submit(Request{full, 4});
    plain.run();
    EXPECT_EQ(engine.result(second).tokens, plain.result(ref).tokens)
        << to_string(mode);
  }
}

}  // namespace
}  // namespace opal
