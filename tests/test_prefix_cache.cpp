// Prefix cache: radix lookup over block-aligned token chunks, refcounted
// sharing with LRU reclaim, and the ServingEngine acceptance property — N
// requests over one prompt prefix run from roughly one shared copy of the
// prefix blocks, bitwise identical to the dense fp32 baseline, with every
// block accounted for after release.
#include "llm/prefix_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/serving_engine.h"
#include "reference_decode.h"

namespace opal {
namespace {

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
    donor.gather(0, donor_k, donor_v);
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
  reader.gather(0, rk, rv);
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

TEST(PrefixCacheServing, DowngradedSequenceStillHitsTheCacheOncePressureClears) {
  // A queued sequence whose kept prefix is reclaimed under pressure
  // (downgraded to full recompute) re-adopts its cached prefix at
  // admission once the pressure has cleared: the downgrade only forbids
  // holding a re-adoption through a failed capacity check, it is not a
  // permanent opt-out of the cache.
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 4;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  ServingConfig scfg = serving_config(2, true);
  scfg.kv_pool_blocks = 16;  // 4 block columns
  ServingEngine engine(model, scfg);

  const std::vector<std::size_t> prompt_a = {3, 1, 4, 1};
  const auto prompt_b = shared_prefix(8);
  const RequestId ra = engine.submit(Request{prompt_a, 8});
  const RequestId rb = engine.submit(Request{prompt_b, 2});
  for (int i = 0; i < 8; ++i) engine.step();  // both fill 2 columns each
  // B is preempted keeping its full prefix; its columns are also indexed.
  engine.preempt(rb, 8);
  // A now needs a third column: the pool is exhausted, B's kept prefix is
  // reclaimed (B downgraded), and A runs to completion.
  engine.run();
  EXPECT_EQ(engine.result(ra).status, RequestStatus::kFinished);
  EXPECT_EQ(engine.result(rb).status, RequestStatus::kFinished);
  EXPECT_EQ(engine.result(ra).tokens, reference_tokens(model, prompt_a, 8));
  EXPECT_EQ(engine.result(rb).tokens, reference_tokens(model, prompt_b, 2));
  // B's readmission found free capacity and restored its cached prefix —
  // the downgrade did not permanently silence the cache for it.
  EXPECT_EQ(engine.stats().prefix_hits, 1u);
  EXPECT_GT(engine.stats().prefix_hit_tokens, 0u);
  EXPECT_EQ(engine.stats().evictions, 0u);
  EXPECT_EQ(engine.stats().preemptions, 2u);  // manual + downgrade
}

TEST(PrefixCacheServing, MidBlockKeepPreemptionNeverPoisonsTheCache) {
  // A keep>0 preemption that truncates mid-block in a quantized mode
  // leaves the boundary block's grow-only scale reflecting its discarded
  // rows, so every position the replay re-decodes after it is not the pure
  // function of the token prefix the cache requires. Such columns must
  // never be indexed: a later request sharing the longer history has to
  // decode exactly like a cache-off run.
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    ServingEngine engine(model, serving_config(2, true));

    const auto prompt = shared_prefix(10);
    const RequestId first = engine.submit(Request{prompt, 6});
    for (int i = 0; i < 9; ++i) engine.step();
    engine.preempt(first, 6);  // mid-block: block 1 covers positions 4..7
    engine.run();
    ASSERT_EQ(engine.result(first).status, RequestStatus::kFinished);
    const auto full = engine.result(first).tokens;  // 16 tokens, 15 fed

    // The two columns indexed at preempt time predate the truncation and
    // stay cached; everything the replay recomputed past the position-4
    // watermark must not be indexed at finish, despite 15 fed positions.
    const auto match = engine.prefix_cache()->lookup(full, full.size());
    EXPECT_LE(match.positions, 8u) << to_string(mode);

    // A follow-up over the full 16-token history decodes bitwise like a
    // cache-off engine: nothing poisoned is served from the cache.
    const RequestId second = engine.submit(Request{full, 4});
    engine.run();
    ServingEngine plain(model, serving_config(2, false));
    const RequestId ref = plain.submit(Request{full, 4});
    plain.run();
    EXPECT_EQ(engine.result(second).tokens, plain.result(ref).tokens)
        << to_string(mode);
  }
}

TEST(PrefixCacheServing, BlockAlignedRetruncationRestoresCacheability) {
  // A later block-aligned preempt at (or below) the watermark discards
  // every tainted block, so the replayed sequence is a pure function of
  // the token prefix again: the watermark resets and the finish-time
  // insert indexes the whole replayed history — without losing exactness.
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    ServingEngine engine(model, serving_config(2, true));

    const auto prompt = shared_prefix(10);
    const RequestId first = engine.submit(Request{prompt, 6});
    for (int i = 0; i < 9; ++i) engine.step();
    engine.preempt(first, 6);  // mid-block: taints from position 4
    EXPECT_EQ(engine.step(), 1u);  // readmitted, decodes one token
    engine.preempt(first, 4);  // block-aligned at the watermark: de-taints
    engine.run();
    ASSERT_EQ(engine.result(first).status, RequestStatus::kFinished);
    const auto full = engine.result(first).tokens;  // 16 tokens, 15 fed

    // All 12 aligned positions of the replayed history are indexed again.
    const auto match = engine.prefix_cache()->lookup(full, full.size());
    EXPECT_EQ(match.positions, 12u) << to_string(mode);

    // And the cache stays exact for a follow-up over the full history.
    const RequestId second = engine.submit(Request{full, 4});
    engine.run();
    ServingEngine plain(model, serving_config(2, false));
    const RequestId ref = plain.submit(Request{full, 4});
    plain.run();
    EXPECT_EQ(engine.result(second).tokens, plain.result(ref).tokens)
        << to_string(mode);
  }
}

}  // namespace
}  // namespace opal
