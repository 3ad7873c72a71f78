// KvBlockPool + PagedKvCache: O(1) block churn, truncate returning blocks,
// exhaustion, quantized round-trips, and fp32 read-back of the written bits.
#include "llm/kv_block_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "llm/paged_kv_cache.h"

namespace opal {
namespace {

std::vector<float> random_row(Rng& rng, std::size_t d, float scale = 1.0f) {
  std::uniform_real_distribution<float> uni(-scale, scale);
  std::vector<float> row(d);
  for (auto& v : row) v = uni(rng);
  return row;
}

TEST(KvBlockPool, AllocFreeReuseUnderChurn) {
  KvBlockPool pool(4, 2, 8);
  EXPECT_EQ(pool.free_blocks(), 4u);
  std::vector<KvBlockPool::BlockId> held;
  for (int i = 0; i < 4; ++i) held.push_back(pool.allocate());
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_EQ(pool.blocks_in_use(), 4u);
  EXPECT_THROW(static_cast<void>(pool.allocate()), KvPoolExhausted);

  // Churn: free/realloc in varying order many times; the pool always hands
  // back exactly the freed capacity.
  for (int round = 0; round < 100; ++round) {
    pool.free(held[static_cast<std::size_t>(round) % held.size()]);
    pool.free(held[(round + 2) % held.size()]);
    EXPECT_EQ(pool.free_blocks(), 2u);
    held[static_cast<std::size_t>(round) % held.size()] = pool.allocate();
    held[(round + 2) % held.size()] = pool.allocate();
    EXPECT_EQ(pool.free_blocks(), 0u);
  }
  for (const auto id : held) pool.free(id);
  EXPECT_EQ(pool.free_blocks(), 4u);
}

TEST(KvBlockPool, RejectsBadFreeAndStaleAccess) {
  KvBlockPool pool(2, 2, 4);
  const auto id = pool.allocate();
  pool.free(id);
  EXPECT_THROW(pool.free(id), std::invalid_argument);     // double free
  EXPECT_THROW(pool.free(99), std::invalid_argument);     // out of range
  std::vector<float> row(4, 0.0f);
  EXPECT_THROW(pool.write_row(id, 0, row), std::invalid_argument);  // freed
}

TEST(KvBlockPool, Fp32RoundTripIsBitwise) {
  KvBlockPool pool(2, 4, 8, KvQuantMode::kFp32);
  Rng rng = make_rng(1);
  const auto id = pool.allocate();
  std::vector<std::vector<float>> rows;
  for (std::size_t r = 0; r < 4; ++r) {
    rows.push_back(random_row(rng, 8));
    pool.write_row(id, r, rows.back());
  }
  std::vector<float> out(8);
  for (std::size_t r = 0; r < 4; ++r) {
    pool.read_row(id, r, out);
    for (std::size_t c = 0; c < 8; ++c) EXPECT_EQ(out[c], rows[r][c]);
  }
}

TEST(KvBlockPool, Int8RoundTripBoundedErrorAcrossScaleGrowth) {
  KvBlockPool pool(1, 4, 8, KvQuantMode::kInt8);
  const auto id = pool.allocate();
  Rng rng = make_rng(2);
  const auto small = random_row(rng, 8, 1.0f);
  pool.write_row(id, 0, small);
  EXPECT_NEAR(pool.block_scale(id), 1.0f, 1.0f);  // amax of the row

  // A 4x larger row grows the block scale and rescales row 0 in place.
  auto big = random_row(rng, 8, 4.0f);
  big[0] = 4.0f;  // pin the amax
  pool.write_row(id, 1, big);
  EXPECT_EQ(pool.block_scale(id), 4.0f);

  std::vector<float> out(8);
  // Row 1 quantization error is within half a step of the final scale.
  const float step = 4.0f / 127.0f;
  pool.read_row(id, 1, out);
  for (std::size_t c = 0; c < 8; ++c) EXPECT_NEAR(out[c], big[c], 0.5f * step);
  // Row 0 carries its original error plus one requantization: still within
  // 1.5 steps of the grown scale.
  pool.read_row(id, 0, out);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(out[c], small[c], 1.5f * step);
  }
}

TEST(KvBlockPool, Log2PowersOfTwoAreExactAcrossScaleGrowth) {
  KvBlockPool pool(1, 4, 4, KvQuantMode::kLog2);
  const auto id = pool.allocate();
  const std::vector<float> row0 = {1.0f, 0.5f, -0.25f, 0.0f};
  pool.write_row(id, 0, row0);
  std::vector<float> out(4);
  pool.read_row(id, 0, out);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(out[c], row0[c]);

  // Scale growth to 2^1 shifts every live code by an integer; powers of two
  // stay exact.
  const std::vector<float> row1 = {2.0f, -1.0f, 0.0f, 0.125f};
  pool.write_row(id, 1, row1);
  pool.read_row(id, 0, out);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(out[c], row0[c]);
  pool.read_row(id, 1, out);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(out[c], row1[c]);
}

TEST(KvBlockPool, Log2NonPowersStayWithinOneOctave) {
  KvBlockPool pool(1, 2, 4, KvQuantMode::kLog2);
  const auto id = pool.allocate();
  const std::vector<float> row = {0.7f, -0.3f, 1.9f, 0.051f};
  pool.write_row(id, 0, row);
  std::vector<float> out(4);
  pool.read_row(id, 0, out);
  for (std::size_t c = 0; c < 4; ++c) {
    ASSERT_NE(out[c], 0.0f);
    EXPECT_EQ(std::signbit(out[c]), std::signbit(row[c]));
    // Rounded in the log2 domain: off by at most a factor of sqrt(2).
    const float ratio = std::fabs(out[c]) / std::fabs(row[c]);
    EXPECT_GE(ratio, 0.70f);
    EXPECT_LE(ratio, 1.42f);
  }
}

TEST(KvBlockPool, RefcountedSharingAndReclaimableAccounting) {
  KvBlockPool pool(4, 2, 4);
  EXPECT_EQ(pool.peak_blocks_in_use(), 0u);
  const auto id = pool.allocate();
  EXPECT_EQ(pool.ref_count(id), 1u);
  EXPECT_EQ(pool.peak_blocks_in_use(), 1u);

  // A second holder keeps the block alive across the first free.
  pool.add_ref(id);
  EXPECT_EQ(pool.ref_count(id), 2u);
  pool.free(id);
  EXPECT_EQ(pool.ref_count(id), 1u);
  EXPECT_EQ(pool.blocks_in_use(), 1u);
  pool.free(id);
  EXPECT_EQ(pool.free_blocks(), 4u);
  EXPECT_THROW(pool.free(id), std::invalid_argument);  // over-free

  // Cache pinning: pinned while referenced, reclaimable once the last
  // sequence lets go, pinned again when a new sequence maps it.
  const auto c = pool.allocate();
  pool.pin_cached(c);
  EXPECT_TRUE(pool.is_cached(c));
  EXPECT_EQ(pool.ref_count(c), 2u);
  EXPECT_EQ(pool.reclaimable_blocks(), 0u);
  EXPECT_EQ(pool.pinned_blocks(), 1u);
  pool.free(c);  // the sequence releases; only the cache holds it now
  EXPECT_EQ(pool.reclaimable_blocks(), 1u);
  EXPECT_EQ(pool.pinned_blocks(), 0u);
  pool.add_ref(c);  // a new sequence maps the cached block
  EXPECT_EQ(pool.reclaimable_blocks(), 0u);
  pool.free(c);
  EXPECT_EQ(pool.reclaimable_blocks(), 1u);
  pool.release_cached(c);  // cache reclaims: block returns to the pool
  EXPECT_EQ(pool.reclaimable_blocks(), 0u);
  EXPECT_EQ(pool.free_blocks(), 4u);

  // The high-water mark survives the churn back to empty.
  EXPECT_EQ(pool.peak_blocks_in_use(), 1u);
}

TEST(KvBlockPool, SharedBlocksAreImmutableUntilCloned) {
  KvBlockPool pool(4, 2, 4, KvQuantMode::kInt8);
  Rng rng = make_rng(7);
  const auto id = pool.allocate();
  const auto row0 = random_row(rng, 4);
  const auto row1 = random_row(rng, 4, 2.0f);  // grows the block scale
  pool.write_row(id, 0, row0);
  pool.write_row(id, 1, row1);

  pool.add_ref(id);  // now shared: writes must be rejected
  EXPECT_THROW(pool.write_row(id, 1, row0), std::invalid_argument);

  // Copy-on-write: the clone carries the written prefix bitwise — codes,
  // scale, and fill state — so re-advancing over it is deterministic.
  const auto copy = pool.clone_rows(id, 1);
  EXPECT_EQ(pool.ref_count(copy), 1u);
  EXPECT_EQ(pool.block_scale(copy), pool.block_scale(id));
  EXPECT_EQ(pool.rows_written(copy), 1u);
  std::vector<float> a(4), b(4);
  pool.read_row(id, 0, a);
  pool.read_row(copy, 0, b);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(a[c], b[c]);
  std::vector<float> row(4, 0.5f);
  pool.write_row(copy, 1, row);  // private copy accepts writes
  pool.free(copy);
  pool.free(id);
  pool.free(id);
  EXPECT_EQ(pool.free_blocks(), 4u);
}

TEST(KvBlockPool, StorageAccounting) {
  EXPECT_EQ(kv_bits_per_entry(KvQuantMode::kFp32), 32u);
  EXPECT_EQ(kv_bits_per_entry(KvQuantMode::kInt8), 8u);
  EXPECT_EQ(kv_bits_per_entry(KvQuantMode::kLog2), 8u);
  KvBlockPool fp(4, 8, 16, KvQuantMode::kFp32);
  KvBlockPool q8(4, 8, 16, KvQuantMode::kInt8);
  EXPECT_EQ(fp.bytes_per_block(), 8u * 16 * 4);
  EXPECT_EQ(q8.bytes_per_block(), 8u * 16 + sizeof(float));
  EXPECT_EQ(fp.storage_bytes(), 4u * fp.bytes_per_block());
  // int8 blocks are 4x smaller up to the per-block scale: the
  // sequences-per-host multiplier.
  EXPECT_LE(4 * q8.bytes_per_block(), fp.bytes_per_block() + 4 * 4);
}

constexpr KvQuantMode kAllModes[] = {KvQuantMode::kFp32, KvQuantMode::kInt8,
                                     KvQuantMode::kLog2};

/// Block `id`'s storage as raw bytes, through the mode's raw view.
std::vector<std::uint8_t> block_bytes(const KvBlockPool& pool,
                                      KvBlockPool::BlockId id) {
  std::vector<std::uint8_t> out;
  if (pool.mode() == KvQuantMode::kFp32) {
    const auto data = pool.block_data(id);
    out.resize(data.size_bytes());
    std::memcpy(out.data(), data.data(), out.size());
  } else {
    const auto codes = pool.block_codes(id);
    out.resize(codes.size_bytes());
    std::memcpy(out.data(), codes.data(), out.size());
  }
  return out;
}

TEST(KvBlockPool, CommitsStorageOnFirstAllocationOnly) {
  for (const KvQuantMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    KvBlockPool pool(1024, 4, 8, mode);
    EXPECT_EQ(pool.committed_blocks(), 0u);
    const auto a = pool.allocate();
    const auto b = pool.allocate();
    const auto c = pool.allocate();
    EXPECT_EQ(pool.committed_blocks(), 3u);
    EXPECT_EQ(pool.peak_blocks_in_use(), 3u);
    // Capacity accounting is unchanged; only residency follows use.
    EXPECT_EQ(pool.storage_bytes(), 1024u * pool.bytes_per_block());
    // A fresh block reads zero: floats in fp32, codes otherwise.
    for (const auto id : {a, b, c}) {
      const auto bytes = block_bytes(pool, id);
      EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(),
                              [](std::uint8_t v) { return v == 0; }));
    }
    // A reused block keeps its last holder's bytes; it commits nothing new.
    Rng rng = make_rng(7);
    pool.write_row(b, 1, random_row(rng, 8));
    const auto written = block_bytes(pool, b);
    pool.free(b);
    const auto again = pool.allocate();
    ASSERT_EQ(again, b);
    EXPECT_EQ(block_bytes(pool, again), written);
    EXPECT_EQ(pool.rows_written(again), 0u);
    EXPECT_EQ(pool.committed_blocks(), 3u);
  }
}

TEST(KvBlockPool, CommittedBlocksEqualPeakAcrossEveryOp) {
  for (const KvQuantMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    // At most kHeld blocks are held at once, so a third of the pool is never
    // handed out and must stay uncommitted.
    constexpr std::size_t kBlocks = 24, kHeld = 16, kRows = 4, kDim = 8;
    KvBlockPool pool(kBlocks, kRows, kDim, mode);
    Rng rng = make_rng(11);
    std::uniform_int_distribution<int> op_dist(0, 6);
    std::vector<KvBlockPool::BlockId> held;
    KvBlockPool::BlockSnapshot snap;
    bool snap_valid = false;
    const auto pick = [&]() -> KvBlockPool::BlockId& {
      std::uniform_int_distribution<std::size_t> d(0, held.size() - 1);
      return held[d(rng)];
    };
    for (int step = 0; step < 2000; ++step) {
      const int op = op_dist(rng);
      if (held.empty() || (op == 0 && held.size() < kHeld)) {
        held.push_back(pool.allocate());
      } else if (op <= 2) {
        auto& id = pick();
        pool.free(id);
        id = held.back();
        held.pop_back();
      } else if (op == 3 && held.size() < kHeld) {
        const auto src = pick();
        held.push_back(pool.clone_rows(src, pool.rows_written(src)));
      } else if (op == 4) {
        const auto id = pick();
        const std::size_t row =
            std::min(pool.rows_written(id), kRows - 1);
        pool.write_row(id, row, random_row(rng, kDim, 4.0f));
      } else if (op == 5) {
        pool.reset_block(pick());
      } else {
        const auto id = pick();
        if (snap_valid) pool.restore_block(id, snap);
        pool.save_block(id, snap);
        snap_valid = true;
      }
      ASSERT_EQ(pool.committed_blocks(), pool.peak_blocks_in_use())
          << "op " << op << " at step " << step;
    }
    // The peak climbed well past the start while frees kept handing back
    // committed blocks, and the ids never held stayed uncommitted.
    EXPECT_GT(pool.committed_blocks(), kHeld / 2);
    EXPECT_LE(pool.committed_blocks(), kHeld);
    EXPECT_GT(pool.counts().allocations, 4 * pool.committed_blocks());
  }
}

TEST(KvBlockPool, SaveScribbleRestoreIsBitwise) {
  for (const KvQuantMode mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    KvBlockPool pool(2, 4, 8, mode);
    Rng rng = make_rng(3);
    const auto id = pool.allocate();
    pool.write_row(id, 0, random_row(rng, 8, 1.0f));
    pool.write_row(id, 1, random_row(rng, 8, 1.0f));
    KvBlockPool::BlockSnapshot before;
    pool.save_block(id, before);
    const auto bytes = block_bytes(pool, id);
    const float scale = pool.block_scale(id);
    // Scribble: a larger row grows the scale (rescaling rows 0-1 in the
    // quantized modes) and rows 2-3 fill the block.
    pool.write_row(id, 2, random_row(rng, 8, 64.0f));
    pool.write_row(id, 3, random_row(rng, 8, 1.0f));
    ASSERT_NE(block_bytes(pool, id), bytes);
    pool.restore_block(id, before);
    EXPECT_EQ(block_bytes(pool, id), bytes);
    EXPECT_EQ(pool.block_scale(id), scale);
    EXPECT_EQ(pool.rows_written(id), 2u);
    KvBlockPool::BlockSnapshot after;
    pool.save_block(id, after);
    EXPECT_EQ(after.bytes, before.bytes);
    // A snapshot from a differently shaped pool is refused.
    KvBlockPool other(1, 2, 8, mode);
    KvBlockPool::BlockSnapshot foreign;
    other.save_block(other.allocate(), foreign);
    EXPECT_THROW(pool.restore_block(id, foreign), std::invalid_argument);
  }
}

TEST(PagedKvCache, AdvanceAllocatesPerBlockColumn) {
  KvBlockPool pool(16, 4, 8);
  PagedKvCache cache(pool, 2, 12);  // 2 layers
  EXPECT_EQ(cache.blocks_held(), 0u);
  EXPECT_EQ(cache.blocks_needed_for(1), 4u);  // K+V per layer
  cache.advance_by(1);
  EXPECT_EQ(cache.blocks_held(), 4u);
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(cache.blocks_needed_for(1), 0u);
    cache.advance_by(1);
  }
  EXPECT_EQ(cache.blocks_held(), 4u);  // still within the first column
  cache.advance_by(1);                 // position 4 opens a second column
  EXPECT_EQ(cache.blocks_held(), 8u);
  EXPECT_EQ(pool.free_blocks(), 8u);
}

TEST(PagedKvCache, TruncateReturnsBlocksToPool) {
  KvBlockPool pool(12, 4, 8);
  PagedKvCache cache(pool, 1, 12);
  std::vector<float> row(8, 1.0f);
  for (int t = 0; t < 9; ++t) {
    cache.advance_by(1);
    cache.write_at(0, cache.length() - 1, row, row);
  }
  EXPECT_EQ(cache.blocks_held(), 6u);  // 3 columns x (K+V)
  cache.truncate(4);                   // exactly one column survives
  EXPECT_EQ(cache.blocks_held(), 2u);
  EXPECT_EQ(pool.free_blocks(), 10u);
  cache.truncate(0);
  EXPECT_EQ(cache.blocks_held(), 0u);
  EXPECT_EQ(pool.free_blocks(), 12u);
  // Space reopened: the cache grows again from the pool.
  cache.advance_by(1);
  EXPECT_EQ(cache.blocks_held(), 2u);
}

TEST(PagedKvCache, PoolExhaustionThrowsWithoutPartialAllocation) {
  KvBlockPool pool(2, 2, 4);
  PagedKvCache cache(pool, 1, 8);
  std::vector<float> row(4, 1.0f);
  cache.advance_by(1);
  cache.write_at(0, cache.length() - 1, row, row);
  cache.advance_by(1);
  cache.write_at(0, cache.length() - 1, row, row);
  EXPECT_EQ(pool.free_blocks(), 0u);
  // The third position needs a fresh column the pool cannot supply.
  EXPECT_THROW(cache.advance_by(1), KvPoolExhausted);
  EXPECT_EQ(cache.length(), 2u);       // length unchanged
  EXPECT_EQ(cache.blocks_held(), 2u);  // nothing leaked, nothing taken
}

TEST(PagedKvCache, ReserveIsIdempotentAndConsumedByAdvance) {
  KvBlockPool pool(8, 4, 4);
  PagedKvCache cache(pool, 1, 8);
  EXPECT_EQ(cache.blocks_needed_for(1), 2u);
  cache.reserve_for(1);
  EXPECT_EQ(cache.blocks_held(), 2u);
  EXPECT_EQ(cache.blocks_needed_for(1), 0u);  // already covered
  cache.reserve_for(1);                           // no-op
  EXPECT_EQ(cache.blocks_held(), 2u);
  cache.advance_by(1);  // uses the reservation, no new allocation
  EXPECT_EQ(cache.blocks_held(), 2u);
}

TEST(PagedKvCache, DestructorAndMoveReturnBlocksExactlyOnce) {
  KvBlockPool pool(8, 2, 4);
  {
    PagedKvCache cache(pool, 1, 8);
    cache.advance_by(1);
    EXPECT_EQ(pool.free_blocks(), 6u);
    PagedKvCache moved(std::move(cache));
    EXPECT_EQ(moved.length(), 1u);
    EXPECT_EQ(moved.blocks_held(), 2u);
    EXPECT_EQ(pool.free_blocks(), 6u);  // ownership transferred, not copied
  }
  EXPECT_EQ(pool.free_blocks(), 8u);  // freed once by the surviving owner
}

TEST(PagedKvCache, Fp32GatherReturnsWrittenRowsBitwise) {
  const std::size_t n_layers = 2, d = 8, len = 7;
  KvBlockPool pool(32, 4, d, KvQuantMode::kFp32);
  PagedKvCache paged(pool, n_layers, 16);
  // [layer] -> the rows written, row-major [len x d].
  std::vector<std::vector<float>> want_k(n_layers), want_v(n_layers);
  Rng rng = make_rng(3);
  for (std::size_t t = 0; t < len; ++t) {
    paged.advance_by(1);
    for (std::size_t l = 0; l < n_layers; ++l) {
      const auto k = random_row(rng, d), v = random_row(rng, d);
      paged.write_at(l, paged.length() - 1, k, v);
      want_k[l].insert(want_k[l].end(), k.begin(), k.end());
      want_v[l].insert(want_v[l].end(), v.begin(), v.end());
    }
  }
  std::vector<float> gk(len * d), gv(len * d);
  for (std::size_t l = 0; l < n_layers; ++l) {
    paged.gather(l, gk, gv);
    EXPECT_EQ(gk, want_k[l]);
    EXPECT_EQ(gv, want_v[l]);
  }
}

TEST(PagedKvCache, MapSharedAliasesBlocksAndCopiesOnWrite) {
  const std::size_t n_layers = 2, d = 8, bs = 4;
  KvBlockPool pool(32, bs, d);
  PagedKvCache donor(pool, n_layers, 16);
  Rng rng = make_rng(11);
  for (std::size_t t = 0; t < bs; ++t) {
    donor.advance_by(1);
    for (std::size_t l = 0; l < n_layers; ++l) {
      donor.write_at(l, t, random_row(rng, d), random_row(rng, d));
    }
  }
  const KvBlockColumn col = donor.block_column(0);
  const std::size_t baseline = pool.blocks_in_use();

  PagedKvCache reader(pool, n_layers, 16);
  reader.map_shared(std::span<const KvBlockColumn>(&col, 1), bs);
  EXPECT_EQ(reader.length(), bs);
  EXPECT_EQ(pool.blocks_in_use(), baseline);  // aliased, not copied
  EXPECT_EQ(pool.ref_count(col.k[0]), 2u);

  // Shared reads are bitwise identical to the donor's.
  std::vector<float> dk(bs * d), dv(bs * d), rk(bs * d), rv(bs * d);
  for (std::size_t l = 0; l < n_layers; ++l) {
    donor.gather(l, dk, dv);
    reader.gather(l, rk, rv);
    EXPECT_EQ(dk, rk);
    EXPECT_EQ(dv, rv);
  }

  // Growing past the shared prefix allocates a private column — no copy.
  reader.advance_by(1);
  for (std::size_t l = 0; l < n_layers; ++l) {
    reader.write_at(l, bs, random_row(rng, d), random_row(rng, d));
  }
  EXPECT_EQ(pool.ref_count(col.k[0]), 2u);  // still aliased

  // Truncating into the shared block and re-advancing copy-on-writes it:
  // the donor's block is untouched and the reader owns a private copy.
  reader.truncate(2);
  EXPECT_EQ(reader.blocks_needed_for(1), 2 * n_layers);  // all shared
  reader.advance_by(1);
  EXPECT_EQ(pool.ref_count(col.k[0]), 1u);  // donor's copy only
  const auto fresh = random_row(rng, d);
  for (std::size_t l = 0; l < n_layers; ++l) {
    reader.write_at(l, 2, fresh, fresh);
  }
  donor.gather(0, dk, dv);  // donor sees its original rows
  reader.gather(0, rk, rv);
  for (std::size_t i = 0; i < 2 * d; ++i) {
    EXPECT_EQ(rk[i], dk[i]);  // the copied prefix is bitwise preserved
    EXPECT_EQ(rv[i], dv[i]);
  }
  for (std::size_t c = 0; c < d; ++c) {
    EXPECT_EQ(rk[2 * d + c], fresh[c]);  // private write landed
    EXPECT_NE(dk[2 * d + c], fresh[c]);  // ...without touching the donor
  }

  reader.clear();
  EXPECT_EQ(pool.blocks_in_use(), baseline);  // nothing leaked either way
}

TEST(PagedKvCache, MidBlockTruncateThenReadvanceIsDeterministicQuantized) {
  // Satellite: rolling a quantized cache back to a mid-block boundary and
  // re-advancing must be a pure function of the op sequence — two identical
  // runs read back bitwise-identical values — and the grow-only block scale
  // survives the rollback (truncate never shrinks it).
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    const std::size_t d = 4, bs = 4;
    auto run = [&](std::vector<float>* scale_trace) {
      KvBlockPool pool(8, bs, d, mode);
      PagedKvCache cache(pool, 1, 8);
      Rng rng = make_rng(13);
      // Six rows: row 3 carries a deliberately large magnitude so the
      // block scale ratchets up before the rollback.
      std::vector<std::vector<float>> rows;
      for (std::size_t t = 0; t < 6; ++t) {
        rows.push_back(random_row(rng, d, t == 3 ? 8.0f : 1.0f));
      }
      for (std::size_t t = 0; t < 6; ++t) {
        cache.advance_by(1);
        cache.write_at(0, cache.length() - 1, rows[t], rows[t]);
      }
      const KvBlockPool::BlockId block0 = cache.block_column(0).k[0];
      const float scale_before = pool.block_scale(block0);
      cache.truncate(2);  // mid-block: the first column survives
      const float scale_after = pool.block_scale(block0);
      if (scale_trace != nullptr) {
        scale_trace->push_back(scale_before);
        scale_trace->push_back(scale_after);
      }
      // Re-advance with different data over the rolled-back positions.
      for (std::size_t t = 2; t < 6; ++t) {
        const auto row = random_row(rng, d, 1.0f);
        cache.advance_by(1);
        cache.write_at(0, cache.length() - 1, row, row);
      }
      std::vector<float> k(6 * d), v(6 * d);
      cache.gather(0, k, v);
      k.insert(k.end(), v.begin(), v.end());
      return k;
    };
    std::vector<float> scales;
    const auto first = run(&scales);
    const auto second = run(nullptr);
    EXPECT_EQ(first, second) << "kv mode " << to_string(mode);
    // The grow-only scale is retained across truncate (re-quantization
    // after partial rollback happens under the ratcheted scale).
    EXPECT_EQ(scales[0], scales[1]) << "kv mode " << to_string(mode);
    ASSERT_NE(scales[0], 0.0f);
  }
}

TEST(PagedKvCache, AdvanceByWriteAtMatchesStepwiseAllModes) {
  // Chunked prefill's multi-row path (advance_by + per-layer write_at in
  // layer-major order) must leave every mode's cache bitwise identical to
  // the token-by-token advance/append path, including across block-scale
  // growth (rows get larger over time to force rescales).
  const std::size_t n_layers = 2, d = 8, bs = 4, n_tokens = 11;
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    KvBlockPool pool_a(16, bs, d, mode);
    KvBlockPool pool_b(16, bs, d, mode);
    PagedKvCache stepwise(pool_a, n_layers, 32);
    PagedKvCache chunked(pool_b, n_layers, 32);

    auto row_for = [&](std::size_t t, std::size_t l) {
      std::vector<float> row(d);
      for (std::size_t c = 0; c < d; ++c) {
        row[c] = (static_cast<float>(t + 1) * 0.35f + static_cast<float>(l)) *
                 (c % 2 == 0 ? 1.0f : -0.5f);
      }
      return row;
    };
    for (std::size_t t = 0; t < n_tokens; ++t) {
      stepwise.advance_by(1);
      for (std::size_t l = 0; l < n_layers; ++l) {
        const auto row = row_for(t, l);
        stepwise.write_at(l, stepwise.length() - 1, row, row);
      }
    }
    chunked.advance_by(n_tokens);
    for (std::size_t l = 0; l < n_layers; ++l) {
      for (std::size_t t = 0; t < n_tokens; ++t) {
        const auto row = row_for(t, l);
        chunked.write_at(l, t, row, row);
      }
    }
    std::vector<float> k_a(n_tokens * d), v_a(n_tokens * d);
    std::vector<float> k_b(n_tokens * d), v_b(n_tokens * d);
    for (std::size_t l = 0; l < n_layers; ++l) {
      stepwise.gather(l, k_a, v_a);
      chunked.gather(l, k_b, v_b);
      EXPECT_EQ(k_a, k_b) << to_string(mode) << " layer " << l;
      EXPECT_EQ(v_a, v_b) << to_string(mode) << " layer " << l;
    }
  }
}

TEST(PagedKvCache, BlocksNeededForMatchesReserveConsumption) {
  const std::size_t n_layers = 2, d = 4, bs = 4;
  KvBlockPool pool(64, bs, d);
  PagedKvCache cache(pool, n_layers, 40);
  EXPECT_EQ(cache.blocks_needed_for(0), 0u);
  EXPECT_EQ(cache.blocks_needed_for(1), 2 * n_layers);
  // From empty: n positions need ceil(n/bs) columns of 2*n_layers blocks.
  EXPECT_EQ(cache.blocks_needed_for(4), 4u);
  EXPECT_EQ(cache.blocks_needed_for(5), 8u);
  EXPECT_EQ(cache.blocks_needed_for(9), 12u);
  for (const std::size_t n : {3u, 5u, 1u, 8u}) {
    const std::size_t predicted = cache.blocks_needed_for(n);
    const std::size_t before = pool.free_blocks();
    cache.reserve_for(n);
    EXPECT_EQ(before - pool.free_blocks(), predicted) << "chunk " << n;
    cache.advance_by(n);  // consumes the reservation, takes nothing more
    EXPECT_EQ(pool.free_blocks(), before - predicted) << "chunk " << n;
  }
  EXPECT_EQ(cache.length(), 17u);
  EXPECT_THROW(static_cast<void>(cache.blocks_needed_for(40)),
               std::invalid_argument);
}

TEST(PagedKvCache, ReserveForIsAllOrNothingAndCopyOnWritesSharedBlocks) {
  const std::size_t n_layers = 1, d = 4, bs = 4;
  KvBlockPool pool(8, bs, d);
  // Donor writes two full columns; the adopter maps them shared, then
  // truncates mid-block so a multi-row re-advance must copy-on-write the
  // boundary column before writing.
  PagedKvCache donor(pool, n_layers, 16);
  std::vector<float> row(d, 1.5f);
  for (std::size_t t = 0; t < 8; ++t) {
    donor.advance_by(1);
    donor.write_at(0, donor.length() - 1, row, row);
  }
  std::vector<KvBlockColumn> columns = {donor.block_column(0),
                                        donor.block_column(1)};
  PagedKvCache adopter(pool, n_layers, 16);
  adopter.map_shared(columns, 8);
  adopter.truncate(6);  // mid-block into the (shared) second column

  // 2 COW blocks (K+V of the shared boundary column) + 1 fresh column.
  EXPECT_EQ(adopter.blocks_needed_for(2), 2u);
  EXPECT_EQ(adopter.blocks_needed_for(3), 4u);
  // Pool state: donor holds 4, adopter holds 4 (2 shared + the shared
  // boundary column) -> free = 8 - 6 distinct... exhaust the rest to prove
  // all-or-nothing: grab every remaining free block.
  std::vector<KvBlockPool::BlockId> grabbed;
  while (pool.free_blocks() > 1) grabbed.push_back(pool.allocate());
  const std::size_t free_before = pool.free_blocks();
  const std::size_t held_before = adopter.blocks_held();
  EXPECT_THROW(adopter.reserve_for(2), KvPoolExhausted);  // needs 2, has 1
  EXPECT_EQ(pool.free_blocks(), free_before);      // took nothing
  EXPECT_EQ(adopter.blocks_held(), held_before);   // changed nothing
  for (const auto id : grabbed) pool.free(id);

  adopter.advance_by(2);
  for (std::size_t t = 6; t < 8; ++t) {
    std::vector<float> fresh(d, static_cast<float>(t));
    adopter.write_at(0, t, fresh, fresh);
  }
  // The donor's blocks kept their original contents (COW protected them).
  std::vector<float> k(8 * d), v(8 * d);
  donor.gather(0, k, v);
  for (std::size_t t = 6; t < 8; ++t) {
    EXPECT_EQ(k[t * d], 1.5f) << "donor row " << t << " clobbered";
  }
  std::vector<float> ka(8 * d), va(8 * d);
  adopter.gather(0, ka, va);
  EXPECT_EQ(ka[5 * d], 1.5f);  // kept shared prefix rows survive
  EXPECT_EQ(ka[6 * d], 6.0f);  // rewritten rows are private
}

TEST(PagedKvCache, BlocksForRoundsUpPerColumn) {
  EXPECT_EQ(PagedKvCache::blocks_for(2, 0, 16), 0u);
  EXPECT_EQ(PagedKvCache::blocks_for(2, 1, 16), 4u);
  EXPECT_EQ(PagedKvCache::blocks_for(2, 16, 16), 4u);
  EXPECT_EQ(PagedKvCache::blocks_for(2, 17, 16), 8u);
  EXPECT_EQ(PagedKvCache::blocks_for(3, 33, 16), 18u);
}

}  // namespace
}  // namespace opal
