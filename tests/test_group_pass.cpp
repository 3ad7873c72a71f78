// Group pass contract: PreparedModel::prefill_group over any group of
// sequences is, per member, bitwise the member's own prefill_chunk — every
// computed logits row and every layer's gathered KV — in every kv_mode,
// under the dispatched and the forced-scalar kernel table, for group sizes
// 1-8 that mix one-row decodes, 16-row chunks and verify bursts that roll
// back, at different positions and with 0, 1 or all logits rows. A dry pool
// opens no member.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "eval/schemes.h"
#include "llm/prepared_model.h"
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

EngineConfig engine_config(KvQuantMode mode) {
  // The paper's operating point (W4, MX-OPAL A4/7, log2 softmax), so the
  // activation quantizers run on every row of the group.
  EngineConfig cfg = scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  cfg.max_seq_len = 64;
  cfg.kv_block_size = 8;
  cfg.kv_mode = mode;
  return cfg;
}

std::vector<std::size_t> tokens_from(std::size_t n, std::size_t seed) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back((i * 7 + seed * 13 + 3) % tiny_config().vocab);
  }
  return out;
}

// One member: `history` tokens already fed, then `rows` fed by the pass
// with logits for its trailing `logit_rows`. A burst (kept > 0) is a
// speculative verify that commits its first `kept` rows and rolls back
// the rest.
struct Recipe {
  std::size_t history;
  std::size_t rows;
  std::size_t logit_rows;
  std::size_t kept;
};

constexpr Recipe kRecipes[] = {
    {5, 1, 1, 0},              // decode mid-block
    {3, 16, kAllLogitRows, 0},  // 16-row chunk crossing blocks, all logits
    {9, 5, kAllLogitRows, 2},  // verify burst, 3 rows rolled back
    {0, 1, 1, 0},              // first token of a fresh sequence
    {17, 16, 0, 0},            // chunk nobody samples from
    {12, 1, 0, 0},             // one-row prompt trickle
    {7, 3, kAllLogitRows, 3},  // verify burst, every row kept
    {2, 7, 1, 0},              // chunk sampling its final row
};

struct Outcome {
  std::vector<std::vector<float>> logits;  // the computed rows, in order
  std::vector<float> kv;                   // gather() of every layer, K then V
};

// The tokens member `seed` feeds in its pass, after its history.
std::vector<std::size_t> pass_feed(const Recipe& r, std::size_t seed) {
  const auto all = tokens_from(r.history + r.rows, seed);
  return {all.begin() + static_cast<std::ptrdiff_t>(r.history), all.end()};
}

// Feeds `r`'s history to a fresh sequence and prepares its pass: blocks
// reserved, and a burst's rollback capture armed.
SequenceState opened_member(const PreparedModel& model, KvBlockPool& pool,
                            PassScratch& scratch, const Recipe& r,
                            std::size_t seed) {
  SequenceState seq = model.make_sequence(pool);
  if (r.history > 0) {
    model.prefill_chunk(seq, tokens_from(r.history, seed), scratch, nullptr,
                        0);
  }
  seq.reserve_for(r.rows);
  if (r.kept > 0) seq.begin_spec_capture(r.rows);
  return seq;
}

// Reads the pass's logits rows, then commits: a burst rolls back to its
// kept rows, and every layer's KV is gathered.
Outcome finish_member(SequenceState& seq, const Recipe& r,
                      std::size_t d_model) {
  Outcome out;
  const std::size_t k = std::min(r.logit_rows, r.rows);
  for (std::size_t j = r.rows - k; j < r.rows; ++j) {
    const auto row = seq.chunk_logits_row(j);
    out.logits.emplace_back(row.begin(), row.end());
  }
  if (r.kept > 0 && r.kept < r.rows) {
    seq.spec_rollback(r.history + r.kept);
  } else if (r.kept > 0) {
    seq.end_spec_capture();
  }
  const std::size_t len = seq.position();
  std::vector<float> k_rows(len * d_model), v_rows(len * d_model);
  for (std::size_t l = 0; l < tiny_config().n_layers; ++l) {
    seq.paged_cache().gather(l, k_rows, v_rows);
    out.kv.insert(out.kv.end(), k_rows.begin(), k_rows.end());
    out.kv.insert(out.kv.end(), v_rows.begin(), v_rows.end());
  }
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class GroupPass : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { set_force_scalar_kernels(GetParam()); }
  void TearDown() override { set_force_scalar_kernels(false); }
};

TEST_P(GroupPass, EqualsEachMemberAloneBitwise) {
  const std::size_t d = tiny_config().d_model;
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    const PreparedModel model(tiny_model(), engine_config(mode));
    auto pool = model.make_kv_pool(16.0);
    PassScratch solo_scratch = model.make_scratch();
    // One scratch for every group size: later groups run over the rows
    // earlier, larger or smaller groups left behind.
    PassScratch group_scratch = model.make_scratch();
    for (std::size_t size = 1; size <= 8; ++size) {
      // Rotate through the recipes so every size mixes member kinds.
      std::vector<Recipe> recipes;
      for (std::size_t j = 0; j < size; ++j) {
        recipes.push_back(kRecipes[(size + j) % 8]);
      }
      std::vector<Outcome> want;
      for (std::size_t j = 0; j < size; ++j) {
        const Recipe& r = recipes[j];
        SequenceState seq = opened_member(model, pool, solo_scratch, r, j);
        model.prefill_chunk(seq, pass_feed(r, j), solo_scratch, nullptr,
                            r.logit_rows);
        want.push_back(finish_member(seq, r, d));
      }
      std::vector<SequenceState> seqs;
      std::vector<std::vector<std::size_t>> feeds;
      seqs.reserve(size);
      for (std::size_t j = 0; j < size; ++j) {
        seqs.push_back(opened_member(model, pool, solo_scratch, recipes[j], j));
        feeds.push_back(pass_feed(recipes[j], j));
      }
      std::vector<PassMember> members;
      for (std::size_t j = 0; j < size; ++j) {
        members.push_back({&seqs[j], feeds[j], recipes[j].logit_rows});
      }
      model.prefill_group(members, group_scratch);
      for (std::size_t j = 0; j < size; ++j) {
        const std::string what = to_string(mode) + " group of " +
                                 std::to_string(size) + ", member " +
                                 std::to_string(j);
        const Outcome got = finish_member(seqs[j], recipes[j], d);
        ASSERT_EQ(got.logits.size(), want[j].logits.size()) << what;
        for (std::size_t i = 0; i < got.logits.size(); ++i) {
          EXPECT_TRUE(same_bits(got.logits[i], want[j].logits[i]))
              << what << ", logits row " << i;
        }
        EXPECT_TRUE(same_bits(got.kv, want[j].kv)) << what << ", KV";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, GroupPass, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcedScalar" : "Dispatched";
                         });

TEST(GroupPassErrors, DryPoolOpensNoMember) {
  const PreparedModel model(tiny_model(), engine_config(KvQuantMode::kInt8));
  // Two block columns: the first member takes one, the second needs two.
  KvBlockPool pool(2 * 2 * tiny_config().n_layers, 8, tiny_config().d_model,
                   KvQuantMode::kInt8);
  PassScratch scratch = model.make_scratch();
  SequenceState a = model.make_sequence(pool);
  SequenceState b = model.make_sequence(pool);
  const auto one = tokens_from(1, 0);
  const auto many = tokens_from(16, 1);
  const PassMember members[] = {{&a, one, 1}, {&b, many, 1}};
  EXPECT_THROW(model.prefill_group(members, scratch), KvPoolExhausted);
  EXPECT_EQ(a.position(), 0u);
  EXPECT_EQ(b.position(), 0u);
  EXPECT_EQ(pool.blocks_in_use(), 0u);
  // With the dry member gone the same group of one runs.
  model.prefill_group({members, 1}, scratch);
  EXPECT_EQ(a.position(), 1u);
}

TEST(GroupPassErrors, RejectsASequenceTwice) {
  const PreparedModel model(tiny_model(), engine_config(KvQuantMode::kFp32));
  auto pool = model.make_kv_pool(1.0);
  PassScratch scratch = model.make_scratch();
  SequenceState a = model.make_sequence(pool);
  const auto one = tokens_from(1, 0);
  const PassMember members[] = {{&a, one, 1}, {&a, one, 1}};
  EXPECT_THROW(model.prefill_group(members, scratch), std::invalid_argument);
  EXPECT_EQ(a.position(), 0u);
}

}  // namespace
}  // namespace opal
