#include "accel/workload.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace opal {
namespace {

// The one-row step that generates a token at KV length `seq`.
StepComposition decode_at(std::size_t seq) { return {{{0, seq - 1, 1}}}; }

// One pass prefilling a `prompt`-token prompt from position 0.
StepComposition prefill(std::size_t prompt) { return {{{0, 0, prompt}}}; }

TEST(Workload, OpCountsPerLayer) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const auto ops = step_ops(model, decode_at(64), 4, {4, 7}, true, true);
  // Per layer: 5 quantize + 4 weight MxV + fc1 + fc2 (6 weight ops total)
  // + qk + softmax + av = 13; plus the LM head.
  const auto weight_ops = std::count_if(
      ops.begin(), ops.end(),
      [](const TokenOp& op) { return op.kind == OpKind::kWeightMxv; });
  EXPECT_EQ(static_cast<std::size_t>(weight_ops), model.n_layers * 6 + 1);
  const auto softmax_ops = std::count_if(
      ops.begin(), ops.end(),
      [](const TokenOp& op) { return op.kind == OpKind::kSoftmax; });
  EXPECT_EQ(static_cast<std::size_t>(softmax_ops), model.n_layers);
}

TEST(Workload, Log2SoftmaxSwapsAvToShiftAcc) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const auto with = step_ops(model, decode_at(64), 4, {4, 7}, true, true);
  const auto without =
      step_ops(model, decode_at(64), 4, {4, 7}, false, true);
  const auto count_kind = [](const std::vector<TokenOp>& ops, OpKind kind) {
    return std::count_if(ops.begin(), ops.end(), [kind](const TokenOp& op) {
      return op.kind == kind;
    });
  };
  EXPECT_EQ(count_kind(with, OpKind::kShiftAccAv),
            static_cast<long>(model.n_layers));
  EXPECT_EQ(count_kind(without, OpKind::kShiftAccAv), 0);
  EXPECT_GT(count_kind(without, OpKind::kKvMxv),
            count_kind(with, OpKind::kKvMxv));
}

TEST(Workload, QuantizeOpsOnlyWhenRequested) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const auto no_quant =
      step_ops(model, decode_at(64), 16, {16, 16}, false, false);
  for (const auto& op : no_quant) {
    EXPECT_NE(op.kind, OpKind::kQuantize);
  }
}

TEST(Workload, PostLnOpsUseLowBits) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 1, 128);
  const auto ops = step_ops(model, decode_at(64), 4, {4, 7}, true, true);
  for (const auto& op : ops) {
    if (op.name.ends_with(".wq") || op.name.ends_with(".fc1")) {
      EXPECT_EQ(op.act_bits, 4) << op.name;
    }
    if (op.name.ends_with(".wo") || op.name.ends_with(".fc2")) {
      EXPECT_EQ(op.act_bits, 7) << op.name;
    }
    if (op.name.ends_with(".qk")) {
      EXPECT_EQ(op.act_bits, 7) << op.name;
      EXPECT_EQ(op.weight_bits, 7) << op.name;
    }
  }
}

TEST(Workload, TotalMacsMatchModelFormula) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const std::size_t seq = 48;
  const auto ops = step_ops(model, decode_at(seq), 4, {4, 7}, true, true);
  EXPECT_EQ(total_macs(ops), model.macs_per_token(seq));
}

TEST(Workload, PrefillBatchesWeightOps) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const std::size_t prompt = 64;
  const auto ops = step_ops(model, prefill(prompt), 4, {4, 7}, true, true);
  for (const auto& op : ops) {
    if (op.kind == OpKind::kWeightMxv) {
      EXPECT_EQ(op.batch, prompt);
    }
    if (op.name.ends_with(".qk")) {
      // Causal triangle: position t attends to t + 1 keys.
      EXPECT_EQ(op.rows, prompt * (prompt + 1) / 2);
      EXPECT_EQ(op.kv_len, prompt);
    }
  }
  // Prefill MACs ~= prompt_len x decode MACs for the projection part.
  const auto decode =
      step_ops(model, decode_at(prompt), 4, {4, 7}, true, true);
  EXPECT_GT(total_macs(ops), total_macs(decode) * (prompt / 2));
}

TEST(Workload, MacsGrowWithSeqLen) {
  const auto model = scaled_for_eval(llama2_7b(), 256, 2, 128);
  const auto short_ops = step_ops(model, decode_at(8), 4, {4, 7}, true, true);
  const auto long_ops =
      step_ops(model, decode_at(512), 4, {4, 7}, true, true);
  EXPECT_GT(total_macs(long_ops), total_macs(short_ops));
}

}  // namespace
}  // namespace opal
