#include "accel/workload.h"

namespace opal {

std::vector<TokenOp> step_ops(const ModelConfig& model,
                              const StepComposition& step, int weight_bits,
                              ActBits act, bool log2_softmax,
                              bool quantize_acts) {
  std::vector<TokenOp> ops;
  const std::size_t d = model.d_model;
  const std::size_t f = model.d_ffn;
  const std::size_t total = step.total_rows();
  if (total == 0) return ops;

  auto quantize = [&](const std::string& name, std::size_t len) {
    if (quantize_acts) {
      ops.push_back({name, OpKind::kQuantize, 1, len, 0, 0, total});
    }
  };
  // Per-sequence causal attention of a pass of n rows at start KV length s:
  // row r (0-based) attends to s + r + 1 keys, so the pass touches
  // T = n·s + n(n+1)/2 keys in total against a stream of s + n positions.
  auto attention = [&](const std::string& p) {
    for (std::size_t i = 0; i < step.seqs.size(); ++i) {
      const SeqPass& s = step.seqs[i];
      if (s.rows == 0) continue;
      const std::size_t kv_end = s.start_len + s.rows;
      const std::size_t visits =
          s.rows * s.start_len + s.rows * (s.rows + 1) / 2;
      const std::string sp = p + "s" + std::to_string(i) + ".";
      ops.push_back({sp + "qk", OpKind::kKvMxv, visits, d, act.high,
                     act.high, 1, kv_end, i});
      ops.push_back({sp + "softmax", OpKind::kSoftmax, model.n_heads,
                     visits, 0, 0, 1, 0, i});
      if (log2_softmax) {
        ops.push_back({sp + "av", OpKind::kShiftAccAv, d, visits, act.high,
                       act.high, 1, kv_end, i});
      } else {
        ops.push_back({sp + "av", OpKind::kKvMxv, d, visits, act.high,
                       act.high, 1, kv_end, i});
      }
    }
  };

  for (std::size_t l = 0; l < model.n_layers; ++l) {
    const std::string p = "layer" + std::to_string(l) + ".";
    // Shared across the batch: each weight matrix streams from DRAM once
    // and serves every fed row of every sequence (the continuous-batching
    // amortization).
    quantize(p + "quant.attn_in", d);
    ops.push_back(
        {p + "wq", OpKind::kWeightMxv, d, d, weight_bits, act.low, total});
    ops.push_back(
        {p + "wk", OpKind::kWeightMxv, d, d, weight_bits, act.low, total});
    ops.push_back(
        {p + "wv", OpKind::kWeightMxv, d, d, weight_bits, act.low, total});
    quantize(p + "quant.qkv", 3 * d);

    attention(p);

    quantize(p + "quant.z", d);
    ops.push_back(
        {p + "wo", OpKind::kWeightMxv, d, d, weight_bits, act.high, total});

    quantize(p + "quant.ffn_in", d);
    ops.push_back(
        {p + "fc1", OpKind::kWeightMxv, f, d, weight_bits, act.low, total});
    quantize(p + "quant.hidden", f);
    ops.push_back(
        {p + "fc2", OpKind::kWeightMxv, d, f, weight_bits, act.high, total});
  }
  // Logits for every fed row (LM head over the tied embedding).
  ops.push_back({"lm_head", OpKind::kWeightMxv, model.vocab, d, weight_bits,
                 act.high, total});
  return ops;
}

std::size_t total_macs(const std::vector<TokenOp>& ops) {
  std::size_t macs = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kWeightMxv:
      case OpKind::kKvMxv:
      case OpKind::kShiftAccAv:
        macs += op.rows * op.cols * op.batch;
        break;
      default:
        break;
    }
  }
  return macs;
}

}  // namespace opal
