// Operation list of one engine step of a decoder model — the workload
// consumed by the device-level simulator (Fig 8, latency/energy per token,
// and the replay of batched serving steps). Generating one token is the
// one-row step: step_ops over a single rows == 1 pass.
//
// Every op is one of: a matrix-vector product (projection / FFN weights
// streamed from DRAM, or attention ops against the KV cache), a softmax over
// the attention scores, an MX-OPAL re-encode of a produced activation, or a
// shift-and-accumulate Attn.V (which replaces the AV matmul when the log2
// softmax is active).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "llm/model_config.h"

namespace opal {

enum class OpKind : std::uint8_t {
  kWeightMxv,   // activation x streamed weight matrix
  kKvMxv,       // Q.K^T or Attn.V against the cached K/V
  kShiftAccAv,  // Attn.V as shift-and-accumulate (log2 softmax active)
  kSoftmax,
  kQuantize,
};

struct TokenOp {
  /// Shared op: not attributable to a single sequence of a StepComposition
  /// (weight / softmax / quantize work batched across the whole step).
  static constexpr std::size_t kShared = static_cast<std::size_t>(-1);

  std::string name;
  OpKind kind = OpKind::kWeightMxv;
  std::size_t rows = 0;  // outputs (per head already aggregated)
  std::size_t cols = 0;  // reduction length
  int weight_bits = 16;  // second operand precision
  int act_bits = 16;     // first operand precision
  /// Rows processed together: the step's total_rows for batch-shared ops,
  /// where the same streamed weights serve every fed row; 1 for attention
  /// ops, whose rows/cols already cover the owning pass.
  std::size_t batch = 1;
  /// KV length this op's K/V stream covers (kKvMxv / kShiftAccAv only, 0
  /// otherwise): sizes the block-granular DRAM/buffer traffic per op, so a
  /// batched step can mix sequences at different cache depths.
  std::size_t kv_len = 0;
  /// Index into the producing StepComposition's seqs for per-sequence ops;
  /// kShared for ops amortized across the batch.
  std::size_t owner = kShared;
};

/// Activation precision scheme of a device (16 = BF16 baseline).
struct ActBits {
  int low = 16;
  int high = 16;
  [[nodiscard]] int max() const { return low > high ? low : high; }
};

/// One sequence's model pass within a batched engine step: `rows` new
/// positions fed at KV length `start_len` (a decode is rows == 1, a prefill
/// chunk or speculative verify burst is rows > 1).
struct SeqPass {
  std::uint64_t request = 0;  // serving RequestId, carried into attribution
  std::size_t start_len = 0;  // KV length before the pass
  std::size_t rows = 0;       // positions fed this step
};

/// The mixed batch one continuous-batching engine step feeds through the
/// model: any combination of prefill chunks, single decodes, and spec-verify
/// bursts, each at its own KV depth. Weight streaming is shared across all
/// of them — the continuous-batching amortization simulate_step models.
struct StepComposition {
  std::vector<SeqPass> seqs;

  [[nodiscard]] std::size_t total_rows() const {
    std::size_t n = 0;
    for (const SeqPass& s : seqs) n += s.rows;
    return n;
  }
};

/// Builds the op list for one batched engine step. Per layer: the weight /
/// quantize ops run once at batch = total_rows (weights streamed from DRAM
/// once for the whole batch); per sequence, the attention ops cover the
/// exact causal work of its pass — rows·start + rows·(rows+1)/2 key visits
/// against a KV stream of start + rows positions — and carry `owner` so the
/// device model can attribute them. A single rows == 1 pass at start_len is
/// the op list of generating one token at KV length start_len + 1; a single
/// {0, P} pass is prefilling a P-token prompt as one chunk.
[[nodiscard]] std::vector<TokenOp> step_ops(const ModelConfig& model,
                                            const StepComposition& step,
                                            int weight_bits, ActBits act,
                                            bool log2_softmax,
                                            bool quantize_acts);

/// Total MACs across the MxV ops of a workload (batch-weighted).
[[nodiscard]] std::size_t total_macs(const std::vector<TokenOp>& ops);

}  // namespace opal
