// Device-level model: one accelerator (core + on-chip buffers + DRAM
// interface) generating tokens for a full-scale LLM — the Fig 8 harness.
//
// Three device families are modeled:
//   * BF16  — bfloat16 weights and activations on an iso-throughput array of
//             BF16 MAC units with a conventional softmax unit.
//   * OWQ   — OWQ INT3/4 weights (shrinking the weight buffer and weight
//             traffic) but BF16 activations and BF16 compute, per the paper.
//   * OPAL  — OWQ weights + MX-OPAL activations on the OPAL core.
//
// The device prices one engine step (accel/workload.h step_ops): its
// latency is the sum over ops of max(compute time, DRAM streaming time);
// energy splits into the Fig 8 components: core energy, memory access
// energy (DRAM + global buffer dynamic), weight-buffer leakage, and
// activation-buffer leakage (both scale with the step's latency).
// Generating one token is the one-row step, so simulate_token and
// trace_token are views of simulate_step, not separate models.
#pragma once

#include <string>
#include <vector>

#include "accel/core.h"
#include "accel/sram.h"
#include "accel/workload.h"
#include "llm/model_config.h"

namespace opal {

enum class DeviceKind : std::uint8_t { kBF16, kOWQ, kOpal };

struct DeviceConfig {
  std::string name;
  DeviceKind kind = DeviceKind::kOpal;
  CoreConfig core;  // meaningful for kOpal; baselines derive their array
  /// Cores (or baseline arrays) working on disjoint output-row tiles of
  /// each MxV. Compute time divides by n_cores; MAC energy and total core
  /// area multiply accordingly. DRAM streaming is shared.
  std::size_t n_cores = 1;
  TechParams tech;
  SramParams sram;
  DramModel dram;

  int weight_bits = 4;
  /// Extra weight-storage factor for OWQ bf16 columns and per-group scales
  /// (e.g. 4.25/4 effective bits at W4).
  double weight_bits_overhead = 0.25;
  ActBits act;
  bool log2_softmax = true;
  bool quantize_acts = true;
  /// Positions per KV-cache block: K/V DRAM traffic and buffer residency
  /// are sized block-granularly (rounding the sequence up to whole blocks,
  /// plus per-block scales for sub-32-bit entries), mirroring the serving
  /// layer's paged KvBlockPool layout. Set it to the served
  /// EngineConfig::kv_block_size when modeling a specific deployment; the
  /// default matches EngineConfig's default.
  std::size_t kv_block_size = 16;
  double act_outlier_fraction = 4.0 / 128.0;  // n/k
  double weight_fp_fraction = 0.0025;

  /// On-chip buffer sizing: element capacities are fixed across devices so
  /// byte sizes scale with precision, which is the mechanism behind the
  /// paper's buffer-leakage savings.
  std::size_t weight_buffer_elements = 512 * 1024;
  std::size_t act_buffer_elements = 600 * 1024;

  [[nodiscard]] std::size_t weight_buffer_bytes() const;
  [[nodiscard]] std::size_t act_buffer_bytes() const;

  /// Baseline BF16 MAC array sized for parity with the OPAL core's average
  /// throughput (512 units).
  std::size_t baseline_fp_units = 512;
};

/// The four devices of Fig 8.
[[nodiscard]] DeviceConfig make_bf16_device();
[[nodiscard]] DeviceConfig make_owq_device(int weight_bits = 4);
[[nodiscard]] DeviceConfig make_opal_device(int low_bits, int high_bits,
                                            int weight_bits);

/// Fig 8(a) bar: per-token energy decomposition plus latency.
struct TokenReport {
  std::string device;
  double latency_s = 0.0;
  double core_energy_j = 0.0;
  double mem_access_j = 0.0;     // DRAM + buffer dynamic
  double weight_leak_j = 0.0;
  double act_leak_j = 0.0;
  std::size_t total_macs = 0;
  double int_mac_fraction = 0.0;  // fraction of MACs on INT units

  [[nodiscard]] double total_j() const {
    return core_energy_j + mem_access_j + weight_leak_j + act_leak_j;
  }
};

/// Fig 8(b) bar: compute-core area of all n_cores (the paper's area
/// comparison excludes the buffers, whose size is an independent design
/// choice).
[[nodiscard]] double device_core_area_mm2(const DeviceConfig& device);

/// Simulates generating one token at KV length `seq_len` (the new token's
/// own position included, so seq_len >= 1; throws std::invalid_argument
/// otherwise): the totals of simulate_step over the single pass
/// {0, seq_len - 1, 1}.
[[nodiscard]] TokenReport simulate_token(const DeviceConfig& device,
                                         const ModelConfig& model,
                                         std::size_t seq_len);

/// One scheduled operation of a token, for bottleneck analysis.
struct OpTraceEntry {
  std::string name;
  OpKind kind = OpKind::kWeightMxv;
  double latency_s = 0.0;
  double dram_bytes = 0.0;
  double core_energy_j = 0.0;
  bool dram_bound = false;
};

/// Per-op trace of one token: the op list simulate_token prices, one entry
/// per op in order, so the entries' latencies and core energies sum to the
/// token's report bitwise. Attention ops carry the step's per-sequence
/// names (layerN.s0.qk, layerN.s0.softmax, layerN.s0.av).
[[nodiscard]] std::vector<OpTraceEntry> trace_token(
    const DeviceConfig& device, const ModelConfig& model,
    std::size_t seq_len);

/// Average per-token report over a decode of `n_tokens` starting from
/// `prompt_len` (KV length grows by one each step).
[[nodiscard]] TokenReport simulate_generation(const DeviceConfig& device,
                                              const ModelConfig& model,
                                              std::size_t prompt_len,
                                              std::size_t n_tokens);

/// One sequence's share of a batched step (see simulate_step). Attention
/// ops owned by the sequence are attributed in full; batch-shared work
/// (weight streaming, quantize) splits by fed-rows share; buffer leakage
/// splits by latency share. Shares sum to the step totals up to
/// floating-point rounding.
struct SeqStepCost {
  std::uint64_t request = 0;
  std::size_t rows = 0;       // positions this sequence fed
  std::size_t start_len = 0;  // KV length before the pass
  double latency_s = 0.0;
  double energy_j = 0.0;      // all components, leakage included
  double dram_bytes = 0.0;
};

/// Device cost of one batched engine step (workload from step_ops).
struct StepReport {
  TokenReport totals;         // whole-step latency + energy decomposition
  double dram_bytes = 0.0;    // total DRAM traffic (weights + KV streams)
  double compute_s = 0.0;     // per-op compute times, summed
  double dram_s = 0.0;        // per-op DRAM streaming times, summed
  /// True when the step spends the majority of its latency in ops whose
  /// DRAM streaming time exceeds their compute time.
  bool dram_bound = false;
  std::vector<SeqStepCost> seqs;  // one entry per StepComposition pass
};

/// Simulates one batched engine step: a mix of prefill chunks, decodes and
/// spec-verify bursts, each at its own KV length, sharing one weight
/// stream. A single {0, P} pass prices prefilling a P-token prompt as one
/// chunk (weights streamed once, reused across positions — compute-bound,
/// unlike decode).
[[nodiscard]] StepReport simulate_step(const DeviceConfig& device,
                                       const ModelConfig& model,
                                       const StepComposition& step);

}  // namespace opal
