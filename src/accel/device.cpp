#include "accel/device.h"

#include <algorithm>
#include <cmath>

#include "common/tensor.h"
#include "llm/paged_kv_cache.h"
#include "quant/format.h"

namespace opal {

std::size_t DeviceConfig::weight_buffer_bytes() const {
  const double bits = static_cast<double>(weight_bits) +
                      (kind == DeviceKind::kBF16 ? 0.0 : weight_bits_overhead);
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(weight_buffer_elements) * bits / 8.0));
}

std::size_t DeviceConfig::act_buffer_bytes() const {
  double bits = static_cast<double>(act.max());
  if (quantize_acts) {
    // MX-OPAL storage overhead (outliers + scale offsets), Eq. (1).
    bits *= mx_opal_memory_overhead(core.block_size, 4, act.max());
  }
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(act_buffer_elements) * bits / 8.0));
}

DeviceConfig make_bf16_device() {
  DeviceConfig dev;
  dev.name = "BF16";
  dev.kind = DeviceKind::kBF16;
  dev.weight_bits = 16;
  dev.weight_bits_overhead = 0.0;
  dev.act = {16, 16};
  dev.log2_softmax = false;
  dev.quantize_acts = false;
  dev.act_outlier_fraction = 0.0;
  dev.weight_fp_fraction = 0.0;
  return dev;
}

DeviceConfig make_owq_device(int weight_bits) {
  DeviceConfig dev = make_bf16_device();
  dev.name = "OWQ";
  dev.kind = DeviceKind::kOWQ;
  dev.weight_bits = weight_bits;
  dev.weight_bits_overhead = 0.5;  // bf16 columns + per-group (g=32) scales
  dev.weight_fp_fraction = weight_bits == 3 ? 0.0033 : 0.0025;
  return dev;
}

DeviceConfig make_opal_device(int low_bits, int high_bits, int weight_bits) {
  DeviceConfig dev;
  dev.name = "OPAL-" + std::to_string(low_bits) + "/" +
             std::to_string(high_bits);
  dev.kind = DeviceKind::kOpal;
  dev.core.low_bits = low_bits;
  dev.core.high_bits = high_bits;
  dev.weight_bits = weight_bits;
  dev.weight_bits_overhead = 0.5 + (weight_bits == 3 ? 0.05 : 0.0);
  dev.weight_fp_fraction = weight_bits == 3 ? 0.0033 : 0.0025;
  dev.act = {low_bits, high_bits};
  return dev;
}

double device_core_area_mm2(const DeviceConfig& device) {
  const auto& tech = device.tech;
  const double cores = static_cast<double>(device.n_cores);
  if (device.kind == DeviceKind::kOpal) {
    return cores * core_cost(device.core, tech).total_area_um2() * 1e-6;
  }
  // Baseline: an iso-throughput BF16 MAC array, its reduction trees, and a
  // conventional softmax unit. No distributors or quantizer.
  const double array =
      static_cast<double>(device.baseline_fp_units) * tech.fp_unit_area;
  const double trees =
      static_cast<double>(device.core.lanes) * tech.fp_adder_tree_area;
  return cores *
         (array + trees + conventional_softmax_cost(tech).area_um2) * 1e-6;
}

namespace {

struct OpCost {
  double compute_s = 0.0;
  double dram_bytes = 0.0;
  double core_energy_j = 0.0;
  double buffer_bytes = 0.0;  // traffic through the global buffer
  std::size_t int_macs = 0;
  std::size_t fp_macs = 0;
};

OpCost cost_op_opal(const OpalCore& core, const DeviceConfig& dev,
                    const TokenOp& op) {
  OpCost cost;
  const double clock_hz = dev.tech.clock_ghz * 1e9;
  switch (op.kind) {
    case OpKind::kWeightMxv:
    case OpKind::kKvMxv: {
      const double w_fp =
          op.kind == OpKind::kWeightMxv ? dev.weight_fp_fraction
                                        : dev.act_outlier_fraction;
      const auto stats =
          core.mxv_cost(op.rows * op.batch, op.cols, op.weight_bits,
                        op.act_bits, dev.act_outlier_fraction, w_fp);
      cost.compute_s = static_cast<double>(stats.cycles) / clock_hz;
      cost.core_energy_j = stats.energy.total();
      cost.int_macs = stats.int_macs;
      cost.fp_macs = stats.fp_macs;
      break;
    }
    case OpKind::kShiftAccAv: {
      // Shift-and-accumulate: high-high occupancy but no multiplier
      // switching; charge ~30% of the INT MAC energy (adder + shifter).
      auto stats = core.mxv_cost(op.rows * op.batch, op.cols,
                                 op.weight_bits, op.act_bits,
                                 dev.act_outlier_fraction,
                                 dev.act_outlier_fraction);
      stats.energy.int_mac *= 0.3;
      cost.compute_s = static_cast<double>(stats.cycles) / clock_hz;
      cost.core_energy_j = stats.energy.total();
      cost.int_macs = stats.int_macs;
      cost.fp_macs = stats.fp_macs;
      break;
    }
    case OpKind::kSoftmax: {
      const auto stats = core.softmax_cost(op.rows * op.cols * op.batch);
      cost.compute_s = static_cast<double>(stats.cycles) / clock_hz;
      cost.core_energy_j = stats.energy.total();
      break;
    }
    case OpKind::kQuantize: {
      const auto stats = core.quantize_cost(op.cols * op.batch);
      cost.compute_s = static_cast<double>(stats.cycles) / clock_hz;
      cost.core_energy_j = stats.energy.total();
      break;
    }
  }
  return cost;
}

OpCost cost_op_baseline(const DeviceConfig& dev, const TokenOp& op) {
  OpCost cost;
  const double clock_hz = dev.tech.clock_ghz * 1e9;
  const double units = static_cast<double>(dev.baseline_fp_units);
  switch (op.kind) {
    case OpKind::kWeightMxv:
    case OpKind::kKvMxv:
    case OpKind::kShiftAccAv: {
      const double macs = static_cast<double>(op.rows) *
                          static_cast<double>(op.cols) *
                          static_cast<double>(op.batch);
      cost.compute_s = macs / units / clock_hz;
      cost.core_energy_j = macs * dev.tech.fp_mac_energy_pj() * 1e-12;
      cost.fp_macs = static_cast<std::size_t>(macs);
      break;
    }
    case OpKind::kSoftmax: {
      const double elements = static_cast<double>(op.rows) *
                              static_cast<double>(op.cols) *
                              static_cast<double>(op.batch);
      const double cycles = 2.0 * elements / 8.0 + 4.0;
      const auto unit = conventional_softmax_cost(dev.tech);
      cost.compute_s = cycles / clock_hz;
      cost.core_energy_j =
          unit.power_mw * 1e-12 / dev.tech.clock_ghz * cycles;
      break;
    }
    case OpKind::kQuantize:
      break;  // baselines keep activations in BF16
  }
  return cost;
}

struct OpBytes {
  double dram = 0.0;
  double weight_buffer = 0.0;
  double act_buffer = 0.0;
};

OpBytes op_bytes(const DeviceConfig& device, const ModelConfig& model,
                 const TokenOp& op) {
  const double weight_elem_bits =
      static_cast<double>(device.weight_bits) +
      (device.kind == DeviceKind::kBF16 ? 0.0 : device.weight_bits_overhead);
  const double act_elem_bits = static_cast<double>(device.act.max());
  const auto batch = static_cast<double>(op.batch);
  OpBytes bytes;
  switch (op.kind) {
    case OpKind::kWeightMxv: {
      // Weights stream from DRAM once regardless of batch (the batching
      // advantage); activations scale with the positions processed.
      const double elems =
          static_cast<double>(op.rows) * static_cast<double>(op.cols);
      bytes.dram = elems * weight_elem_bits / 8.0;
      bytes.weight_buffer = 2.0 * bytes.dram;  // fill + drain
      bytes.act_buffer = static_cast<double>(op.cols + op.rows) *
                         act_elem_bits / 8.0 * batch;
      break;
    }
    case OpKind::kKvMxv:
    case OpKind::kShiftAccAv: {
      // K or V cache streamed from DRAM through the activation buffer.
      // Block-granular: the paged cache stores whole blocks (the op's
      // kv_len rounded up) plus a per-block scale at sub-32-bit precision.
      const double kv_bytes = static_cast<double>(matrix_bytes(
          model.d_model, op.kv_len,
          static_cast<std::size_t>(device.act.max()),
          device.kv_block_size));
      bytes.dram = kv_bytes;
      bytes.act_buffer = 2.0 * kv_bytes * batch;
      break;
    }
    case OpKind::kSoftmax:
    case OpKind::kQuantize:
      bytes.act_buffer = static_cast<double>(op.rows) *
                         static_cast<double>(op.cols) * act_elem_bits /
                         8.0 * batch;
      break;
  }
  return bytes;
}

// One op priced on `device`: its core cost, its bytes, and its latency —
// the larger of the compute time (cores tile the op's output rows) and the
// DRAM streaming time (shared by all cores).
struct PricedOp {
  OpCost cost;
  OpBytes bytes;
  double compute_s = 0.0;
  double dram_s = 0.0;
  double latency_s = 0.0;
};

PricedOp price_op(const OpalCore& core, const DeviceConfig& device,
                  const ModelConfig& model, const TokenOp& op) {
  PricedOp p;
  p.cost = device.kind == DeviceKind::kOpal ? cost_op_opal(core, device, op)
                                            : cost_op_baseline(device, op);
  p.bytes = op_bytes(device, model, op);
  p.compute_s = p.cost.compute_s / static_cast<double>(device.n_cores);
  p.dram_s =
      device.dram.transfer_seconds(static_cast<std::size_t>(p.bytes.dram));
  p.latency_s = std::max(p.compute_s, p.dram_s);
  return p;
}

// The step that generates one token at KV length `seq_len`: one sequence
// feeding one row at start length seq_len - 1.
StepComposition one_token(std::size_t seq_len) {
  require(seq_len >= 1,
          "device: seq_len must be >= 1 (it counts the generated token)");
  return {{{0, seq_len - 1, 1}}};
}

}  // namespace

TokenReport simulate_token(const DeviceConfig& device,
                           const ModelConfig& model, std::size_t seq_len) {
  return simulate_step(device, model, one_token(seq_len)).totals;
}

std::vector<OpTraceEntry> trace_token(const DeviceConfig& device,
                                      const ModelConfig& model,
                                      std::size_t seq_len) {
  const auto ops =
      step_ops(model, one_token(seq_len), device.weight_bits, device.act,
               device.log2_softmax, device.quantize_acts);
  const OpalCore core(device.core, device.tech);
  std::vector<OpTraceEntry> trace;
  trace.reserve(ops.size());
  for (const auto& op : ops) {
    const PricedOp p = price_op(core, device, model, op);
    trace.push_back({op.name, op.kind, p.latency_s, p.bytes.dram,
                     p.cost.core_energy_j, p.dram_s >= p.compute_s});
  }
  return trace;
}

TokenReport simulate_generation(const DeviceConfig& device,
                                const ModelConfig& model,
                                std::size_t prompt_len,
                                std::size_t n_tokens) {
  require(n_tokens >= 1, "simulate_generation: need >= 1 token");
  TokenReport avg;
  avg.device = device.name;
  for (std::size_t t = 0; t < n_tokens; ++t) {
    const auto r = simulate_token(device, model, prompt_len + t);
    avg.latency_s += r.latency_s;
    avg.core_energy_j += r.core_energy_j;
    avg.mem_access_j += r.mem_access_j;
    avg.weight_leak_j += r.weight_leak_j;
    avg.act_leak_j += r.act_leak_j;
    avg.total_macs += r.total_macs;
    avg.int_mac_fraction += r.int_mac_fraction;
  }
  const double n = static_cast<double>(n_tokens);
  avg.latency_s /= n;
  avg.core_energy_j /= n;
  avg.mem_access_j /= n;
  avg.weight_leak_j /= n;
  avg.act_leak_j /= n;
  avg.total_macs /= n_tokens;
  avg.int_mac_fraction /= n;
  return avg;
}

StepReport simulate_step(const DeviceConfig& device, const ModelConfig& model,
                         const StepComposition& step) {
  StepReport report;
  report.totals.device = device.name;
  report.seqs.reserve(step.seqs.size());
  for (const SeqPass& s : step.seqs) {
    SeqStepCost c;
    c.request = s.request;
    c.rows = s.rows;
    c.start_len = s.start_len;
    report.seqs.push_back(c);
  }
  const std::size_t total_rows = step.total_rows();
  if (total_rows == 0) return report;

  const auto ops = step_ops(model, step, device.weight_bits, device.act,
                            device.log2_softmax, device.quantize_acts);
  report.totals.total_macs = total_macs(ops);

  const OpalCore core(device.core, device.tech);
  const SramModel weight_buffer(device.weight_buffer_bytes(), device.sram);
  const SramModel act_buffer(device.act_buffer_bytes(), device.sram);
  const SramModel softmax_buffer(2 * 1024, device.sram);

  // Attribution runs on separate accumulators and never feeds back into the
  // totals.
  double latency = 0.0;
  double dram_energy = 0.0;
  double weight_buf_dyn = 0.0;
  double act_buf_dyn = 0.0;
  double dram_bound_latency = 0.0;
  std::size_t int_macs = 0, fp_macs = 0;

  for (const auto& op : ops) {
    const PricedOp p = price_op(core, device, model, op);
    latency += p.latency_s;
    const double op_dram_j = device.dram.transfer_energy_j(
        static_cast<std::size_t>(p.bytes.dram));
    const double op_wbuf_j = weight_buffer.read_energy_j(
        static_cast<std::size_t>(p.bytes.weight_buffer));
    const double op_abuf_j = act_buffer.read_energy_j(
        static_cast<std::size_t>(p.bytes.act_buffer));
    dram_energy += op_dram_j;
    weight_buf_dyn += op_wbuf_j;
    act_buf_dyn += op_abuf_j;
    report.totals.core_energy_j += p.cost.core_energy_j;
    int_macs += p.cost.int_macs;
    fp_macs += p.cost.fp_macs;

    report.dram_bytes += p.bytes.dram;
    report.compute_s += p.compute_s;
    report.dram_s += p.dram_s;
    if (p.dram_s >= p.compute_s) dram_bound_latency += p.latency_s;

    // Attribution: sequence-owned attention ops in full; batch-shared ops
    // (weights, quantize) by fed-rows share.
    const double op_energy =
        p.cost.core_energy_j + op_dram_j + op_wbuf_j + op_abuf_j;
    if (op.owner != TokenOp::kShared) {
      SeqStepCost& c = report.seqs[op.owner];
      c.latency_s += p.latency_s;
      c.energy_j += op_energy;
      c.dram_bytes += p.bytes.dram;
    } else {
      for (SeqStepCost& c : report.seqs) {
        const double share = static_cast<double>(c.rows) /
                             static_cast<double>(total_rows);
        c.latency_s += p.latency_s * share;
        c.energy_j += op_energy * share;
        c.dram_bytes += p.bytes.dram * share;
      }
    }
  }

  report.totals.latency_s = latency;
  report.totals.mem_access_j = dram_energy + weight_buf_dyn + act_buf_dyn;
  report.totals.weight_leak_j = weight_buffer.leakage_energy_j(latency);
  report.totals.act_leak_j = act_buffer.leakage_energy_j(latency) +
                             softmax_buffer.leakage_energy_j(latency);
  report.totals.int_mac_fraction =
      int_macs + fp_macs == 0
          ? 0.0
          : static_cast<double>(int_macs) /
                static_cast<double>(int_macs + fp_macs);
  report.dram_bound = latency > 0.0 && 2.0 * dram_bound_latency >= latency;

  // Leakage scales with wall time the step holds the buffers: split it by
  // each sequence's latency share.
  const double leak_j =
      report.totals.weight_leak_j + report.totals.act_leak_j;
  if (latency > 0.0) {
    for (SeqStepCost& c : report.seqs) {
      c.energy_j += leak_j * (c.latency_s / latency);
    }
  }
  return report;
}

}  // namespace opal
