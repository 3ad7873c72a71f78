#include "accel/replay.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "llm/kv_block_pool.h"

namespace opal {

namespace {

// Deterministic double formatting: 17 significant digits round-trip every
// binary64 value, so the same report always serializes byte-identically.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The event kinds a step's seqs[] records, named as to_string names them.
constexpr TraceEventKind kPassKinds[] = {
    TraceEventKind::kChunk, TraceEventKind::kDecode,
    TraceEventKind::kSpecBurst, TraceEventKind::kPrefixHit};

TraceEventKind pass_kind_from_string(const std::string& kind) {
  for (const TraceEventKind k : kPassKinds) {
    if (to_string(k) == kind) return k;
  }
  throw std::invalid_argument("replay: unknown pass kind \"" + kind + "\"");
}

/// kv.mode must be a name to_string(KvQuantMode) gives, or empty (no
/// StepTraceInfo was set): to_json writes the name without escaping it.
const std::string& checked_kv_mode(const std::string& mode) {
  for (const KvQuantMode m :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    if (to_string(m) == mode) return mode;
  }
  if (!mode.empty()) {
    throw std::invalid_argument("replay: unknown kv.mode \"" + mode + "\"");
  }
  return mode;
}

}  // namespace

ModelConfig StepTrace::model() const {
  if (info.n_layers == 0 || info.d_model == 0 || info.n_heads == 0 ||
      info.d_ffn == 0 || info.vocab == 0) {
    throw std::invalid_argument(
        "replay: trace is not self-describing (zero model dims in the "
        "header; the producer never set Tracer::set_step_info)");
  }
  if (info.kv_block_size == 0) {
    throw std::invalid_argument(
        "replay: kv.block_size must be > 0 (the serving layout sets the KV "
        "DRAM granularity)");
  }
  ModelConfig m;
  m.name = "traced";
  m.n_layers = info.n_layers;
  m.d_model = info.d_model;
  m.n_heads = info.n_heads;
  m.d_ffn = info.d_ffn;
  m.vocab = info.vocab;
  return m;
}

StepComposition TraceStep::composition() const {
  StepComposition comp;
  for (const TracePass& pass : passes) {
    if (pass.kind == TraceEventKind::kPrefixHit) continue;
    comp.seqs.push_back({pass.request, pass.pos, pass.rows});
  }
  return comp;
}

StepTrace step_trace_from_tracer(const Tracer& tracer) {
  StepTrace trace;
  trace.info = tracer.step_info();
  trace.dropped_steps = tracer.dropped_steps();
  trace.truncated_events = tracer.truncated_events();
  // A step's per-sequence events precede its kStep record in emission
  // order, so a single forward scan groups them.
  std::vector<TraceEvent> pending;
  for (const TraceEvent& e : tracer.events()) {
    switch (e.kind) {
      case TraceEventKind::kChunk:
      case TraceEventKind::kDecode:
      case TraceEventKind::kSpecBurst:
      case TraceEventKind::kPrefixHit:
        pending.push_back(e);
        break;
      case TraceEventKind::kStep: {
        TraceStep step;
        step.step = e.step;
        step.batch = static_cast<std::size_t>(e.a);
        step.rows = static_cast<std::size_t>(e.b);
        step.dur_us = e.dur_us;
        step.blocks_in_use = static_cast<std::size_t>(e.c);
        step.blocks_free = static_cast<std::size_t>(e.d);
        for (const TraceEvent& s : pending) {
          if (s.step != e.step) continue;  // orphan from an evicted step
          // kPrefixHit carries (positions restored, columns) in (a, b):
          // normalize it to the pass shape — rows = restores, pos 0.
          TracePass pass;
          pass.request = s.request;
          pass.kind = s.kind;
          const bool hit = s.kind == TraceEventKind::kPrefixHit;
          pass.pos = hit ? 0 : static_cast<std::size_t>(s.b);
          pass.rows = static_cast<std::size_t>(s.a);
          pass.kv_bytes = hit ? 0 : static_cast<std::size_t>(s.c);
          pass.dur_us = s.dur_us;
          pass.generated = hit ? 0 : static_cast<std::size_t>(s.d);
          step.passes.push_back(pass);
        }
        pending.clear();
        trace.steps.push_back(std::move(step));
        break;
      }
      default:
        break;  // lifecycle events are not replayed
    }
  }
  return trace;
}

std::string StepTrace::to_json() const {
  std::ostringstream out;
  out << "{\"schema\": \"opal.step_trace/v4\",\n"
      << " \"model\": {\"n_layers\": " << info.n_layers
      << ", \"d_model\": " << info.d_model
      << ", \"n_heads\": " << info.n_heads << ", \"d_ffn\": " << info.d_ffn
      << ", \"vocab\": " << info.vocab << "},\n"
      << " \"kv\": {\"mode\": \"" << info.kv_mode
      << "\", \"block_size\": " << info.kv_block_size
      << ", \"bits_per_entry\": " << info.kv_bits_per_entry
      << ", \"max_seq_len\": " << info.max_seq_len << "},\n"
      << " \"dropped_steps\": " << dropped_steps
      << ", \"truncated_events\": " << truncated_events << ",\n"
      << " \"steps\": [";
  bool first = true;
  for (const TraceStep& s : steps) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"step\": " << s.step << ", \"dur_us\": " << s.dur_us
        << ", \"batch\": " << s.batch << ", \"rows\": " << s.rows
        << ", \"blocks_in_use\": " << s.blocks_in_use
        << ", \"blocks_free\": " << s.blocks_free << ", \"seqs\": [";
    bool seq_first = true;
    for (const TracePass& p : s.passes) {
      if (!seq_first) out << ", ";
      seq_first = false;
      out << "{\"request\": " << p.request << ", \"kind\": \""
          << to_string(p.kind) << "\", \"pos\": " << p.pos
          << ", \"rows\": " << p.rows << ", \"kv_bytes\": " << p.kv_bytes
          << ", \"dur_us\": " << p.dur_us;
      if (p.kind != TraceEventKind::kPrefixHit) {
        out << ", \"generated\": " << p.generated;
      }
      out << "}";
    }
    out << "]}";
  }
  out << "\n]}\n";
  return out.str();
}

StepTrace parse_step_trace(std::string_view json_text) {
  const JsonValue root = parse_json(json_text);
  const std::string& schema = root.at("schema").as_string("schema");
  if (schema != "opal.step_trace/v4") {
    throw std::invalid_argument("replay: unsupported schema \"" + schema +
                                "\" (want opal.step_trace/v4)");
  }
  StepTrace trace;
  const JsonValue& model = root.at("model");
  trace.info.n_layers = model.at("n_layers").as_uint("model.n_layers");
  trace.info.d_model = model.at("d_model").as_uint("model.d_model");
  trace.info.n_heads = model.at("n_heads").as_uint("model.n_heads");
  trace.info.d_ffn = model.at("d_ffn").as_uint("model.d_ffn");
  trace.info.vocab = model.at("vocab").as_uint("model.vocab");
  const JsonValue& kv = root.at("kv");
  trace.info.kv_mode = checked_kv_mode(kv.at("mode").as_string("kv.mode"));
  trace.info.kv_block_size = kv.at("block_size").as_uint("kv.block_size");
  if (trace.info.kv_block_size == 0) {
    throw std::invalid_argument("replay: \"kv.block_size\" must be > 0");
  }
  trace.info.kv_bits_per_entry =
      kv.at("bits_per_entry").as_uint("kv.bits_per_entry");
  trace.info.max_seq_len = kv.at("max_seq_len").as_uint("kv.max_seq_len");
  // The engine refuses a block longer than a sequence can fill.
  if (trace.info.kv_block_size > trace.info.max_seq_len) {
    throw std::invalid_argument(
        "replay: \"kv.block_size\" " +
        std::to_string(trace.info.kv_block_size) +
        " must be <= kv.max_seq_len " +
        std::to_string(trace.info.max_seq_len));
  }
  trace.dropped_steps = root.at("dropped_steps").as_uint("dropped_steps");
  trace.truncated_events =
      root.at("truncated_events").as_uint("truncated_events");
  const JsonValue& steps = root.at("steps");
  if (!steps.is_array()) {
    throw std::invalid_argument("replay: \"steps\" must be an array");
  }
  for (const JsonValue& s : steps.items) {
    TraceStep step;
    step.step = s.at("step").as_uint("steps[].step");
    step.batch = s.at("batch").as_uint("steps[].batch");
    step.rows = s.at("rows").as_uint("steps[].rows");
    step.dur_us = s.at("dur_us").as_uint("steps[].dur_us");
    step.blocks_in_use =
        s.at("blocks_in_use").as_uint("steps[].blocks_in_use");
    step.blocks_free = s.at("blocks_free").as_uint("steps[].blocks_free");
    const JsonValue& seqs = s.at("seqs");
    if (!seqs.is_array()) {
      throw std::invalid_argument("replay: \"seqs\" must be an array");
    }
    for (const JsonValue& q : seqs.items) {
      TracePass pass;
      pass.request = q.at("request").as_uint("seqs[].request");
      pass.kind = pass_kind_from_string(q.at("kind").as_string("seqs[].kind"));
      pass.pos = q.at("pos").as_uint("seqs[].pos");
      pass.rows = q.at("rows").as_uint("seqs[].rows");
      // No pass reaches past the KV a sequence can hold; replay would
      // price attention at whatever depth the file claims.
      if (pass.pos + pass.rows > trace.info.max_seq_len) {
        throw std::invalid_argument(
            "replay: \"seqs[].pos\" + \"seqs[].rows\" must be <= "
            "kv.max_seq_len " + std::to_string(trace.info.max_seq_len) +
            " (got " + std::to_string(pass.pos) + " + " +
            std::to_string(pass.rows) + ")");
      }
      pass.kv_bytes = q.at("kv_bytes").as_uint("seqs[].kv_bytes");
      pass.dur_us = q.at("dur_us").as_uint("seqs[].dur_us");
      if (pass.kind != TraceEventKind::kPrefixHit) {
        pass.generated = q.at("generated").as_uint("seqs[].generated");
        // A plain pass samples at most once; a verify burst commits between
        // 1 and rows tokens, and replay prices each as a decode, so a huge
        // count would stall it.
        const bool spec = pass.kind == TraceEventKind::kSpecBurst;
        const std::size_t lo = spec ? 1 : 0;
        const std::size_t hi = spec ? pass.rows : 1;
        if (pass.generated < lo || pass.generated > hi) {
          throw std::invalid_argument(
              "replay: \"seqs[].generated\" must be in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "] for a " +
              to_string(pass.kind) + " of " + std::to_string(pass.rows) +
              " rows (got " + std::to_string(pass.generated) + ")");
        }
      }
      step.passes.push_back(std::move(pass));
    }
    trace.steps.push_back(std::move(step));
  }
  return trace;
}

ReplayReport replay_trace(const DeviceConfig& device,
                          const StepTrace& trace) {
  const ModelConfig model = trace.model();
  // The serving layout decides KV DRAM granularity, not the device preset.
  DeviceConfig dev = device;
  dev.kv_block_size = trace.info.kv_block_size;

  ReplayReport report;
  report.device = dev.name;
  report.dropped_steps = trace.dropped_steps;
  report.core_area_mm2 = device_core_area_mm2(dev);
  report.steps.reserve(trace.steps.size());

  std::map<std::uint64_t, ReplayRequestReport> requests;
  auto request_of = [&](std::uint64_t id) -> ReplayRequestReport& {
    ReplayRequestReport& r = requests[id];
    r.request = id;
    return r;
  };
  // Hypothetical-cost memos for the saved-energy attribution (request id
  // never affects device cost, so position/rows alone key them).
  std::map<std::size_t, double> decode_cost;  // KV length -> step joules
  std::map<std::size_t, double> chunk_cost;   // rows from 0 -> step joules
  auto single_step_j = [&](std::size_t start_len, std::size_t rows) {
    StepComposition one;
    one.seqs.push_back({0, start_len, rows});
    return simulate_step(dev, model, one).totals.total_j();
  };
  auto decode_j = [&](std::size_t pos) {
    auto it = decode_cost.find(pos);
    if (it == decode_cost.end()) {
      it = decode_cost.emplace(pos, single_step_j(pos, 1)).first;
    }
    return it->second;
  };
  auto chunk_j = [&](std::size_t rows) {
    auto it = chunk_cost.find(rows);
    if (it == chunk_cost.end()) {
      it = chunk_cost.emplace(rows, single_step_j(0, rows)).first;
    }
    return it->second;
  };

  for (const TraceStep& ts : trace.steps) {
    const StepComposition comp = ts.composition();
    // A step that fed no rows costs nothing: simulate_step returns zeros.
    const StepReport sr = simulate_step(dev, model, comp);
    ReplayStepSummary summary;
    summary.step = ts.step;
    summary.rows = comp.total_rows();
    summary.latency_s = sr.totals.latency_s;
    summary.energy_j = sr.totals.total_j();
    summary.dram_bytes = sr.dram_bytes;
    summary.dram_bound = sr.dram_bound;
    report.latency_s += sr.totals.latency_s;
    report.energy_j += sr.totals.total_j();
    report.core_energy_j += sr.totals.core_energy_j;
    report.mem_access_j += sr.totals.mem_access_j;
    report.weight_leak_j += sr.totals.weight_leak_j;
    report.act_leak_j += sr.totals.act_leak_j;
    report.dram_bytes += sr.dram_bytes;
    report.total_macs += sr.totals.total_macs;
    if (sr.dram_bound) ++report.dram_bound_steps;

    // sr.seqs follows comp.seqs: the passes that fed rows, in pass order.
    std::size_t fed = 0;
    for (const TracePass& pass : ts.passes) {
      ReplayRequestReport& r = request_of(pass.request);
      if (pass.kind == TraceEventKind::kPrefixHit) {
        // Decodes SKIPPED thanks to the cache: credit the hypothetical
        // cost of prefilling the restored rows as one chunk.
        const double saved = chunk_j(pass.rows);
        r.prefix_rows_restored += pass.rows;
        r.prefix_saved_j += saved;
        report.prefix_rows_restored += pass.rows;
        report.prefix_saved_j += saved;
        continue;
      }
      const SeqStepCost& cost = sr.seqs[fed++];
      r.rows_fed += pass.rows;
      report.rows_fed += pass.rows;
      report.kv_bytes_written += pass.kv_bytes;
      r.tokens_generated += pass.generated;
      report.tokens_generated += pass.generated;
      r.latency_s += cost.latency_s;
      r.energy_j += cost.energy_j;
      r.dram_bytes += cost.dram_bytes;
      if (pass.kind == TraceEventKind::kSpecBurst) {
        // What the burst's generated tokens (one per kept row) would have
        // cost as plain decodes, minus what the verify burst actually cost
        // this request.
        double as_decodes = 0.0;
        for (std::size_t k = 0; k < pass.generated; ++k) {
          as_decodes += decode_j(pass.pos + k);
        }
        const double saved = as_decodes - cost.energy_j;
        r.spec_saved_j += saved;
        report.spec_saved_j += saved;
      }
    }
    ++report.n_steps;
    report.steps.push_back(summary);
  }

  report.requests.reserve(requests.size());
  for (auto& [id, r] : requests) report.requests.push_back(std::move(r));
  return report;
}

std::string ReplayReport::to_json() const {
  std::ostringstream out;
  out << "{\n \"device\": \"" << device << "\",\n"
      << " \"n_steps\": " << n_steps << ", \"rows_fed\": " << rows_fed
      << ", \"tokens_generated\": " << tokens_generated
      << ", \"prefix_rows_restored\": " << prefix_rows_restored << ",\n"
      << " \"kv_bytes_written\": " << kv_bytes_written
      << ", \"dropped_steps\": " << dropped_steps << ",\n"
      << " \"latency_s\": " << fmt(latency_s)
      << ", \"energy_j\": " << fmt(energy_j)
      << ", \"energy_per_token_j\": " << fmt(energy_per_token_j()) << ",\n"
      << " \"dram_bytes\": " << fmt(dram_bytes)
      << ", \"dram_bound_steps\": " << dram_bound_steps << ",\n"
      << " \"core_area_mm2\": " << fmt(core_area_mm2)
      << ", \"total_macs\": " << total_macs
      << ", \"tops_per_watt\": " << fmt(tops_per_watt()) << ",\n"
      << " \"energy_breakdown\": {\"core_j\": " << fmt(core_energy_j)
      << ", \"mem_access_j\": " << fmt(mem_access_j)
      << ", \"weight_leak_j\": " << fmt(weight_leak_j)
      << ", \"act_leak_j\": " << fmt(act_leak_j) << "},\n"
      << " \"saved\": {\"prefix_j\": " << fmt(prefix_saved_j)
      << ", \"spec_j\": " << fmt(spec_saved_j) << "},\n"
      << " \"per_step\": [";
  bool first = true;
  for (const ReplayStepSummary& s : steps) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"step\": " << s.step << ", \"rows\": " << s.rows
        << ", \"latency_s\": " << fmt(s.latency_s)
        << ", \"energy_j\": " << fmt(s.energy_j)
        << ", \"dram_bytes\": " << fmt(s.dram_bytes) << ", \"dram_bound\": "
        << (s.dram_bound ? "true" : "false") << "}";
  }
  out << "\n ],\n \"per_request\": [";
  first = true;
  for (const ReplayRequestReport& r : requests) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"request\": " << r.request
        << ", \"rows_fed\": " << r.rows_fed
        << ", \"tokens_generated\": " << r.tokens_generated
        << ", \"prefix_rows_restored\": " << r.prefix_rows_restored
        << ", \"latency_s\": " << fmt(r.latency_s)
        << ", \"energy_j\": " << fmt(r.energy_j)
        << ", \"dram_bytes\": " << fmt(r.dram_bytes)
        << ", \"prefix_saved_j\": " << fmt(r.prefix_saved_j)
        << ", \"spec_saved_j\": " << fmt(r.spec_saved_j) << "}";
  }
  out << "\n ]\n}\n";
  return out.str();
}

void ReplayReport::export_metrics(MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.counter(prefix + ".steps").add(n_steps);
  registry.counter(prefix + ".rows_fed").add(rows_fed);
  registry.counter(prefix + ".tokens_generated").add(tokens_generated);
  registry.counter(prefix + ".dram_bound_steps").add(dram_bound_steps);
  registry.counter(prefix + ".dropped_steps").add(dropped_steps);
  registry.counter(prefix + ".total_macs").add(total_macs);
  registry.gauge(prefix + ".latency_s").set(latency_s);
  registry.gauge(prefix + ".core_area_mm2").set(core_area_mm2);
  registry.gauge(prefix + ".tops_per_watt").set(tops_per_watt());
  registry.gauge(prefix + ".energy_j").set(energy_j);
  registry.gauge(prefix + ".energy_per_token_j").set(energy_per_token_j());
  registry.gauge(prefix + ".dram_bytes").set(dram_bytes);
  registry.gauge(prefix + ".prefix_saved_j").set(prefix_saved_j);
  registry.gauge(prefix + ".spec_saved_j").set(spec_saved_j);
}

}  // namespace opal
