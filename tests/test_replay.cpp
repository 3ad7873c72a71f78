// Hardware-in-the-loop replay invariants: a lone pass owns its whole step,
// batching amortizes weight streaming, per-sequence attribution sums to the
// step totals, replay is deterministic and conserves the trace's row/KV
// accounting, the v4 JSON round-trips to the in-process replay, replay's
// generated-token count balances against the engine's under any schedule,
// and malformed traces are rejected with useful errors.
#include "accel/replay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/device.h"
#include "common/json.h"
#include "common/rng.h"
#include "eval/schemes.h"
#include "llm/kv_block_pool.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

ModelConfig tiny_config() { return scaled_for_eval(llama2_7b(), 128, 2, 64); }

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(tiny_config(), 42);
  return model;
}

std::shared_ptr<const PreparedModel> prepared() {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  cfg.kv_block_size = 8;
  cfg.kv_mode = KvQuantMode::kInt8;
  return std::make_shared<const PreparedModel>(tiny_model(), cfg);
}

std::vector<Request> workload() {
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 8; ++i) prefix.push_back((i * 11 + 5) % 64);
  std::vector<Request> requests;
  const std::size_t tails[4] = {3, 50, 17, 61};
  const std::size_t gens[4] = {6, 9, 4, 12};
  for (std::size_t r = 0; r < 4; ++r) {
    Request req;
    req.prompt = prefix;
    req.prompt.push_back(tails[r]);
    req.max_new_tokens = gens[r];
    requests.push_back(std::move(req));
  }
  return requests;
}

std::vector<DeviceConfig> all_devices() {
  return {make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)};
}

// --- simulate_step -----------------------------------------------------

TEST(SimulateStep, SinglePassOwnsEverything) {
  const ModelConfig model = tiny_config();
  for (const DeviceConfig& dev : all_devices()) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{5}}) {
      StepComposition one;
      one.seqs.push_back({1, 17, rows});
      const StepReport step = simulate_step(dev, model, one);
      ASSERT_EQ(step.seqs.size(), 1u);
      // Every shared op splits at share rows/rows == 1, so the lone pass
      // carries the whole step up to rounding in the per-op sums.
      EXPECT_NEAR(step.seqs[0].energy_j, step.totals.total_j(),
                  1e-12 * step.totals.total_j())
          << dev.name;
      EXPECT_NEAR(step.seqs[0].latency_s, step.totals.latency_s,
                  1e-12 * step.totals.latency_s)
          << dev.name;
      EXPECT_NEAR(step.seqs[0].dram_bytes, step.dram_bytes,
                  1e-12 * step.dram_bytes)
          << dev.name;
    }
  }
}

TEST(SimulateStep, BatchingAmortizesWeightStreaming) {
  const ModelConfig model = tiny_config();
  for (const DeviceConfig& dev : all_devices()) {
    StepComposition single;
    single.seqs.push_back({1, 30, 1});
    const StepReport one = simulate_step(dev, model, single);
    StepComposition batch;
    batch.seqs.push_back({1, 30, 1});
    batch.seqs.push_back({2, 30, 1});
    const StepReport two = simulate_step(dev, model, batch);
    // Weights stream once for the whole batch: two decodes in one step
    // move strictly less DRAM and finish strictly faster than two steps.
    EXPECT_LT(two.dram_bytes, 2.0 * one.dram_bytes) << dev.name;
    EXPECT_LT(two.totals.latency_s, 2.0 * one.totals.latency_s) << dev.name;
    EXPECT_LT(two.totals.total_j(), 2.0 * one.totals.total_j()) << dev.name;
    // But the batch cannot be cheaper than one decode alone.
    EXPECT_GT(two.totals.total_j(), one.totals.total_j()) << dev.name;
  }
}

TEST(SimulateStep, AttributionSumsToStepTotals) {
  const ModelConfig model = tiny_config();
  StepComposition mixed;
  mixed.seqs.push_back({1, 0, 8});   // prefill chunk
  mixed.seqs.push_back({2, 20, 1});  // decode
  mixed.seqs.push_back({3, 10, 3});  // spec-verify burst
  for (const DeviceConfig& dev : all_devices()) {
    const StepReport step = simulate_step(dev, model, mixed);
    ASSERT_EQ(step.seqs.size(), 3u);
    double energy = 0.0, latency = 0.0, dram = 0.0;
    for (const SeqStepCost& c : step.seqs) {
      EXPECT_GT(c.energy_j, 0.0) << dev.name;
      energy += c.energy_j;
      latency += c.latency_s;
      dram += c.dram_bytes;
    }
    EXPECT_NEAR(energy, step.totals.total_j(), 1e-9 * step.totals.total_j())
        << dev.name;
    EXPECT_NEAR(latency, step.totals.latency_s,
                1e-9 * step.totals.latency_s)
        << dev.name;
    EXPECT_NEAR(dram, step.dram_bytes, 1e-9 * step.dram_bytes) << dev.name;
    // The chunk feeds 8 of 12 rows and must carry the largest share.
    EXPECT_GT(step.seqs[0].energy_j, step.seqs[1].energy_j) << dev.name;
    EXPECT_GT(step.seqs[0].energy_j, step.seqs[2].energy_j) << dev.name;
  }
}

TEST(SimulateStep, EmptyCompositionCostsNothing) {
  const StepReport r =
      simulate_step(make_opal_device(4, 7, 4), tiny_config(), {});
  EXPECT_EQ(r.totals.latency_s, 0.0);
  EXPECT_EQ(r.totals.total_j(), 0.0);
  EXPECT_EQ(r.dram_bytes, 0.0);
  EXPECT_TRUE(r.seqs.empty());
}

// --- replay from a live engine ----------------------------------------

struct TracedRun {
  StepTrace trace;
  ServingEngine::Stats stats;
  std::string trace_json;
};

TracedRun traced_run(ServingConfig cfg) {
  cfg.trace = true;
  ServingEngine engine(prepared(), cfg);
  for (const auto& req : workload()) engine.submit(req);
  engine.run();
  TracedRun out;
  out.trace = step_trace_from_tracer(engine.tracer());
  out.stats = engine.stats();
  out.trace_json = out.trace.to_json();
  return out;
}

ServingConfig stressed_config() {
  ServingConfig cfg;
  cfg.max_batch = 3;
  cfg.prefill_chunk_tokens = 4;
  cfg.enable_prefix_cache = true;
  return cfg;
}

TEST(Replay, DeterministicAndConserving) {
  const TracedRun run = traced_run(stressed_config());
  ASSERT_EQ(run.trace.dropped_steps, 0u);
  const DeviceConfig dev = make_opal_device(4, 7, 4);
  const ReplayReport a = replay_trace(dev, run.trace);
  const ReplayReport b = replay_trace(dev, run.trace);
  // Same trace, same device: bitwise-identical reports and JSON.
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.latency_s, b.latency_s);

  // Conservation: every executed row of the run is replayed exactly once.
  EXPECT_EQ(a.rows_fed, run.stats.tokens_decoded);
  // Engine-side KV accounting survives the trace round trip: each fed row
  // writes K and V across every layer at the mode's width.
  const ModelConfig m = tiny_config();
  const std::size_t kv_row_bytes =
      2 * m.n_layers * m.d_model * kv_bits_per_entry(KvQuantMode::kInt8) / 8;
  EXPECT_EQ(a.kv_bytes_written, a.rows_fed * kv_row_bytes);
  // Prefix-cache restores are attributed as saved energy, not replayed.
  EXPECT_EQ(a.prefix_rows_restored, run.stats.prefix_hit_tokens);
  if (run.stats.prefix_hit_tokens > 0) {
    EXPECT_GT(a.prefix_saved_j, 0.0);
  }
  // Per-request attribution covers every fed row and sums to the totals.
  std::size_t rows = 0;
  double energy = 0.0;
  for (const ReplayRequestReport& r : a.requests) {
    rows += r.rows_fed;
    energy += r.energy_j;
  }
  EXPECT_EQ(rows, a.rows_fed);
  EXPECT_NEAR(energy, a.energy_j, 1e-9 * a.energy_j);
  EXPECT_GT(a.n_steps, 0u);
  EXPECT_GT(a.energy_per_token_j(), 0.0);
}

TEST(Replay, FileRoundTripEqualsInProcessReplay) {
  const TracedRun run = traced_run(stressed_config());
  const StepTrace parsed = parse_step_trace(run.trace_json);
  EXPECT_EQ(parsed.steps.size(), run.trace.steps.size());
  EXPECT_EQ(parsed.info.d_model, run.trace.info.d_model);
  EXPECT_EQ(parsed.info.kv_mode, run.trace.info.kv_mode);
  for (const DeviceConfig& dev : all_devices()) {
    const ReplayReport from_file = replay_trace(dev, parsed);
    const ReplayReport in_process = replay_trace(dev, run.trace);
    EXPECT_EQ(from_file.to_json(), in_process.to_json()) << dev.name;
  }
}

TEST(Replay, StepTraceJsonRoundTripsEveryField) {
  ServingConfig spec;
  spec.max_batch = 2;
  spec.speculative.policy = DraftPolicy::kRepeat;
  spec.speculative.draft_tokens = 3;
  for (const ServingConfig& cfg : {stressed_config(), spec}) {
    const TracedRun run = traced_run(cfg);
    ASSERT_FALSE(run.trace.steps.empty());
    const StepTrace parsed = parse_step_trace(run.trace_json);
    EXPECT_TRUE(parsed == run.trace);
    EXPECT_EQ(parsed.to_json(), run.trace_json);
  }
}

TEST(Replay, SpeculativeBurstsAttributeSavedEnergy) {
  ServingConfig cfg;
  cfg.max_batch = 2;
  cfg.speculative.policy = DraftPolicy::kRepeat;
  cfg.speculative.draft_tokens = 3;
  const TracedRun run = traced_run(cfg);
  ASSERT_GT(run.stats.spec_bursts, 0u);
  const ReplayReport rep = replay_trace(make_opal_device(4, 7, 4), run.trace);
  EXPECT_EQ(rep.rows_fed, run.stats.tokens_decoded);
  // Generated = one per frontier sample + verify-survivor rows; rejected
  // rows were fed (rows_fed) but never generated anything.
  EXPECT_GT(rep.tokens_generated, 0u);
  EXPECT_LE(rep.tokens_generated, rep.rows_fed);
  // At least one burst exists, so the spec-saved term was computed (its
  // sign depends on acceptance; it only must be attributed somewhere).
  double spec_saved = 0.0;
  for (const ReplayRequestReport& r : rep.requests) {
    spec_saved += r.spec_saved_j;
  }
  EXPECT_NEAR(spec_saved, rep.spec_saved_j, 1e-12 + 1e-9 * std::abs(rep.spec_saved_j));
}

TEST(Replay, OpalDeviceBeatsBf16EnergyPerToken) {
  const TracedRun run = traced_run(stressed_config());
  const ReplayReport bf16 = replay_trace(make_bf16_device(), run.trace);
  const ReplayReport opal = replay_trace(make_opal_device(4, 7, 4), run.trace);
  ASSERT_GT(bf16.tokens_generated, 0u);
  EXPECT_EQ(bf16.tokens_generated, opal.tokens_generated);
  // The paper's headline, now measured on a replayed serving run.
  EXPECT_LT(opal.energy_per_token_j(), bf16.energy_per_token_j());
  EXPECT_LT(opal.dram_bytes, bf16.dram_bytes);
}

// --- generated-token balance ------------------------------------------

struct BalanceRun {
  StepTrace trace;
  ServingEngine::Stats stats;
  std::size_t generated = 0;  // sum of RequestResult::generated()
};

// Serves workload() with two priority classes. When `preempt` is set, the
// first running request with two generated tokens is fully preempted, so
// its readmission replays those tokens as known rows.
BalanceRun balance_run(std::shared_ptr<Scheduler> policy, bool preempt) {
  ServingConfig cfg;
  cfg.max_batch = 3;
  cfg.prefill_chunk_tokens = 4;
  cfg.scheduler = std::move(policy);
  cfg.trace = true;
  ServingEngine engine(prepared(), cfg);
  std::vector<RequestId> ids;
  std::vector<Request> requests = workload();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    requests[r].priority = r % 2 == 0 ? 1 : 0;
    ids.push_back(engine.submit(requests[r]));
  }
  while (preempt && engine.step() > 0) {
    for (const RequestId id : ids) {
      const RequestResult res = engine.result(id);
      if (res.status == RequestStatus::kRunning && res.generated() >= 2) {
        engine.preempt(id);
        preempt = false;
        break;
      }
    }
  }
  engine.run();
  BalanceRun out;
  out.trace = step_trace_from_tracer(engine.tracer());
  out.stats = engine.stats();
  for (const RequestId id : ids) out.generated += engine.result(id).generated();
  return out;
}

TEST(Replay, GeneratedTokensBalanceAcrossSchedules) {
  const BalanceRun fifo =
      balance_run(std::make_shared<FifoScheduler>(), /*preempt=*/false);
  const BalanceRun prio =
      balance_run(std::make_shared<PriorityScheduler>(), /*preempt=*/true);
  ASSERT_EQ(prio.trace.dropped_steps, 0u);
  ASSERT_GE(prio.stats.preemptions, 1u);
  // The priority run feeds one-row prompt or replay passes — the low class
  // trickles at one token per step — and those generate nothing.
  bool one_row_chunk = false;
  for (const TraceStep& step : prio.trace.steps) {
    for (const TracePass& pass : step.passes) {
      if (pass.kind == TraceEventKind::kChunk && pass.rows == 1) {
        one_row_chunk = true;
      }
    }
  }
  EXPECT_TRUE(one_row_chunk);
  const DeviceConfig dev = make_opal_device(4, 7, 4);
  const ReplayReport fifo_rep = replay_trace(dev, fifo.trace);
  const ReplayReport prio_rep = replay_trace(dev, prio.trace);
  ASSERT_GT(fifo.generated, 0u);
  EXPECT_EQ(fifo_rep.tokens_generated, fifo.generated);
  EXPECT_EQ(prio_rep.tokens_generated, prio.generated);
  EXPECT_EQ(prio_rep.tokens_generated, fifo_rep.tokens_generated);
  // Per-request attribution balances too.
  std::size_t per_request = 0;
  for (const ReplayRequestReport& r : prio_rep.requests) {
    per_request += r.tokens_generated;
  }
  EXPECT_EQ(per_request, prio_rep.tokens_generated);
}

// --- malformed traces --------------------------------------------------

TEST(Replay, MalformedTracesRejectedWithUsefulErrors) {
  // Not JSON at all: the parser names the position.
  try {
    (void)parse_step_trace("{\"schema\": ");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  // Wrong schema: the error names what was found and what is supported.
  try {
    (void)parse_step_trace("{\"schema\": \"opal.step_trace/v1\"}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("opal.step_trace/v1"), std::string::npos);
    EXPECT_NE(what.find("opal.step_trace/v4"), std::string::npos);
  }
  // Missing keys are named.
  try {
    (void)parse_step_trace("{\"schema\": \"opal.step_trace/v4\"}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("model"), std::string::npos);
  }
  // A well-formed one-step trace around one pass, with `step` as the step
  // counter's literal.
  const auto one_step = [](const std::string& step, const std::string& pass) {
    return "{\"schema\": \"opal.step_trace/v4\","
           " \"model\": {\"n_layers\": 2, \"d_model\": 128, \"n_heads\": 4,"
           " \"d_ffn\": 344, \"vocab\": 64},"
           " \"kv\": {\"mode\": \"int8\", \"block_size\": 8,"
           " \"bits_per_entry\": 8, \"max_seq_len\": 32},"
           " \"dropped_steps\": 0, \"truncated_events\": 0,"
           " \"steps\": [{\"step\": " +
           step +
           ", \"dur_us\": 5, \"batch\": 1, \"rows\": 4,"
           " \"blocks_in_use\": 2, \"blocks_free\": 6, \"seqs\": [" +
           pass + "]}]}";
  };
  const auto burst = [](const std::string& request,
                        const std::string& generated) {
    return "{\"request\": " + request +
           ", \"kind\": \"spec_burst\", \"pos\": 9, \"rows\": 4,"
           " \"kv_bytes\": 0, \"dur_us\": 3, \"generated\": " +
           generated + "}";
  };
  const auto expect_rejected = [](const std::string& json,
                                  const std::string& names) {
    try {
      (void)parse_step_trace(json);
      ADD_FAILURE() << "expected std::invalid_argument naming " << names;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
          << e.what();
    }
  };
  // The template itself is valid and replays.
  const StepTrace good = parse_step_trace(one_step("1", burst("1", "2")));
  ASSERT_EQ(good.steps.size(), 1u);
  EXPECT_EQ(good.steps[0].passes[0].generated, 2u);
  EXPECT_EQ(replay_trace(make_bf16_device(), good).tokens_generated, 2u);
  // The v3 layout (no kv.max_seq_len) is refused by name, and the error
  // points at the supported version.
  std::string v3 = one_step("1", burst("1", "2"));
  v3.replace(v3.find("/v4"), 3, "/v3");
  expect_rejected(v3, "opal.step_trace/v4");
  // No pass reaches past the KV a sequence holds: the 4-row burst at pos 9
  // fits a max_seq_len of 13, not 12, nor a pos of 2^53 (which replayed at
  // ~4e8 J before the bound); a prefix hit restores at most max_seq_len.
  const auto with_max_seq_len = [&](const std::string& max_seq_len,
                                    const std::string& pass) {
    std::string json = one_step("1", pass);
    json.replace(json.find("\"max_seq_len\": 32"), 17,
                 "\"max_seq_len\": " + max_seq_len);
    return json;
  };
  EXPECT_NO_THROW((void)parse_step_trace(
      with_max_seq_len("13", burst("1", "2"))));
  expect_rejected(with_max_seq_len("12", burst("1", "2")), "kv.max_seq_len");
  std::string far_burst = burst("1", "2");
  far_burst.replace(far_burst.find("\"pos\": 9"), 8,
                    "\"pos\": 9007199254740992");
  expect_rejected(one_step("1", far_burst), "seqs[].pos");
  const std::string hit =
      "{\"request\": 1, \"kind\": \"prefix_hit\", \"pos\": 0,"
      " \"rows\": 33, \"kv_bytes\": 0, \"dur_us\": 0}";
  expect_rejected(one_step("1", hit), "kv.max_seq_len");
  const auto decode_at = [](const std::string& pos) {
    return "{\"request\": 1, \"kind\": \"decode\", \"pos\": " + pos +
           ", \"rows\": 1, \"kv_bytes\": 0, \"dur_us\": 3, \"generated\": 1}";
  };
  EXPECT_NO_THROW((void)parse_step_trace(one_step("1", decode_at("31"))));
  expect_rejected(one_step("1", decode_at("32")), "kv.max_seq_len");
  std::string no_max = one_step("1", burst("1", "2"));
  no_max.replace(no_max.find(", \"max_seq_len\": 32"), 19, "");
  expect_rejected(no_max, "max_seq_len");
  // kv.mode is one of the engine's names: to_json writes it unescaped, so
  // an escape in it would not survive a round trip.
  std::string odd_mode = one_step("1", burst("1", "2"));
  odd_mode.replace(odd_mode.find("int8"), 4, "in\\t8");
  expect_rejected(odd_mode, "kv.mode");
  // A zero block size has no KV DRAM granularity to replay at; the engine
  // always writes its own, nonzero one.
  std::string no_block = one_step("1", burst("1", "2"));
  no_block.replace(no_block.find("\"block_size\": 8"), 15,
                   "\"block_size\": 0");
  expect_rejected(no_block, "kv.block_size");
  // Nor a block longer than a sequence: the engine refuses that layout.
  const auto with_block_size = [&](const std::string& block_size) {
    std::string json = one_step("1", burst("1", "2"));
    json.replace(json.find("\"block_size\": 8"), 15,
                 "\"block_size\": " + block_size);
    return json;
  };
  EXPECT_NO_THROW((void)parse_step_trace(with_block_size("32")));
  expect_rejected(with_block_size("33"), "kv.block_size");
  StepTrace no_block_trace = good;
  no_block_trace.info.kv_block_size = 0;
  EXPECT_THROW((void)no_block_trace.model(), std::invalid_argument);
  // Unknown pass kinds are named.
  expect_rejected(
      one_step("1",
               "{\"request\": 1, \"kind\": \"warp\", \"pos\": 0,"
               " \"rows\": 1, \"kv_bytes\": 0, \"dur_us\": 0}"),
      "warp");
  // Integers a double cannot hold exactly — an overflowing literal parses
  // to inf, 1e20 is above 2^64 — are refused, not cast.
  expect_rejected(one_step("1e400", burst("1", "2")), "steps[].step");
  expect_rejected(one_step("1", burst("1e20", "2")), "seqs[].request");
  // A verify burst generates between 1 and rows tokens; replay would price
  // a huge count one decode at a time.
  expect_rejected(one_step("1", burst("1", "1e12")), "seqs[].generated");
  expect_rejected(one_step("1", burst("1", "5")), "seqs[].generated");
  expect_rejected(one_step("1", burst("1", "0")), "seqs[].generated");
  // A plain pass samples at most once, from its final row; every pass but
  // a prefix hit must carry the count.
  const std::string decode_pass =
      "{\"request\": 1, \"kind\": \"decode\", \"pos\": 9, \"rows\": 1,"
      " \"kv_bytes\": 0, \"dur_us\": 3";
  expect_rejected(one_step("1", decode_pass + ", \"generated\": 2}"),
                  "seqs[].generated");
  expect_rejected(one_step("1", decode_pass + "}"), "generated");
  EXPECT_EQ(parse_step_trace(one_step("1", decode_pass + ", \"generated\": 1}"))
                .steps[0]
                .passes[0]
                .generated,
            1u);
  // A trace without self-description parses but refuses to replay.
  Tracer bare(true, 8);
  bare.emit({.kind = TraceEventKind::kStep, .step = 1});
  const StepTrace trace = step_trace_from_tracer(bare);
  EXPECT_THROW((void)replay_trace(make_bf16_device(), trace),
               std::invalid_argument);
}

// --- fuzzing the step-trace reader --------------------------------------

/// `depth` nested arrays or objects, closed when `close` is set.
std::string nested(std::size_t depth, bool objects, bool close) {
  std::string out;
  for (std::size_t i = 0; i < depth; ++i) out += objects ? "{\"a\": " : "[";
  if (close) {
    out += "0";
    out += std::string(depth, objects ? '}' : ']');
  }
  return out;
}

TEST(StepTraceFuzz, DeepNestingThrowsInsteadOfExhaustingTheStack) {
  EXPECT_THROW((void)parse_json(std::string(100000, '[')),
               std::invalid_argument);
  for (const bool objects : {false, true}) {
    EXPECT_THROW((void)parse_json(nested(100000, objects, true)),
                 std::invalid_argument);
    EXPECT_THROW((void)parse_step_trace(nested(100000, objects, false)),
                 std::invalid_argument);
    // The limit itself still parses; one level more does not.
    EXPECT_NO_THROW((void)parse_json(nested(kJsonMaxDepth, objects, true)));
    EXPECT_THROW((void)parse_json(nested(kJsonMaxDepth + 1, objects, true)),
                 std::invalid_argument);
  }
}

/// One random edit of `text`: truncate; overwrite, insert or delete bytes;
/// change or add a digit next to a digit (the edit most likely to keep a
/// trace valid); insert an escape after a quote; or splice in nesting
/// (sometimes deeper than kJsonMaxDepth, sometimes left unclosed).
void mutate_once(std::string& text, Rng& rng) {
  static const std::string kBytes =
      std::string("{}[]\",:\\-+.0123456789eE tfnul\n\x7f\xff") +
      std::string(1, '\0');
  static const char* const kEscapes[] = {"\\t", "\\\"", "\\u0041",
                                         "\\n", "\\/"};
  const auto below = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const auto any_byte = [&] {
    return rng() % 2 == 0 ? kBytes[below(kBytes.size())]
                          : static_cast<char>(rng() & 0xFF);
  };
  const auto digit = [&] { return static_cast<char>('0' + below(10)); };
  const std::size_t at = below(text.size() + 1);
  switch (rng() % 7) {
    case 0:
      text.resize(at);
      break;
    case 1:
      if (at < text.size()) text[at] = any_byte();
      break;
    case 2:
      for (std::size_t n = 1 + below(3); n > 0; --n) {
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    any_byte());
      }
      break;
    case 3:
      text.erase(at, 1 + below(8));
      break;
    case 4: {
      const std::size_t d = text.find_first_of("0123456789", at);
      if (d == std::string::npos) break;
      if (rng() % 2 == 0) {
        text[d] = digit();
      } else {
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(d), digit());
      }
      break;
    }
    case 5: {
      // Just inside a string, where an escape stays valid JSON.
      const std::size_t q = text.find('"', at);
      if (q != std::string::npos) {
        text.insert(q + 1, kEscapes[below(std::size(kEscapes))]);
      }
      break;
    }
    default: {
      const std::size_t depth = 1 + below(2 * kJsonMaxDepth);
      const bool objects = rng() % 2 == 0;
      text.insert(at, nested(depth, objects, rng() % 2 == 0));
      break;
    }
  }
}

TEST(StepTraceFuzz, MutantsAreRejectedOrRoundTrip) {
  // A real v4 trace holding every pass kind: chunked prefill, decodes,
  // speculative bursts and prefix-cache hits. Mutants are cut from its
  // first 12 steps and from its first step alone, where the header's
  // fields draw a larger share of the edits.
  ServingConfig cfg = stressed_config();
  cfg.speculative.policy = DraftPolicy::kRepeat;
  cfg.speculative.draft_tokens = 3;
  const StepTrace run = traced_run(cfg).trace;
  ASSERT_GE(run.steps.size(), 12u);

  std::size_t rejected = 0, parsed = 0;
  for (const std::size_t n_steps : {12u, 1u}) {
    StepTrace base = run;
    base.steps.resize(n_steps);
    const std::string text = base.to_json();
    ASSERT_TRUE(parse_step_trace(text) == base);
    for (std::uint64_t seed = 0; seed < 1500; ++seed) {
      Rng rng = make_rng(seed);
      std::string mutant = text;
      for (std::uint64_t n = 1 + rng() % 3; n > 0; --n) {
        mutate_once(mutant, rng);
      }
      StepTrace t;
      try {
        t = parse_step_trace(mutant);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++parsed;
      bool round_trips = false;
      try {
        round_trips = parse_step_trace(t.to_json()) == t;
      } catch (const std::invalid_argument& e) {
        ADD_FAILURE() << n_steps << " steps, seed " << seed
                      << ": re-parse threw " << e.what();
      }
      EXPECT_TRUE(round_trips) << n_steps << " steps, seed " << seed;
    }
  }
  // Both outcomes occur, so the mutations reach past the first byte.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);
}

TEST(Replay, DroppedStepsSurfaceInTheReport) {
  ServingConfig cfg = stressed_config();
  cfg.trace_capacity = 8;  // far too small: the ring must overwrite
  const TracedRun run = traced_run(cfg);
  EXPECT_GT(run.trace.dropped_steps, 0u);
  const ReplayReport rep = replay_trace(make_bf16_device(), run.trace);
  EXPECT_EQ(rep.dropped_steps, run.trace.dropped_steps);
  // The surviving steps still replay, but conservation no longer holds.
  EXPECT_LT(rep.rows_fed, run.stats.tokens_decoded);
}

TEST(Replay, MetricsExportUsesTheNamingScheme) {
  const TracedRun run = traced_run(stressed_config());
  const ReplayReport rep = replay_trace(make_opal_device(4, 7, 4), run.trace);
  MetricsRegistry reg;
  rep.export_metrics(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("hw_replay.rows_fed"), rep.rows_fed);
  EXPECT_EQ(snap.counter_value("hw_replay.steps"), rep.n_steps);
  const auto* energy = snap.find_gauge("hw_replay.energy_per_token_j");
  ASSERT_NE(energy, nullptr);
  EXPECT_EQ(energy->value, rep.energy_per_token_j());
  // And the Prometheus exposition renders them.
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("hw_replay_rows_fed_total"), std::string::npos);
  EXPECT_NE(text.find("hw_replay_energy_per_token_j"), std::string::npos);
}

}  // namespace
}  // namespace opal
