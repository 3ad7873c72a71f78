// Batched serving demo on the paged KV cache with prefix caching and a
// priority scheduler over chunked prefill: one shared PreparedModel
// (quantized once), a ServingEngine whose block pool is deliberately sized
// to ~1/4 of the full-length footprint, and more requests than batch slots
// — all sharing a 16-token system prefix, half of them marked interactive
// (priority 1) and half batch (priority 0). Prompts prefill in 8-token
// chunks (bitwise identical to token-by-token; see scheduler.h), the
// scheduler admits the interactive class first and preempts the batch
// class first under pool pressure. The same request set is served twice
// through one engine: round 1 runs cold and populates the radix prefix
// index as sequences retire; round 2 finds its prompts' block-aligned
// prefixes already cached and skips that prefill entirely. Under pool
// pressure the engine reclaims unreferenced cache entries first; every
// result in both rounds is checked bitwise against an fp32
// single-sequence decode — scheduling policy and chunking change latency
// ordering only, never tokens.
//
//   quantize once -> 6 shared-prefix requests (2 priority classes)
//   -> 4 slots, 1/4 memory, chunked prefill -> round 1 (cold)
//   -> round 2 (warm prefix cache) -> verify both
//   -> sampled round (seeded, streamed) -> traced round (ServingConfig::
//      trace, balanced event stream, Chrome trace written next to the
//      executable as serve_batch_trace.json, results unchanged)
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace {

void print_stats(const char* when, const opal::ServingEngine& engine) {
  const auto s = engine.stats();
  std::printf("  [%s] blocks %zu used / %zu free (peak %zu, reclaimable "
              "%zu), %zu running, %zu queued, %zu preemptions, %zu "
              "evictions, %zu tokens decoded\n",
              when, s.blocks_in_use, s.blocks_free, s.blocks_peak,
              s.blocks_reclaimable, s.running, s.queued, s.preemptions,
              s.evictions, s.tokens_decoded);
  std::printf("  [%s] prefix cache: %zu hits / %zu misses, %zu prefill "
              "decodes skipped, %zu blocks cached, %zu reclaimed\n",
              when, s.prefix_hits, s.prefix_misses, s.prefix_hit_tokens,
              s.prefix_cached_blocks, s.prefix_reclaimed_blocks);
  for (const auto& [prio, p] : s.by_priority) {
    std::printf("  [%s] priority %d: %zu served tokens, mean queue-wait "
                "%.1f steps, mean ttft %.1f steps\n",
                when, prio, p.tokens_served,
                static_cast<double>(p.queue_wait_steps) /
                    static_cast<double>(p.first_decodes > 0 ? p.first_decodes
                                                            : 1),
                static_cast<double>(p.ttft_steps) /
                    static_cast<double>(p.first_tokens > 0 ? p.first_tokens
                                                           : 1));
  }
  std::printf("  [%s] finished by reason:", when);
  for (const auto& [reason, count] : s.finish_reasons) {
    std::printf(" %s=%zu", opal::to_string(reason).c_str(), count);
  }
  std::printf("\n");
}

/// Serves `requests`, drains the engine, and checks every result bitwise
/// against an fp32 single-sequence decode. Returns the mismatches.
std::size_t serve_round(
    opal::ServingEngine& engine,
    const std::shared_ptr<const opal::PreparedModel>& prepared,
    const std::vector<opal::Request>& requests, const char* label) {
  using namespace opal;
  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t steps = 0, decoded = 0;
  while (true) {
    const std::size_t n = engine.step();
    if (n == 0) break;
    decoded += n;
    ++steps;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double serve_s = std::chrono::duration<double>(t1 - t0).count();
  print_stats(label, engine);

  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < ids.size(); ++r) {
    const auto result = engine.result(ids[r]);
    InferenceEngine solo(prepared);
    std::vector<std::size_t> ref = requests[r].prompt;
    const std::size_t target = ref.size() + requests[r].max_new_tokens;
    std::size_t fed = 0;
    while (fed < ref.size()) {
      const auto logits = solo.step(ref[fed]);
      ++fed;
      if (fed == ref.size() && ref.size() < target) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < logits.size(); ++i) {
          if (logits[i] > logits[best]) best = i;
        }
        ref.push_back(best);
        if (ref.size() == target) break;
      }
    }
    if (ref != result.tokens) ++mismatches;
    engine.release(ids[r]);  // drop the harvested result immediately
  }
  std::printf("  [%s] %zu requests in %.2fs, %zu steps, %zu token-decodes, "
              "%.1f tokens/s, %zu baseline mismatches\n\n",
              label, ids.size(), serve_s, steps, decoded,
              static_cast<double>(decoded) / serve_s, mismatches);
  return mismatches;
}

}  // namespace

int main(int /*argc*/, char** argv) {
  using namespace opal;

  const auto cfg = scaled_for_eval(llama2_7b(), 128, 3, 256);
  SyntheticModel model(cfg, 7);
  calibrate_logit_scale(model, 24, 8);
  const auto calibration = calibrate_model(model, 48, 9);

  EngineConfig engine_cfg = scheme_mx_opal(4, 4, 7);
  engine_cfg.max_seq_len = 96;
  engine_cfg.kv_block_size = 8;

  const auto t_prep0 = std::chrono::steady_clock::now();
  auto prepared = std::make_shared<const PreparedModel>(model, engine_cfg,
                                                        &calibration);
  const auto t_prep1 = std::chrono::steady_clock::now();
  std::printf("PreparedModel: %s, %.1f%% fp weights, %zu KiB packed "
              "(quantized once, shared by every sequence; prepare %.2fs)\n",
              prepared->config().label().c_str(),
              100.0 * prepared->fp_weight_fraction(),
              prepared->weight_storage_bits() / 8 / 1024,
              std::chrono::duration<double>(t_prep1 - t_prep0).count());

  ServingConfig serving_cfg;
  serving_cfg.max_batch = 4;
  serving_cfg.n_threads = 2;
  serving_cfg.enable_prefix_cache = true;
  // Strict-priority scheduling over 8-token prefill chunks: interactive
  // requests admit first and keep full chunks; batch-class prompts trickle
  // while interactive work is in flight. Results stay bitwise identical to
  // the FIFO token-by-token schedule — only latency ordering moves.
  serving_cfg.scheduler = std::make_shared<PriorityScheduler>();
  serving_cfg.prefill_chunk_tokens = 8;
  // The full-length footprint would be max_batch max_seq_len sequences;
  // give the pool a quarter of that and let paging absorb the difference.
  const std::size_t full_blocks =
      serving_cfg.max_batch * prepared->kv_blocks_per_sequence();
  serving_cfg.kv_pool_blocks = full_blocks / 4;
  ServingEngine engine(prepared, serving_cfg);
  std::printf("KV pool: %zu blocks of %zu positions (%s entries, %zu KiB) "
              "— 1/4 of the %zu-block full-length footprint\n",
              engine.kv_pool().n_blocks(), engine.kv_pool().block_size(),
              to_string(engine.kv_pool().mode()).c_str(),
              engine.kv_pool().storage_bytes() / 1024, full_blocks);

  // A 16-token "system prompt" shared by every request (two full KV block
  // columns), followed by per-request tails.
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 16; ++i) prefix.push_back((i * 11 + 5) % 256);
  std::vector<Request> requests;
  const std::size_t tails[6][3] = {{11, 3, 52},  {200, 17, 9}, {5, 55, 5},
                                   {99, 98, 97}, {42, 120, 7}, {250, 251, 1}};
  const std::size_t gens[6] = {24, 32, 16, 28, 20, 24};
  for (std::size_t r = 0; r < 6; ++r) {
    Request req;
    req.prompt = prefix;
    req.prompt.insert(req.prompt.end(), std::begin(tails[r]),
                      std::end(tails[r]));
    req.max_new_tokens = gens[r];
    req.priority = r % 2;  // alternate batch (0) / interactive (1)
    requests.push_back(std::move(req));
  }
  std::printf("\n%zu requests share a %zu-token prefix; %zu batch slots, "
              "%zu decode threads, %s scheduler, %zu-token prefill chunks\n\n",
              requests.size(), prefix.size(), serving_cfg.max_batch,
              serving_cfg.n_threads, engine.scheduler().name().c_str(),
              serving_cfg.prefill_chunk_tokens);

  std::size_t mismatches = 0;
  mismatches += serve_round(engine, prepared, requests, "round 1 cold");
  const std::size_t cold_hits = engine.stats().prefix_hits;
  mismatches += serve_round(engine, prepared, requests, "round 2 warm");
  const std::size_t warm_hits = engine.stats().prefix_hits - cold_hits;
  const auto s = engine.stats();

  std::printf("round 2 warm prefix hits: %zu (of %zu requests), %zu prefill "
              "decodes skipped total; pool peak %zu blocks of %zu\n",
              warm_hits, requests.size(), s.prefix_hit_tokens,
              s.blocks_peak, engine.kv_pool().n_blocks());

  // Generation round: the same engine serves seeded nucleus sampling with
  // stop conditions. Identical (seed, params, prompt) must reproduce the
  // identical stream — submitted twice to prove it — and the streaming
  // token observer harvests tokens as they are produced.
  Request gen;
  gen.prompt = prefix;
  gen.max_new_tokens = 24;
  gen.priority = 1;
  gen.sampling.policy = SamplePolicy::kTopP;
  gen.sampling.temperature = 0.9f;
  gen.sampling.top_k = 32;
  gen.sampling.top_p = 0.9f;
  gen.sampling.seed = 2024;
  gen.sampling.stop_tokens = {17};
  std::vector<std::size_t> streamed_a;
  FinishReason streamed_reason = FinishReason::kNone;
  const RequestId gen_a = engine.submit(gen);
  engine.set_token_observer([&](RequestId id, std::size_t index,
                                std::size_t token, FinishReason reason) {
    if (id != gen_a) return;
    (void)index;
    streamed_a.push_back(token);
    if (reason != FinishReason::kNone) streamed_reason = reason;
  });
  const RequestId gen_b = engine.submit(gen);  // same seed, same stream
  engine.run();
  engine.set_token_observer(nullptr);
  const auto res_a = engine.result(gen_a);
  const auto res_b = engine.result(gen_b);
  std::printf("\nsampled round (%s, t=%.1f, k=%zu, p=%.1f, seed=%llu): %zu "
              "tokens streamed, finish reason %s\n",
              to_string(gen.sampling.policy).c_str(),
              static_cast<double>(gen.sampling.temperature),
              gen.sampling.top_k, static_cast<double>(gen.sampling.top_p),
              static_cast<unsigned long long>(gen.sampling.seed),
              streamed_a.size(), to_string(res_a.finish_reason).c_str());
  if (res_a.tokens != res_b.tokens ||
      res_a.finish_reason != res_b.finish_reason) {
    std::printf("ERROR: identical seeded requests diverged\n");
    return 1;
  }
  if (streamed_a != std::vector<std::size_t>(
                        res_a.tokens.begin() +
                            static_cast<std::ptrdiff_t>(res_a.prompt_len),
                        res_a.tokens.end()) ||
      streamed_reason != res_a.finish_reason) {
    std::printf("ERROR: streamed tokens diverged from the final result\n");
    return 1;
  }
  print_stats("sampled", engine);
  engine.release(gen_a);
  engine.release(gen_b);

  // Traced round: the same workload once more through a fresh engine with
  // ServingConfig::trace set. The event stream must be non-empty and
  // balanced (every submitted request retires in exactly one finish or
  // evict), the Chrome trace must land on disk, and the traced results must
  // stay bitwise identical to the single-sequence baseline — tracing
  // observes, never steers.
  {
    ServingConfig traced_cfg = serving_cfg;
    traced_cfg.trace = true;
    ServingEngine traced(prepared, traced_cfg);
    if (serve_round(traced, prepared, requests, "round 3 traced") != 0) {
      std::printf("ERROR: traced round diverged from the baseline\n");
      return 1;
    }
    const auto events = traced.tracer().events();
    std::size_t enqueues = 0, admits = 0, finishes = 0, evicts = 0,
                step_records = 0;
    for (const auto& ev : events) {
      switch (ev.kind) {
        case TraceEventKind::kEnqueue: ++enqueues; break;
        case TraceEventKind::kAdmit: ++admits; break;
        case TraceEventKind::kFinish: ++finishes; break;
        case TraceEventKind::kEvict: ++evicts; break;
        case TraceEventKind::kStep: ++step_records; break;
        default: break;
      }
    }
    if (events.empty() || step_records == 0 ||
        enqueues != requests.size() || finishes + evicts != enqueues ||
        admits < enqueues) {
      std::printf("ERROR: trace stream unbalanced: %zu events, %zu "
                  "enqueues, %zu admits, %zu finishes, %zu evicts, %zu "
                  "steps\n",
                  events.size(), enqueues, admits, finishes, evicts,
                  step_records);
      return 1;
    }
    // Beside the executable (the build directory), not the working one.
    const std::string trace_path =
        (std::filesystem::path(argv[0]).parent_path() /
         "serve_batch_trace.json")
            .string();
    std::ofstream out(trace_path);
    traced.tracer().write_chrome_trace(out);
    out.close();
    std::printf("\ntraced round: %zu events (%zu enqueued -> %zu admits -> "
                "%zu finished + %zu evicted over %zu step records), Chrome "
                "trace written to %s\n",
                events.size(), enqueues, admits, finishes, evicts,
                step_records, trace_path.c_str());
  }

  if (mismatches != 0) {
    std::printf("ERROR: %zu results diverged from the baseline\n",
                mismatches);
    return 1;
  }
  if (warm_hits == 0) {
    std::printf("ERROR: warm round served no request from the prefix "
                "cache\n");
    return 1;
  }
  std::printf("all %zu results (both rounds) bitwise identical to the "
              "single-sequence fp32 baseline\n", 2 * requests.size());
  return 0;
}
