// Scheduler TTFT bench: what each policy does to short-request
// time-to-first-token when long prompts hog a small batch.
//
// Workload: 2 long-prompt requests (160 tokens, priority 0) arrive first,
// then 6 short interactive requests (12 tokens, priority 1); 3 batch
// slots, int8 paged KV. The same requests are served four ways:
//
//   fifo / 1 token    — the pre-scheduler baseline: FIFO admission,
//                       token-by-token prefill;
//   fifo / chunked    — FIFO with 32-token prefill chunks: long prompts
//                       finish prefill in ~1/32nd the steps, so the slots
//                       (and the shorts queued behind them) free sooner;
//   priority / chunked — strict priority: the shorts jump the queue;
//   fair-share / chunked — deficit round robin (quantum 8): the longs are
//                       metered beside the shorts instead of spending a
//                       full chunk per step.
//
// Reported per policy: p50/p95 short-request TTFT in steps, makespan in
// steps, and the engine's per-priority stats. Every field is exact, so the
// committed BENCH_scheduler.json is regenerated byte-identical unless a
// scheduling decision moved; wall-clock TTFT is measured by servebench
// (ttft_ms_p50/p90 on chat-poisson). Asserted (exit 1): every policy
// returns bitwise identical tokens; chunked prefill cuts the shorts' p50
// step-TTFT vs the token-by-token baseline; priority and fair-share cut it
// further or equal vs FIFO order.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "eval/schemes.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace {

using namespace opal;

struct PolicyResult {
  std::string name;
  std::vector<std::vector<std::size_t>> tokens;  // per request
  std::vector<std::size_t> short_ttft_steps;
  std::size_t steps = 0;
  ServingEngine::Stats stats;
};

std::size_t percentile(std::vector<std::size_t> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

PolicyResult serve(const std::shared_ptr<const PreparedModel>& model,
                   ServingConfig cfg, std::string name,
                   const std::vector<Request>& requests,
                   std::size_t n_long) {
  PolicyResult out;
  out.name = std::move(name);
  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));

  std::vector<bool> seen(requests.size(), false);
  while (engine.step() > 0) {
    ++out.steps;
    for (std::size_t r = n_long; r < requests.size(); ++r) {
      if (!seen[r] && engine.result(ids[r]).generated() > 0) {
        seen[r] = true;
        out.short_ttft_steps.push_back(out.steps);
      }
    }
  }
  for (const RequestId id : ids) out.tokens.push_back(engine.result(id).tokens);
  out.stats = engine.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);

  EngineConfig cfg;
  cfg.max_seq_len = 256;
  cfg.kv_block_size = 16;
  cfg.kv_mode = KvQuantMode::kInt8;  // fused dequantize-dot attend path
  auto prepared = std::make_shared<const PreparedModel>(model, cfg);

  constexpr std::size_t kLongs = 2, kShorts = 6;
  std::vector<Request> requests;
  for (std::size_t r = 0; r < kLongs; ++r) {
    Request req;
    for (std::size_t i = 0; i < 160; ++i) {
      req.prompt.push_back((i * 13 + r) % 256);
    }
    req.max_new_tokens = 8;
    req.priority = 0;
    requests.push_back(std::move(req));
  }
  for (std::size_t r = 0; r < kShorts; ++r) {
    Request req;
    for (std::size_t i = 0; i < 12; ++i) {
      req.prompt.push_back((i * 29 + 7 * r + 3) % 256);
    }
    req.max_new_tokens = 8;
    req.priority = 1;
    requests.push_back(std::move(req));
  }

  ServingConfig base;
  base.max_batch = 3;  // the longs hold 2 slots; shorts rotate the third

  std::vector<PolicyResult> results;
  {
    ServingConfig c = base;
    c.scheduler = std::make_shared<FifoScheduler>();
    c.prefill_chunk_tokens = 1;
    results.push_back(serve(prepared, c, "fifo / 1 token", requests, kLongs));
  }
  {
    ServingConfig c = base;
    c.scheduler = std::make_shared<FifoScheduler>();
    c.prefill_chunk_tokens = 32;
    results.push_back(serve(prepared, c, "fifo / chunk 32", requests, kLongs));
  }
  {
    ServingConfig c = base;
    c.scheduler = std::make_shared<PriorityScheduler>();
    c.prefill_chunk_tokens = 32;
    results.push_back(
        serve(prepared, c, "priority / chunk 32", requests, kLongs));
  }
  {
    ServingConfig c = base;
    FairShareScheduler::Config fair;
    fair.quantum = 8;
    c.scheduler = std::make_shared<FairShareScheduler>(fair);
    c.prefill_chunk_tokens = 32;
    results.push_back(
        serve(prepared, c, "fair-share / q8 c32", requests, kLongs));
  }

  std::printf("%zu long (160-token prompt, prio 0) + %zu short (12-token "
              "prompt, prio 1) requests, %zu slots, int8 paged KV\n\n",
              kLongs, kShorts, base.max_batch);
  std::printf("%-20s %10s %10s %8s\n", "policy", "ttft p50", "ttft p95",
              "steps");
  for (const auto& r : results) {
    std::printf("%-20s %7zu st %7zu st %8zu\n", r.name.c_str(),
                percentile(r.short_ttft_steps, 0.5),
                percentile(r.short_ttft_steps, 0.95), r.steps);
  }
  {
    const std::string path = argc > 1 ? argv[1] : "BENCH_scheduler.json";
    std::ofstream json(path);
    json << "{\n  \"bench\": \"scheduler\",\n"
         << "  \"policies\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      json << "    {\"policy\": \"" << r.name
           << "\", \"short_ttft_p50_steps\": "
           << percentile(r.short_ttft_steps, 0.5)
           << ", \"short_ttft_p95_steps\": "
           << percentile(r.short_ttft_steps, 0.95)
           << ", \"steps\": " << r.steps << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
  }

  std::printf("\nper-priority accounting (mean steps, from Stats::by_priority)"
              ":\n");
  for (const auto& r : results) {
    for (const auto& [prio, s] : r.stats.by_priority) {
      std::printf("  %-20s prio %d: %5zu tokens, queue-wait %5.1f, ttft "
                  "%5.1f\n",
                  r.name.c_str(), prio, s.tokens_served,
                  static_cast<double>(s.queue_wait_steps) /
                      static_cast<double>(std::max<std::size_t>(
                          s.first_decodes, 1)),
                  static_cast<double>(s.ttft_steps) /
                      static_cast<double>(std::max<std::size_t>(
                          s.first_tokens, 1)));
    }
  }

  // --- assertions (step-denominated: deterministic on any machine) ---
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].tokens != results[0].tokens) {
      std::printf("\nERROR: %s changed request outputs\n",
                  results[i].name.c_str());
      return 1;
    }
  }
  const std::size_t base_p50 = percentile(results[0].short_ttft_steps, 0.5);
  const std::size_t chunk_p50 = percentile(results[1].short_ttft_steps, 0.5);
  const std::size_t prio_p50 = percentile(results[2].short_ttft_steps, 0.5);
  const std::size_t fair_p50 = percentile(results[3].short_ttft_steps, 0.5);
  if (chunk_p50 >= base_p50) {
    std::printf("\nERROR: chunked prefill did not cut short-request TTFT "
                "(%zu vs %zu steps)\n", chunk_p50, base_p50);
    return 1;
  }
  if (prio_p50 > chunk_p50 || fair_p50 >= base_p50) {
    std::printf("\nERROR: priority (%zu) / fair-share (%zu) did not improve "
                "on fifo (%zu chunked, %zu token-by-token)\n",
                prio_p50, fair_p50, chunk_p50, base_p50);
    return 1;
  }
  std::printf("\nPASS: chunked prefill cut short-request p50 TTFT %zu -> %zu "
              "steps; priority %zu, fair-share %zu (fifo token-by-token "
              "baseline %zu); outputs bitwise identical across policies\n",
              base_p50, chunk_p50, prio_p50, fair_p50, base_p50);
  return 0;
}
