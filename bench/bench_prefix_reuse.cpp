// Prefix-cache reuse bench: how much decode work a warm radix prefix index
// saves when traffic shares a long system prompt.
//
// One PreparedModel serves the same 8-request, shared-32-token-prefix
// workload three ways: prefix cache off (every request prefills its own
// prompt), cache on but cold (round 1 populates the index as sequences
// retire), and cache on warm (round 2 resubmits the workload against the
// populated index). Reported per run, all exact: token-decodes executed,
// prefix hits, and positions restored from the cache. The warm run's
// decode count drops by ~the shared prefill — repeated-prompt serving goes
// from O(prompt x requests) towards O(prompt) — while outputs stay bitwise
// identical across all three runs. Its wall-clock effect is servebench's
// (chat-poisson serves shared histories through a warmed cache).
// Exits nonzero unless outputs match and the warm round hits the cache and
// runs fewer decodes; prints a PASS line otherwise.
#include <cstdio>
#include <vector>

#include "eval/schemes.h"
#include "llm/serving_engine.h"

namespace {

struct RunResult {
  std::vector<std::vector<std::size_t>> tokens;
  std::size_t decodes = 0;
  opal::ServingEngine::Stats stats;
};

RunResult serve(opal::ServingEngine& engine,
                const std::vector<opal::Request>& requests) {
  RunResult out;
  std::vector<opal::RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));
  std::size_t n;
  while ((n = engine.step()) > 0) out.decodes += n;
  for (const auto id : ids) {
    out.tokens.push_back(engine.result(id).tokens);
    engine.release(id);
  }
  out.stats = engine.stats();
  return out;
}

}  // namespace

int main() {
  using namespace opal;

  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);

  EngineConfig cfg;
  cfg.max_seq_len = 96;
  cfg.kv_block_size = 8;
  auto prepared = std::make_shared<const PreparedModel>(model, cfg);

  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 32; ++i) prefix.push_back((i * 13 + 3) % 256);
  std::vector<Request> requests;
  for (std::size_t r = 0; r < 8; ++r) {
    Request req;
    req.prompt = prefix;
    req.prompt.push_back(100 + r);
    req.prompt.push_back(10 + 3 * r);
    req.max_new_tokens = 12;
    requests.push_back(std::move(req));
  }
  const std::size_t prefill =
      requests.size() * (prefix.size() + 2);  // prompt decodes, unshared

  ServingConfig off_cfg;
  off_cfg.max_batch = 4;
  ServingEngine engine_off(prepared, off_cfg);
  const auto off = serve(engine_off, requests);

  ServingConfig on_cfg = off_cfg;
  on_cfg.enable_prefix_cache = true;
  ServingEngine engine_on(prepared, on_cfg);
  const auto cold = serve(engine_on, requests);
  const auto warm = serve(engine_on, requests);

  if (off.tokens != cold.tokens || off.tokens != warm.tokens) {
    std::printf("ERROR: outputs diverged between runs\n");
    return 1;
  }

  std::printf("8 requests x (%zu-token shared prefix + 2) prompt, 12 new "
              "tokens each; %zu unshared prompt decodes per round\n\n",
              prefix.size(), prefill);
  std::printf("%-18s %12s %12s %12s\n", "run", "decodes", "prefix hits",
              "skipped");
  const auto row = [](const char* name, const RunResult& r,
                      std::size_t hits_before, std::size_t skip_before) {
    std::printf("%-18s %12zu %12zu %12zu\n", name, r.decodes,
                r.stats.prefix_hits - hits_before,
                r.stats.prefix_hit_tokens - skip_before);
  };
  row("cache off", off, 0, 0);
  row("cache on, cold", cold, 0, 0);
  row("cache on, warm", warm, cold.stats.prefix_hits,
      cold.stats.prefix_hit_tokens);
  const std::size_t warm_hits =
      warm.stats.prefix_hits - cold.stats.prefix_hits;
  if (warm_hits == 0 || warm.decodes >= off.decodes) {
    std::printf("ERROR: warm round saw %zu prefix hits and %zu decodes "
                "(cache off: %zu)\n",
                warm_hits, warm.decodes, off.decodes);
    return 1;
  }
  std::printf("\nPASS: prefix reuse outputs bitwise identical cold/warm; "
              "warm round executed %zu fewer decodes than cache-off "
              "(%.1fx fewer)\n",
              off.decodes - warm.decodes,
              static_cast<double>(off.decodes) /
                  static_cast<double>(warm.decodes));
  return 0;
}
