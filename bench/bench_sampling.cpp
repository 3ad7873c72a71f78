// Sampling bench: how far each sampling policy's output wanders from
// greedy, and how many engine steps it takes — with the seeded-determinism
// contract asserted on the way. Every reported field is exact, so the
// committed BENCH_sampling.json is regenerated byte-identical unless a
// seeded stream moved. Sampling speed is measured by servebench
// (sampler.us_per_token, and output_tok_per_s on decode-batch).
//
// Workload: 8 requests sharing a 16-token system prefix (distinct 4-token
// tails, 32 generated tokens each) served through a FIFO ServingEngine with
// 8-token prefill chunks, fp32 paged KV, 4 slots. The same request set runs
// under four sampling configurations: greedy argmax (the baseline),
// temperature 1.2, top-k 20 (t 1.1), and top-p 0.95 over top-k 50 (t 1.2).
//
// Reported per policy: engine steps to drain the set, and output
// divergence — the fraction of generated positions whose token differs
// from the greedy stream of the same request.
//
// Asserted (exit 1):
//   * the greedy streams match an independently computed argmax decode
//     (inline max loop, batch-of-1 facade — no Sampler code involved), so the
//     default path regressing cannot slip through as "zero divergence";
//   * re-serving the identical seeded request set yields bitwise identical
//     streams (same engine config, fresh engine);
//   * serving it under a different scheduler (fair-share, threaded decode,
//     quarter-size pool) yields the SAME streams — seeded sampling is
//     scheduling-invariant.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "eval/schemes.h"
#include "llm/engine.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace {

using namespace opal;

struct PolicyRun {
  std::string name;
  std::vector<std::vector<std::size_t>> streams;  // per request
  std::size_t steps = 0;
};

PolicyRun serve(const std::shared_ptr<const PreparedModel>& model,
                ServingConfig cfg, std::string name,
                const std::vector<Request>& requests) {
  PolicyRun out;
  out.name = std::move(name);
  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  for (const auto& req : requests) ids.push_back(engine.submit(req));
  while (engine.step() > 0) ++out.steps;
  for (const RequestId id : ids) {
    out.streams.push_back(engine.result(id).tokens);
  }
  return out;
}

std::vector<Request> workload(const SamplingParams& sampling) {
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 16; ++i) prefix.push_back((i * 11 + 5) % 256);
  std::vector<Request> requests;
  for (std::size_t r = 0; r < 8; ++r) {
    Request req;
    req.prompt = prefix;
    for (std::size_t i = 0; i < 4; ++i) {
      req.prompt.push_back((i * 29 + 7 * r + 3) % 256);
    }
    req.max_new_tokens = 32;
    req.sampling = sampling;
    req.sampling.seed = 1000 + r;  // per-request stream
    requests.push_back(std::move(req));
  }
  return requests;
}

double divergence(const PolicyRun& run, const PolicyRun& greedy,
                  std::size_t prompt_len) {
  std::size_t differ = 0, total = 0;
  for (std::size_t r = 0; r < run.streams.size(); ++r) {
    for (std::size_t t = prompt_len; t < run.streams[r].size(); ++t) {
      ++total;
      if (run.streams[r][t] != greedy.streams[r][t]) ++differ;
    }
  }
  return static_cast<double>(differ) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);

  EngineConfig cfg;
  cfg.max_seq_len = 128;
  cfg.kv_block_size = 16;
  auto prepared = std::make_shared<const PreparedModel>(model, cfg);

  ServingConfig base;
  base.max_batch = 4;
  base.prefill_chunk_tokens = 8;

  SamplingParams greedy;  // defaults
  SamplingParams temp;
  temp.policy = SamplePolicy::kTopP;
  temp.temperature = 1.2f;
  SamplingParams topk;
  topk.policy = SamplePolicy::kTopP;
  topk.temperature = 1.1f;
  topk.top_k = 20;
  SamplingParams topp;
  topp.policy = SamplePolicy::kTopP;
  topp.temperature = 1.2f;
  topp.top_k = 50;
  topp.top_p = 0.95f;

  const struct {
    const char* name;
    const SamplingParams* params;
  } policies[] = {{"greedy", &greedy},
                  {"temperature 1.2", &temp},
                  {"top-k 20 / t1.1", &topk},
                  {"top-p .95 k50 t1.2", &topp}};

  std::vector<PolicyRun> runs;
  for (const auto& policy : policies) {
    runs.push_back(
        serve(prepared, base, policy.name, workload(*policy.params)));
  }
  const std::size_t prompt_len = 20;

  std::printf("8 shared-prefix requests (20-token prompt, 32 generated), "
              "4 slots, fp32 paged KV, 8-token chunks\n\n");
  std::printf("%-20s %8s %12s\n", "sampling policy", "steps",
              "divergence");
  for (const auto& run : runs) {
    std::printf("%-20s %8zu %11.1f%%\n", run.name.c_str(), run.steps,
                100.0 * divergence(run, runs[0], prompt_len));
  }

  {
    const std::string path = argc > 1 ? argv[1] : "BENCH_sampling.json";
    std::ofstream json(path);
    json.precision(4);
    json << std::fixed << "{\n  \"bench\": \"sampling\",\n"
         << "  \"policies\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& run = runs[i];
      json << "    {\"policy\": \"" << run.name
           << "\", \"steps\": " << run.steps
           << ", \"divergence\": " << divergence(run, runs[0], prompt_len)
           << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
  }

  // --- assertions ---
  // Greedy regression guard: the sampled greedy streams must match an
  // independently computed argmax decode (inline max loop over the
  // batch-of-1 facade — no Sampler involved), token for token.
  {
    const auto requests = workload(greedy);
    for (std::size_t r = 0; r < requests.size(); ++r) {
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
      if (ref != runs[0].streams[r]) {
        std::printf("\nERROR: greedy stream %zu diverged from the inline "
                    "argmax baseline\n", r);
        return 1;
      }
    }
  }
  for (const auto& policy : policies) {
    const auto again =
        serve(prepared, base, policy.name, workload(*policy.params));
    if (again.streams != runs[&policy - policies].streams) {
      std::printf("\nERROR: %s re-serve produced different streams\n",
                  policy.name);
      return 1;
    }
    // Scheduling invariance: fair-share budgets, threaded decode, and a
    // quarter-size pool (organic preemption/replay) must not change one
    // token of any seeded stream.
    ServingConfig alt = base;
    alt.scheduler = std::make_shared<FairShareScheduler>();
    alt.n_threads = 2;
    alt.kv_pool_blocks =
        base.max_batch * prepared->kv_blocks_per_sequence() / 4;
    const auto scheduled =
        serve(prepared, alt, policy.name, workload(*policy.params));
    if (scheduled.streams != runs[&policy - policies].streams) {
      std::printf("\nERROR: %s streams changed under fair-share + threads "
                  "+ quarter pool\n",
                  policy.name);
      return 1;
    }
  }
  std::printf("\nPASS: seeded sampling deterministic and scheduling-"
              "invariant across re-serve, fair-share, threaded decode, and "
              "a quarter-size pool; greedy unchanged\n");
  return 0;
}
