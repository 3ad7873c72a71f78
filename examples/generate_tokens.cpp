// End-to-end generation demo on the batched paged serving path: builds a
// scaled-down Llama2-style model, generates greedy continuations for a
// batch of prompts through a ServingEngine (shared PreparedModel, paged KV
// blocks, prefix cache reusing the prompts' common system prefix), scores
// the BF16 teacher against MX-OPAL W4A4/7 on those streams with the
// continuously-batched perplexity evaluator, and reports what the OPAL
// accelerator would spend per token on the full-scale model.
#include <cstdio>
#include <vector>

#include "accel/device.h"
#include "eval/perplexity.h"
#include "eval/schemes.h"
#include "llm/serving_engine.h"

int main() {
  using namespace opal;

  // Build and calibrate a small model with Llama2-7B's aspect ratios.
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 64), 7);
  calibrate_logit_scale(model, 24, 8);
  const auto calibration = calibrate_model(model, 48, 9);

  // The BF16 teacher is prepared once and shared by every sequence; all
  // generation runs through the batched, paged ServingEngine.
  EngineConfig teacher_cfg;
  teacher_cfg.max_seq_len = 64;
  teacher_cfg.kv_block_size = 8;
  auto teacher = std::make_shared<const PreparedModel>(model, teacher_cfg);

  ServingConfig serving_cfg;
  serving_cfg.max_batch = 4;
  serving_cfg.enable_prefix_cache = true;
  // Prompts prefill in whole 8-token chunks (one KV-prefix pass per layer
  // per chunk instead of per token) — bitwise identical to token-by-token.
  serving_cfg.prefill_chunk_tokens = 8;
  ServingEngine engine(teacher, serving_cfg);

  // Four prompts sharing a 16-token system prefix (two KV block columns):
  // a pilot request populates the prefix cache, the rest reuse its blocks.
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 16; ++i) prefix.push_back((i * 5 + 2) % 64);
  const std::size_t tails[4][2] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  std::vector<Request> requests;
  for (const auto& tail : tails) {
    Request req;
    req.prompt = prefix;
    req.prompt.insert(req.prompt.end(), std::begin(tail), std::end(tail));
    req.max_new_tokens = 24;
    requests.push_back(std::move(req));
  }

  std::vector<RequestId> ids;
  ids.push_back(engine.submit(requests[0]));
  engine.run();  // pilot finishes and indexes the shared prefix
  for (std::size_t r = 1; r < requests.size(); ++r) {
    ids.push_back(engine.submit(requests[r]));
  }
  engine.run();

  std::vector<std::vector<std::size_t>> streams;
  for (const auto id : ids) streams.push_back(engine.result(id).tokens);
  const auto stats = engine.stats();
  std::printf("generated %zu streams of %zu tokens on the batched paged "
              "path; prefix cache served %zu of %zu admissions (%zu "
              "prefill decodes skipped)\n",
              streams.size(), streams[0].size(), stats.prefix_hits,
              stats.prefix_hits + stats.prefix_misses,
              stats.prefix_hit_tokens);
  std::printf("first ten of stream 0:");
  for (std::size_t t = 0; t < 10; ++t) std::printf(" %zu", streams[0][t]);
  std::printf("\n\n");

  // The same serving path drives seeded sampling (the generation workload
  // beyond greedy scoring): a temperature/top-k/top-p request submitted
  // twice yields the identical stream, and the batch-of-1 facade's
  // generate() — same sampler subsystem, private fp32 KV — matches it
  // bitwise (sampling is invariant to batching and scheduling; see
  // sampler.h).
  Request sampled;
  sampled.prompt = requests[0].prompt;
  sampled.max_new_tokens = 24;
  sampled.sampling.policy = SamplePolicy::kTopP;
  sampled.sampling.temperature = 1.4f;
  sampled.sampling.top_k = 40;
  sampled.sampling.top_p = 0.98f;
  sampled.sampling.seed = 11;
  const RequestId s1 = engine.submit(sampled);
  const RequestId s2 = engine.submit(sampled);
  engine.run();
  const auto sampled_a = engine.result(s1).tokens;
  const auto sampled_b = engine.result(s2).tokens;
  InferenceEngine facade(teacher);
  const auto facade_gen =
      facade.generate(sampled.prompt, sampled.max_new_tokens,
                      sampled.sampling);
  std::size_t diverged = 0;
  for (std::size_t t = sampled.prompt.size(); t < sampled_a.size(); ++t) {
    if (sampled_a[t] != streams[0][t]) ++diverged;
  }
  std::printf("seeded %s sampling (t=%.1f, k=%zu, p=%.2f, seed=%llu): "
              "resubmit identical: %s; facade generate() identical: %s; "
              "%zu of %zu sampled tokens differ from greedy\n\n",
              to_string(sampled.sampling.policy).c_str(),
              static_cast<double>(sampled.sampling.temperature),
              sampled.sampling.top_k,
              static_cast<double>(sampled.sampling.top_p),
              static_cast<unsigned long long>(sampled.sampling.seed),
              sampled_a == sampled_b ? "yes" : "NO (ERROR)",
              facade_gen.tokens == sampled_a ? "yes" : "NO (ERROR)",
              diverged, sampled_a.size() - sampled.prompt.size());
  if (sampled_a != sampled_b || facade_gen.tokens != sampled_a) {
    std::printf("ERROR: seeded sampling determinism/parity violated\n");
    return 1;
  }

  // Score teacher vs MX-OPAL on the generated streams, both through the
  // continuously-batched evaluator (one ServingEngine pass per scheme).
  auto opal_cfg = scheme_mx_opal(4, 4, 7);
  opal_cfg.max_seq_len = 64;
  const PreparedModel opal_prepared(model, opal_cfg, &calibration);

  const auto ppl_teacher = evaluate_perplexity_batched(*teacher, streams);
  const auto ppl_opal = evaluate_perplexity_batched(opal_prepared, streams);
  double mean_teacher = 0.0, mean_opal = 0.0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    mean_teacher += ppl_teacher[s] / static_cast<double>(streams.size());
    mean_opal += ppl_opal[s] / static_cast<double>(streams.size());
  }
  std::printf("perplexity (mean over %zu streams): BF16 %.3f vs %s %.3f "
              "(delta %+.3f)\n",
              streams.size(), mean_teacher, opal_cfg.label().c_str(),
              mean_opal, mean_opal - mean_teacher);
  std::printf("weight storage: %.2f MB -> %.2f MB (%.1f%% bf16 columns)\n",
              static_cast<double>(teacher->weight_storage_bits()) / 8e6,
              static_cast<double>(opal_prepared.weight_storage_bits()) / 8e6,
              100.0 * opal_prepared.fp_weight_fraction());

  // What would this cost on silicon at full scale?
  std::printf("\nfull-scale Llama2-7B per-token on the modeled devices:\n");
  for (const auto& dev :
       {make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)}) {
    const auto report = simulate_token(dev, llama2_7b(), 512);
    std::printf("  %-9s %7.3f J/token, %6.3f s/token\n",
                report.device.c_str(), report.total_j(), report.latency_s);
  }
  return 0;
}
