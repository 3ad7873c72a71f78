#include "llm/engine.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/tensor.h"

namespace opal {

namespace {

const PreparedModel& deref_prepared(
    const std::shared_ptr<const PreparedModel>& p) {
  require(p != nullptr, "InferenceEngine: null prepared model");
  return *p;
}

}  // namespace

InferenceEngine::InferenceEngine(const SyntheticModel& model,
                                 EngineConfig config,
                                 const CalibrationSet* calibration)
    : prepared_(std::make_shared<const PreparedModel>(model, std::move(config),
                                                      calibration)),
      state_(prepared_->make_sequence()),
      scratch_(prepared_->make_scratch()) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const PreparedModel> prepared)
    : prepared_(std::move(prepared)),
      state_(deref_prepared(prepared_).make_sequence()),
      scratch_(prepared_->make_scratch()) {}

std::span<const float> InferenceEngine::step(std::size_t token) {
  return prepared_->step(state_, token, scratch_, recorder_);
}

GenerationResult InferenceEngine::generate(
    std::span<const std::size_t> prompt, std::size_t max_new_tokens,
    const SamplingParams& params) {
  require(!prompt.empty(), "InferenceEngine::generate: empty prompt");
  reset();
  GenerationResult out;
  out.tokens.assign(prompt.begin(), prompt.end());
  out.prompt_len = prompt.size();
  const std::size_t target = generation_target(prompt.size(), max_new_tokens);
  const auto& cfg = prepared_->config();
  Sampler sampler(params, cfg.log2_softmax ? cfg.softmax_bits : 0);
  // The facade drives the state's own sampler checkpoint, exactly like the
  // serving path — draw i of stream params.seed decides generated token i.
  state_.sampler_state().rng = CounterRng(params.seed);
  std::size_t fed = 0;
  while (fed < out.tokens.size() && state_.position() < cfg.max_seq_len) {
    const auto logits = step(out.tokens[fed]);
    ++fed;
    if (fed == out.tokens.size() && out.tokens.size() < target) {
      out.tokens.push_back(
          sampler.sample(logits, out.tokens, state_.sampler_state()));
      out.finish_reason =
          check_stop(params, out.tokens, out.prompt_len, target);
      // A finishing token is pure output and is never fed back — the same
      // rule ServingEngine applies.
      if (out.finish_reason != FinishReason::kNone) break;
    }
  }
  return out;
}

void InferenceEngine::reset() { state_.reset(); }

namespace {

/// Accumulates each recorded site into the matching field of one layer's
/// entry in a CalibrationSet.
class CalibrationRecorder final : public ActivationRecorder {
 public:
  explicit CalibrationRecorder(CalibrationSet& set) : set_(&set) {}
  void record(std::size_t layer, RecordSite site,
              std::span<const float> values) override {
    auto& entry = (*set_)[layer];
    switch (site) {
      case RecordSite::kAttnIn:
        entry.attn_in.accumulate(values);
        break;
      case RecordSite::kProjIn:
        entry.proj_in.accumulate(values);
        break;
      case RecordSite::kFc1In:
        entry.fc1_in.accumulate(values);
        break;
      case RecordSite::kFc2In:
        entry.fc2_in.accumulate(values);
        break;
      default:
        break;
    }
  }

 private:
  CalibrationSet* set_;
};

/// Greedy-free token stream: samples from the model's own softmax so the
/// calibration activations cover the model's operating distribution.
std::size_t sample_token(std::span<const float> logits, Rng& rng) {
  std::vector<double> probs(logits.size());
  double max_l = logits[0];
  for (const float v : logits) max_l = std::max(max_l, double{v});
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(static_cast<double>(logits[i]) - max_l);
    sum += probs[i];
  }
  std::uniform_real_distribution<double> uni(0.0, sum);
  double r = uni(rng);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    r -= probs[i];
    if (r <= 0.0) return i;
  }
  return probs.size() - 1;
}

}  // namespace

CalibrationSet calibrate_model(const SyntheticModel& model,
                               std::size_t n_tokens, std::uint64_t seed) {
  const auto& cfg = model.config();
  CalibrationSet set;
  set.reserve(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    set.emplace_back(cfg.d_model, cfg.d_ffn);
  }
  EngineConfig bf16;
  bf16.max_seq_len = n_tokens + 1;
  bf16.kv_block_size = std::min(bf16.kv_block_size, bf16.max_seq_len);
  InferenceEngine engine(model, bf16);
  CalibrationRecorder recorder(set);
  engine.set_recorder(&recorder);
  Rng rng = make_rng(seed);
  std::size_t token = 0;
  for (std::size_t t = 0; t < n_tokens; ++t) {
    const auto logits = engine.step(token);
    token = sample_token(logits, rng);
  }
  return set;
}

void calibrate_logit_scale(SyntheticModel& model, std::size_t n_tokens,
                           std::uint64_t seed, float target_std) {
  EngineConfig bf16;
  bf16.max_seq_len = n_tokens + 1;
  bf16.kv_block_size = std::min(bf16.kv_block_size, bf16.max_seq_len);
  InferenceEngine engine(model, bf16);
  Rng rng = make_rng(seed);
  std::size_t token = 0;
  double sum = 0.0, sum_sq = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < n_tokens; ++t) {
    const auto logits = engine.step(token);
    for (const float v : logits) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    count += logits.size();
    token = sample_token(logits, rng);
  }
  const double mean = sum / static_cast<double>(count);
  const double var = sum_sq / static_cast<double>(count) - mean * mean;
  const double std_dev = std::sqrt(std::max(var, 1e-12));
  model.set_logit_scale(model.logit_scale() *
                        static_cast<float>(target_std / std_dev));
}

}  // namespace opal
