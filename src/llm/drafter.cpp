#include "llm/drafter.h"

#include <algorithm>
#include <stdexcept>

#include "common/tensor.h"
#include "llm/prepared_model.h"
#include "llm/sequence_state.h"

namespace opal {

// --- NgramDrafter ---

NgramDrafter::NgramDrafter(std::size_t ngram_max, std::size_t ngram_min)
    : ngram_max_(ngram_max), ngram_min_(ngram_min) {
  require(ngram_min_ >= 1, "NgramDrafter: ngram_min must be >= 1");
  require(ngram_max_ >= ngram_min_,
          "NgramDrafter: ngram_max must be >= ngram_min");
}

void NgramDrafter::draft(std::span<const std::size_t> tokens,
                         std::size_t max_tokens,
                         std::vector<std::size_t>& out) {
  if (max_tokens == 0 || tokens.size() < 2) return;
  const std::size_t len = tokens.size();
  for (std::size_t n = std::min(ngram_max_, len - 1); n >= ngram_min_; --n) {
    const auto suffix = tokens.last(n);
    // Most recent earlier occurrence first: `start` is where a candidate
    // match begins; it must end before the suffix itself so at least one
    // continuation token exists.
    for (std::size_t start = len - n; start-- > 0;) {
      if (!std::equal(suffix.begin(), suffix.end(), tokens.begin() + start)) {
        continue;
      }
      const std::size_t cont = start + n;
      const std::size_t take = std::min(max_tokens, len - cont);
      out.insert(out.end(), tokens.begin() + cont,
                 tokens.begin() + cont + take);
      return;
    }
  }
}

// --- RepeatDrafter ---

void RepeatDrafter::draft(std::span<const std::size_t> tokens,
                          std::size_t max_tokens,
                          std::vector<std::size_t>& out) {
  if (!tokens.empty()) out.insert(out.end(), max_tokens, tokens.back());
}

// --- ModelDrafter ---

ModelDrafter::ModelDrafter(std::shared_ptr<const PreparedModel> draft_model)
    : model_(std::move(draft_model)) {
  require(model_ != nullptr, "ModelDrafter: draft_model is null");
}

ModelDrafter::~ModelDrafter() = default;

std::size_t ModelDrafter::argmax_logits() const {
  const auto logits = state_->logits();
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

void ModelDrafter::draft(std::span<const std::size_t> tokens,
                         std::size_t max_tokens,
                         std::vector<std::size_t>& out) {
  if (max_tokens == 0 || tokens.empty()) return;
  if (!state_) {
    state_ = std::make_unique<SequenceState>(model_->make_sequence());
    scratch_ = std::make_unique<PassScratch>(model_->make_scratch());
  }
  // Resync: keep the cached common prefix (accepted drafts stay fed),
  // truncate the rest — rejected drafts roll back here exactly as they do
  // in the target's KV. The frontier token is always re-fed (capped at
  // size - 1), so the autoregressive loop below starts from its logits even
  // when a shrunk burst left it in history_ already.
  std::size_t common = 0;
  const std::size_t shared = std::min(history_.size(), tokens.size() - 1);
  while (common < shared && history_[common] == tokens[common]) ++common;
  if (common < history_.size()) {
    state_->truncate(common);
    history_.resize(common);
  }
  const std::size_t limit = model_->config().max_seq_len;
  const std::size_t vocab = model_->model_config().vocab;
  // Teacher-force the unfed known tokens and the frontier in one chunk,
  // whose final row doubles as the first autoregressive step. The chunk
  // stops short at max_seq_len or before an out-of-vocab token, and then
  // no proposal is made.
  const std::size_t first = history_.size();
  std::size_t end = first;
  while (end < tokens.size() && end < limit && tokens[end] < vocab) ++end;
  const bool reaches_frontier = end == tokens.size();
  if (end > first) {
    model_->prefill_chunk(*state_, tokens.subspan(first, end - first),
                          *scratch_, nullptr, reaches_frontier ? 1 : 0);
    history_.insert(history_.end(), tokens.begin() + first,
                    tokens.begin() + end);
  }
  if (!reaches_frontier) return;
  out.push_back(argmax_logits());
  for (std::size_t produced = 1; produced < max_tokens; ++produced) {
    const std::size_t feed = out.back();
    if (history_.size() >= limit || feed >= vocab) return;
    model_->step(*state_, feed, *scratch_);
    history_.push_back(feed);
    out.push_back(argmax_logits());
  }
}

// --- factory ---

std::unique_ptr<Drafter> make_drafter(const SpeculativeConfig& config) {
  switch (config.policy) {
    case DraftPolicy::kNone:
      return nullptr;
    case DraftPolicy::kNgram:
      return std::make_unique<NgramDrafter>(config.ngram_max,
                                            config.ngram_min);
    case DraftPolicy::kRepeat:
      return std::make_unique<RepeatDrafter>();
    case DraftPolicy::kModel:
      require(config.draft_model != nullptr,
              "make_drafter: kModel requires draft_model");
      return std::make_unique<ModelDrafter>(config.draft_model);
    case DraftPolicy::kCustom:
      require(static_cast<bool>(config.make_custom),
              "make_drafter: kCustom requires make_custom");
      return config.make_custom();
  }
  throw std::invalid_argument("make_drafter: unknown policy");
}

}  // namespace opal
