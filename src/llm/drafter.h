// Speculative-decoding drafters: propose k candidate continuation tokens
// per sequence so ServingEngine can verify them in ONE prefill_chunk-shaped
// model pass and commit more than one generated token per pass.
//
// How a burst works (ServingEngine::step, speculation enabled): a sequence
// at its generation frontier holds exactly one known-but-unfed token t0
// (tokens.back()). The drafter proposes d1..dk; the engine feeds
// [t0, d1, .., dk] as one member of its group pass
// (PreparedModel::prefill_group) — bitwise identical to k+1 single steps —
// and walks the per-row logits: row j's logits are exactly what a
// non-speculative run would see when sampling generated token j+1 of the
// burst.
//
// Accept rule (the verification contract):
//   * At each row j the engine runs the request's OWN sampler on that
//     row's logits, with the same context and the same SamplerState the
//     non-speculative engine would use. The sampled token is appended to
//     the stream unconditionally — it IS the next token. The burst
//     continues to row j+1 only when the sampled token equals the draft
//     d_{j+1} that was fed there (and no stop condition fired); otherwise
//     the remaining fed rows are rejected and rolled back.
//   * Greedy sampling: this is the classic exact-match rule — a draft is
//     accepted iff it equals the argmax.
//   * Seeded sampling: this is standard speculative rejection sampling for
//     a deterministic (point-mass) draft distribution q = delta(d): the
//     draft is accepted with probability p(d) under the target distribution
//     p, and on rejection the emitted token is distributed as the residual
//     norm(max(0, p - q)) = p(x | x != d). Because the emitted token is
//     always the target sampler's own draw, the committed stream is not
//     merely distribution-preserving — it is BITWISE the non-speculative
//     stream for every sampler and seed.
//
// Draw discipline: one sampler call (= one CounterRng draw for non-greedy
// policies) per generated token, exactly as without speculation. Rejected
// rows consume no draws — their logits are never sampled from — so
// SamplerState::rng.counter() still equals the number of generated tokens
// and a preempt -> readmit replay resumes the stream at the exact draw.
//
// Rollback invariants: rejected rows are removed with
// SequenceState::spec_rollback — truncate plus, in quantized kv_modes, a
// boundary-block snapshot/replay (see sequence_state.h) that rewinds the
// grow-only block scale bitwise. The kept prefix is therefore byte-for-byte
// what a non-speculative run produces: it stays a pure function of the
// token prefix, and the prefix cache may index it.
//
// Drafters never affect WHAT is generated — only how many model passes it
// takes. A drafter that proposes garbage costs wasted verify rows; a
// drafter that proposes the model's own continuation commits k+1 tokens per
// pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace opal {

class PassScratch;
class PreparedModel;
class SequenceState;

/// Per-request draft policy object. ServingEngine builds one per request
/// (make_drafter) and calls it only from its serial planning phase — never
/// concurrently, so implementations may keep unsynchronized state.
class Drafter {
 public:
  virtual ~Drafter() = default;

  /// Proposes up to `max_tokens` continuation tokens for `tokens` (the
  /// request's full stream so far — prompt plus generated; its last element
  /// is the still-unfed frontier token the proposals would follow).
  /// Appends the proposals to `out` (cleared by the caller). Proposing
  /// fewer tokens (or none) shrinks (or skips) the burst; it never changes
  /// the generated stream. ServingEngine counts every call and the tokens
  /// it appended (drafter.calls / drafter.proposed), so drafters keep no
  /// counts of their own.
  virtual void draft(std::span<const std::size_t> tokens,
                     std::size_t max_tokens,
                     std::vector<std::size_t>& out) = 0;
};

/// Which drafter make_drafter() builds.
enum class DraftPolicy : std::uint8_t {
  kNone,    // speculation disabled
  kNgram,   // prompt-lookup / n-gram self-drafting (no second model)
  kRepeat,  // static greedy-repeat fallback (no second model)
  kModel,   // a small draft PreparedModel run greedily (the classic setup)
  kCustom,  // SpeculativeConfig::make_custom builds the drafter (tests)
};

[[nodiscard]] std::string to_string(DraftPolicy policy);

/// Engine-level speculation settings, carried on ServingConfig.
struct SpeculativeConfig {
  DraftPolicy policy = DraftPolicy::kNone;
  /// Max draft tokens per burst (k). Each burst feeds 1 + k rows; the
  /// engine clamps k to the remaining generation budget and KV space.
  /// 0 disables speculation regardless of policy.
  std::size_t draft_tokens = 4;
  /// kNgram: longest / shortest history suffix tried for a match.
  std::size_t ngram_max = 3;
  std::size_t ngram_min = 1;
  /// kModel: the draft model (typically a smaller PreparedModel; the target
  /// model itself yields 100% greedy acceptance and serves as the
  /// determinism reference). Its vocab must cover the target's.
  std::shared_ptr<const PreparedModel> draft_model;
  /// kCustom: factory for a caller-supplied drafter (one per request).
  std::function<std::unique_ptr<Drafter>()> make_custom;

  [[nodiscard]] bool enabled() const {
    return policy != DraftPolicy::kNone && draft_tokens > 0;
  }
};

/// Prompt-lookup self-drafting: match the longest recent suffix of the
/// stream (ngram_max down to ngram_min tokens) against earlier history,
/// most recent occurrence first, and propose the tokens that followed it.
/// No proposals when nothing matches — the sequence decodes plainly that
/// step. Effective on repetitive continuations (code, templated text,
/// greedy argmax cycles); free otherwise.
class NgramDrafter final : public Drafter {
 public:
  NgramDrafter(std::size_t ngram_max, std::size_t ngram_min);
  void draft(std::span<const std::size_t> tokens, std::size_t max_tokens,
             std::vector<std::size_t>& out) override;

 private:
  std::size_t ngram_max_;
  std::size_t ngram_min_;
};

/// Static fallback: propose the frontier token repeated. Wins exactly when
/// the model is emitting runs of one token; costs one wasted verify row
/// per burst otherwise.
class RepeatDrafter final : public Drafter {
 public:
  void draft(std::span<const std::size_t> tokens, std::size_t max_tokens,
             std::vector<std::size_t>& out) override;
};

/// Draft-model plumbing: runs a (small) PreparedModel greedily over its own
/// private-pool KV state to propose the next k tokens. The drafter keeps the
/// history it has fed and resyncs on every call by truncating to the
/// common prefix with the request's stream — accepted drafts stay cached,
/// rejected ones are rolled back, exactly mirroring the target's KV. The
/// unfed known tokens and the frontier go through one prefill_chunk that
/// computes logits for its final row only; each further proposal is one
/// step(). Proposals stop early at the draft model's max_seq_len or vocab
/// edge.
class ModelDrafter final : public Drafter {
 public:
  explicit ModelDrafter(std::shared_ptr<const PreparedModel> draft_model);
  ~ModelDrafter() override;
  void draft(std::span<const std::size_t> tokens, std::size_t max_tokens,
             std::vector<std::size_t>& out) override;

 private:
  /// Greedy argmax of the draft model's last logits.
  [[nodiscard]] std::size_t argmax_logits() const;

  std::shared_ptr<const PreparedModel> model_;
  std::unique_ptr<SequenceState> state_;      // private KV, lazily created
  std::unique_ptr<PassScratch> scratch_;      // created with state_
  std::vector<std::size_t> history_;          // tokens fed into state_
};

/// Builds the drafter `config.policy` names (one per request); null for
/// kNone. Throws when the policy's requirements are missing (kModel without
/// draft_model, kCustom without make_custom).
[[nodiscard]] std::unique_ptr<Drafter> make_drafter(
    const SpeculativeConfig& config);

}  // namespace opal
