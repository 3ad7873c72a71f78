#include "llm/serving_engine.h"

#include <algorithm>
#include <stdexcept>

#include "common/tensor.h"

namespace opal {

std::string to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kRunning:
      return "running";
    case RequestStatus::kFinished:
      return "finished";
    case RequestStatus::kEvicted:
      return "evicted";
  }
  return "?";
}

namespace {

// The engine's private pool: dense-equivalent capacity by default (max_batch
// full sequences), or the caller's explicit block budget.
KvBlockPool make_engine_pool(const PreparedModel* model,
                             const ServingConfig& config) {
  require(model != nullptr, "ServingEngine: null model");
  return model->make_kv_pool(
      config.kv_pool_blocks != 0
          ? config.kv_pool_blocks
          : config.max_batch * model->kv_blocks_per_sequence());
}

}  // namespace

ServingEngine::ServingEngine(std::shared_ptr<const PreparedModel> model,
                             ServingConfig config)
    : model_(std::move(model)),
      config_(std::move(config)),
      kv_pool_(make_engine_pool(model_.get(), config_)) {
  require(config_.max_batch >= 1, "ServingEngine: max_batch must be >= 1");
  require(config_.prefill_chunk_tokens >= 1,
          "ServingEngine: prefill_chunk_tokens must be >= 1");
  scheduler_ = config_.scheduler != nullptr
                   ? config_.scheduler
                   : std::make_shared<FifoScheduler>();
  if (config_.n_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.n_threads);
  }
  passes_.resize(config_.max_batch);
  // One group per executor at most (see ServingConfig::n_threads), each
  // with its own scratch, sized to the step's rows in reserve_passes().
  const std::size_t executors = config_.n_threads + 1;
  for (std::size_t g = 0; g < std::min(executors, config_.max_batch); ++g) {
    groups_.emplace_back(model_->make_scratch());
    groups_.back().members.reserve(config_.max_batch);
  }
  const auto& mcfg = model_->model_config();
  const auto& ecfg = model_->config();
  if (config_.enable_prefix_cache) {
    prefix_cache_ =
        std::make_unique<PrefixCache>(model_->make_prefix_cache(kv_pool_));
  }
  // Observability (see the header's Observability block): register the
  // engine's own series once and cache the handles. None of it is ever
  // read back by a control path.
  trace_ = Tracer(config_.trace, config_.trace_capacity);
  // Self-description for the step-trace header: enough to rebuild the
  // model + KV layout, making the exported trace replayable offline
  // (accel/replay.h) without this process.
  trace_.set_step_info({mcfg.n_layers, mcfg.d_model, mcfg.n_heads,
                        mcfg.d_ffn, mcfg.vocab, to_string(ecfg.kv_mode),
                        ecfg.kv_block_size,
                        kv_bits_per_entry(ecfg.kv_mode), ecfg.max_seq_len});
  em_.admissions = &registry_.counter("serving.admissions");
  em_.preemptions = &registry_.counter("serving.preemptions");
  em_.evictions = &registry_.counter("serving.evictions");
  em_.finished = &registry_.counter("serving.finished");
  em_.budget_shrinks = &registry_.counter("serving.budget_shrinks");
  em_.tokens_decoded = &registry_.counter("serving.tokens_decoded");
  em_.tokens_committed = &registry_.counter("serving.tokens_committed");
  em_.spec_bursts = &registry_.counter("serving.spec_bursts");
  em_.spec_drafted = &registry_.counter("serving.spec_drafted");
  em_.spec_accepted = &registry_.counter("serving.spec_accepted");
  em_.spec_rejected = &registry_.counter("serving.spec_rejected");
  em_.queue_wait_ms = &registry_.histogram("serving.queue_wait_ms");
  em_.ttft_ms = &registry_.histogram("serving.ttft_ms");
  em_.itl_ms = &registry_.histogram("serving.itl_ms");
  em_.step_ms = &registry_.histogram("serving.step_ms");
  em_.decode_ms = &registry_.histogram("serving.decode_ms");
  em_.prefill_chunk_ms = &registry_.histogram("serving.prefill_chunk_ms");
  em_.spec_verify_ms = &registry_.histogram("serving.spec_verify_ms");
  // Kernel/layer profiling: installs the timing wrapper over the dispatch
  // table for this engine's lifetime. Off (the common case) the dispatch
  // table is exactly the silent engine's.
  profiling_ = config_.profile;
  if (profiling_) KernelProfiler::enable();
  // KV bytes one fed row writes: K and V, every layer, at the mode's width.
  kv_row_bytes_ =
      2 * mcfg.n_layers * mcfg.d_model * kv_bits_per_entry(ecfg.kv_mode) / 8;
}

ServingEngine::ServingEngine(const PreparedModel& model, ServingConfig config)
    : ServingEngine(
          std::shared_ptr<const PreparedModel>(&model,
                                               [](const PreparedModel*) {}),
          std::move(config)) {}

ServingEngine::~ServingEngine() {
  if (profiling_) KernelProfiler::disable();
}

RequestId ServingEngine::submit(Request request) {
  require(!request.prompt.empty(), "ServingEngine::submit: empty prompt");
  // Validate up front: a token that threw mid-decode would leave the other
  // sequences of that step with advanced KV caches but un-advanced `fed`
  // counters. Generated tokens are argmax indices and are always in range.
  const std::size_t vocab = model_->model_config().vocab;
  for (const std::size_t token : request.prompt) {
    require(token < vocab, "ServingEngine::submit: prompt token out of range");
  }
  // One sampler per request, built first: its constructor validates the
  // SamplingParams, so a bad request is refused here and never reaches a
  // step. With the log2 softmax unit active, sampling probabilities run
  // through the same unit (see sampler.h).
  const auto& ecfg = model_->config();
  Sampler sampler(std::move(request.sampling),
                  ecfg.log2_softmax ? ecfg.softmax_bits : 0);
  Sequence seq;
  seq.id = next_id_++;
  seq.priority = request.priority;
  seq.submit_step = step_counter_;
  seq.submit_tp = std::chrono::steady_clock::now();
  seq.result.status = RequestStatus::kQueued;
  seq.result.tokens = std::move(request.prompt);
  seq.result.prompt_len = seq.result.tokens.size();
  seq.target_len =
      generation_target(seq.result.prompt_len, request.max_new_tokens);
  // The sampling walk appends tokens from the parallel pass, which must not
  // allocate: reserve every token the request can hold — its target, or
  // one past a full KV cache, where it is evicted.
  seq.result.tokens.reserve(
      std::min(seq.target_len, ecfg.max_seq_len + 1));
  seq.sampler = std::move(sampler);
  // One drafter per request, consulted only from the serial plan(), so
  // stateful drafters need no synchronization.
  if (config_.speculative.enabled()) {
    seq.drafter = make_drafter(config_.speculative);
  }
  // The RNG stream starts at draw 0 of the request's seed; the checkpoint
  // is moved into the SequenceState at admission and back here whenever the
  // KV is fully released (see Sequence::sampler_ckpt).
  seq.sampler_ckpt.rng = CounterRng(seq.sampler.params().seed);
  ++prio_stats_[seq.priority].submitted;
  trace_.emit({.kind = TraceEventKind::kEnqueue,
               .step = step_counter_,
               .request = seq.id,
               .a = seq.result.prompt_len,
               .b = seq.target_len,
               .c = static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(seq.priority))});
  const RequestId id = seq.id;
  queue_.push_back(std::move(seq));
  return id;
}

template <typename Container>
std::span<const SchedRequest> ServingEngine::sched_views(
    const Container& container) {
  views_.clear();
  for (const Sequence& seq : container) {
    SchedRequest view;
    view.id = seq.id;
    view.priority = seq.priority;
    view.prompt_len = seq.result.prompt_len;
    view.target_len = seq.target_len;
    view.fed = seq.fed;
    view.known = seq.result.tokens.size() - seq.fed;
    view.tokens_served = seq.tokens_served;
    view.submit_step = seq.submit_step;
    views_.push_back(view);
  }
  return views_;
}

std::size_t ServingEngine::blocks_needed(const Sequence& seq) const {
  // The blocks seq's next single-token advance takes (none at a full cache,
  // where it evicts instead of decoding).
  return seq.state->blocks_needed_for(std::min<std::size_t>(
      1, seq.state->max_seq_len() - seq.state->position()));
}

bool ServingEngine::ensure_free_blocks(std::size_t target) {
  if (kv_pool_.free_blocks() >= target) return true;
  if (prefix_cache_ == nullptr) return false;
  // Unreferenced cached prefixes are free capacity in waiting: reclaim LRU
  // entries before letting pressure disturb any sequence.
  prefix_cache_->reclaim(target - kv_pool_.free_blocks());
  return kv_pool_.free_blocks() >= target;
}

void ServingEngine::restore_cached_prefix(Sequence& seq) {
  if (prefix_cache_ == nullptr) return;
  // Cap the restore one short of the known tokens AND of max_seq_len: the
  // final token's decode produces the logits generation extends from,
  // completion bookkeeping needs at least one decode per admission, and a
  // request destined for KV exhaustion must still decode (and retire) the
  // same way a cache-off run does.
  const auto& tokens = seq.result.tokens;
  const std::size_t cap =
      std::min(tokens.size(), model_->config().max_seq_len) - 1;
  const auto match = prefix_cache_->lookup(tokens, cap);
  if (match.positions == 0) return;
  seq.state->adopt_prefix(match.columns, match.positions);
  seq.fed = match.positions;  // prefill skips the restored positions
  trace_.emit({.kind = TraceEventKind::kPrefixHit,
               .step = step_counter_,
               .request = seq.id,
               .a = match.positions,
               .b = match.columns.size()});
}

void ServingEngine::maybe_cache_prefix(const Sequence& seq) {
  if (prefix_cache_ == nullptr || seq.state == nullptr) return;
  const std::size_t bs = model_->config().kv_block_size;
  const std::size_t aligned = (seq.fed / bs) * bs;  // full columns only
  if (aligned == 0) return;
  prefix_cache_->insert(seq.result.tokens, aligned, seq.state->paged_cache());
}

void ServingEngine::release_sequence_kv(Sequence& seq) {
  maybe_cache_prefix(seq);
  // Checkpoint the RNG stream before the state carrying it is destroyed:
  // readmission restores it, so replayed generation resumes at the exact
  // draw (replayed tokens are known tokens and consume none).
  if (seq.state != nullptr) seq.sampler_ckpt = seq.state->sampler_state();
  seq.state.reset();
  seq.fed = 0;
}

void ServingEngine::admit_from_queue() {
  // Blocks the current batch will take on its next advance: admission
  // must leave room for them, or the pressure loop would immediately
  // preempt the sequence we just admitted.
  std::size_t planned = 0;
  for (const auto& seq : batch_) planned += blocks_needed(seq);
  while (batch_.size() < config_.max_batch && !queue_.empty()) {
    blocked_.clear();
    bool admitted = false;
    // Bounded: each round admits (and ends the loop) or adds a distinct
    // queue index to blocked_ (the second require), so it runs at most
    // queue_.size() rounds.
    for (;;) {
      const std::size_t pick =
          scheduler_->pick_admission(sched_views(queue_), blocked_);
      if (pick == Scheduler::kNone) break;
      require(pick < queue_.size(),
              "ServingEngine: scheduler picked an out-of-range admission");
      require(!std::binary_search(blocked_.begin(), blocked_.end(), pick),
              "ServingEngine: scheduler re-offered a blocked admission");
      Sequence& head = queue_[pick];
      // Adopt the candidate's cached prefix BEFORE checking capacity:
      // adoption consumes no free blocks, and its references protect the
      // matched entries from the reclaim pass below (which would otherwise
      // evict the very prefix this request is about to reuse).
      if (head.state == nullptr) {
        head.state = std::make_unique<SequenceState>(
            model_->make_sequence(kv_pool_));
        // Resume the request's RNG stream at its checkpoint (draw 0 for
        // a fresh request, the exact mid-stream draw after preemption).
        head.state->sampler_state() = head.sampler_ckpt;
      }
      restore_cached_prefix(head);
      std::size_t need = blocks_needed(head);
      bool ok = ensure_free_blocks(planned + need);
      if (!ok && head.fed != 0) {
        // Blocked: drop the adoption, so no queued sequence holds blocks
        // and its match stays reclaimable (it is looked up again on the
        // next attempt). With nothing running, the match may be what
        // blocks it — e.g. a one-column pool whose only cached column is
        // its own match — so retry once without it: forward progress.
        head.state->reset();
        head.fed = 0;
        if (batch_.empty()) {
          need = blocks_needed(head);
          ok = ensure_free_blocks(need);
        }
      }
      if (ok) {
        planned += need;
        Sequence seq = std::move(queue_[pick]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
        seq.result.status = RequestStatus::kRunning;
        batch_.push_back(std::move(seq));
        em_.admissions->add();
        const Sequence& adm = batch_.back();
        trace_.emit({.kind = TraceEventKind::kAdmit,
                     .step = step_counter_,
                     .request = adm.id,
                     .a = step_counter_ - adm.submit_step,
                     .b = adm.fed,
                     .c = adm.state->blocks_held()});
        admitted = true;
        break;
      }
      // Memory-blocked candidate: it keeps its queue position (retried
      // first next step), but the policy may offer the NEXT admissible
      // candidate so a small request admits around it. FIFO, whose bitwise
      // contract is strict arrival order, returns kNone: head-of-line
      // blocking.
      blocked_.push_back(pick);
      std::sort(blocked_.begin(), blocked_.end());
      if (blocked_.size() >= queue_.size()) break;
    }
    if (!admitted) break;  // nothing admissible this step
  }
}

void ServingEngine::ensure_kv_capacity() {
  // Every round that does not return shrinks a budget to 1, preempts a
  // running victim (the batch shrinks) or evicts the lone sequence (a
  // request retires for good). Between two evictions that is at most
  // max_batch shrinks (the sequences admitted after an eviction start at
  // budget 1) and max_batch - 1 preemptions, and there are at most as many
  // evictions as live requests.
  const std::size_t max_rounds =
      (batch_.size() + queue_.size() + 1) * 2 * config_.max_batch;
  for (std::size_t round = 0;; ++round) {
    if (round > max_rounds) {
      throw std::logic_error(
          "ServingEngine::ensure_kv_capacity: loop exceeded its round bound");
    }
    std::size_t need = 0;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      need += batch_[i].state->blocks_needed_for(passes_[i].rows);
    }
    // Reclaims LRU cached prefixes first: the prefix cache never costs a
    // running sequence its blocks. True covers the empty batch too.
    if (ensure_free_blocks(need)) return;
    // A chunk is a luxury, a running sequence is a commitment: shrink the
    // widest budget to single-token stepping (ties to the highest slot,
    // the youngest) before disturbing anyone. Single-token budgets are the
    // invariant admission guaranteed blocks for. A shrunk burst drops its
    // drafts and decodes the frontier plainly.
    std::size_t widest = Scheduler::kNone;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      if (passes_[i].rows > 1 &&
          (widest == Scheduler::kNone ||
           passes_[i].rows >= passes_[widest].rows)) {
        widest = i;
      }
    }
    if (widest != Scheduler::kNone) {
      SlotPass& pass = passes_[widest];
      em_.budget_shrinks->add();
      trace_.emit({.kind = TraceEventKind::kBudgetShrink,
                   .step = step_counter_,
                   .request = batch_[widest].id,
                   .a = pass.rows,
                   .b = 1});
      pass.rows = 1;
      pass.drafts.clear();
      continue;
    }
    if (batch_.size() == 1) {
      // No running sequence left to preempt, the cache is drained and no
      // queued sequence holds blocks, so every block still in use is this
      // sequence's own: the pool is too small for it. Retire it as
      // kEvicted (the forward-progress guarantee).
      finish(std::move(batch_.front()), RequestStatus::kEvicted);
      batch_.clear();
      admit_from_queue();
      // Pressure admissions restart at the single-token invariant; chunks
      // resume next step once the scheduler re-plans.
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        passes_[i].rows = 1;
        passes_[i].drafts.clear();
      }
      continue;
    }
    // The scheduler's victim goes back to the front of the queue, so it
    // reclaims a slot as soon as memory frees up (the scheduler still
    // chooses whether something else jumps it).
    const std::size_t pick = scheduler_->pick_victim(sched_views(batch_));
    require(pick < batch_.size(),
            "ServingEngine: scheduler picked an out-of-range victim");
    preempt_slot(pick, /*to_front=*/true);
  }
}

void ServingEngine::finish(Sequence&& seq, RequestStatus status) {
  seq.result.status = status;
  // Index the retiring sequence's prefix before its blocks go back to the
  // pool: the next request sharing the prompt skips that prefill.
  maybe_cache_prefix(seq);
  seq.state.reset();  // unshared blocks return to the pool immediately
  if (status == RequestStatus::kEvicted) {
    ++prio_stats_[seq.priority].evicted;
    em_.evictions->add();
    trace_.emit({.kind = TraceEventKind::kEvict,
                 .step = step_counter_,
                 .request = seq.id,
                 .a = seq.result.generated()});
  } else {
    ++prio_stats_[seq.priority].finished;
    ++finish_counts_[seq.result.finish_reason];
    em_.finished->add();
    trace_.emit({.kind = TraceEventKind::kFinish,
                 .step = step_counter_,
                 .request = seq.id,
                 .a = seq.result.generated(),
                 .b = static_cast<std::uint64_t>(seq.result.finish_reason)});
  }
  scheduler_->on_retired(seq.id);
  done_.emplace(seq.id, std::move(seq.result));
}

void ServingEngine::preempt_slot(std::size_t slot, bool to_front) {
  // Recompute preemption: cache the full block columns (replay then
  // restores them as a prefix hit, and pressure reclaims them LRU-first),
  // release every block, and requeue. The pass moves to the end of
  // passes_, so the later slots stay aligned with batch_ and every pass
  // keeps its buffers' capacity.
  Sequence seq = std::move(batch_[slot]);
  batch_.erase(batch_.begin() + static_cast<std::ptrdiff_t>(slot));
  std::rotate(passes_.begin() + static_cast<std::ptrdiff_t>(slot),
              passes_.begin() + static_cast<std::ptrdiff_t>(slot) + 1,
              passes_.end());
  const std::size_t fed_before = seq.fed;
  release_sequence_kv(seq);
  seq.result.status = RequestStatus::kQueued;
  em_.preemptions->add();
  trace_.emit({.kind = TraceEventKind::kPreempt,
               .step = step_counter_,
               .request = seq.id,
               .b = fed_before});
  if (to_front) {
    queue_.push_front(std::move(seq));
  } else {
    queue_.push_back(std::move(seq));
  }
}

void ServingEngine::preempt(RequestId id) {
  const auto it = std::find_if(batch_.begin(), batch_.end(),
                               [id](const Sequence& s) { return s.id == id; });
  require(it != batch_.end(), "ServingEngine::preempt: request is not running");
  preempt_slot(static_cast<std::size_t>(it - batch_.begin()),
               /*to_front=*/false);
}

std::size_t ServingEngine::step() {
  ++step_counter_;
  const std::uint64_t step_t0_us = trace_.now_us();
  if (!plan()) return 0;
  run_passes();
  return commit(step_t0_us);
}

bool ServingEngine::plan() {
  admit_from_queue();
  retire_and_refill();
  plan_budgets();
  // Memory pressure: make sure the pool covers every running sequence's
  // planned budget, shrinking budgets then preempting (then, for a lone
  // sequence, evicting) first.
  ensure_kv_capacity();
  if (batch_.empty()) return false;
  reserve_passes();
  return true;
}

void ServingEngine::retire_and_refill() {
  // Retire completed sequences a prior step could not retire (its observer
  // threw after bookkeeping), and evict sequences whose KV cache is
  // exhausted; freed slots refill from the queue within the same step
  // (continuous batching), and admissions are checked in turn.
  for (std::size_t i = 0; i < batch_.size();) {
    const Sequence& seq = batch_[i];
    if (!seq.done && seq.state->position() < seq.state->max_seq_len()) {
      ++i;
      continue;
    }
    const RequestStatus status =
        seq.done ? RequestStatus::kFinished : RequestStatus::kEvicted;
    finish(std::move(batch_[i]), status);
    batch_.erase(batch_.begin() + static_cast<std::ptrdiff_t>(i));
    admit_from_queue();
  }
}

void ServingEngine::plan_budgets() {
  if (batch_.empty()) return;
  // The scheduler proposes per-sequence token counts; the engine clamps
  // each to the tokens actually known, the configured chunk width, and the
  // sequence's remaining KV space. Everything is >= 1, so every running
  // sequence advances.
  sched_budgets_.assign(batch_.size(), 1);
  scheduler_->plan_budgets(sched_views(batch_), sched_budgets_,
                           config_.prefill_chunk_tokens);
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    Sequence& seq = batch_[i];
    SlotPass& pass = passes_[i];
    const std::size_t known = seq.result.tokens.size() - seq.fed;
    const std::size_t space = seq.state->max_seq_len() - seq.state->position();
    const std::size_t cap =
        std::min({known, space, config_.prefill_chunk_tokens});
    pass.rows = std::clamp<std::size_t>(sched_budgets_[i], 1, cap);
    pass.drafts.clear();
    plan_drafts(seq, pass);
  }
}

void ServingEngine::plan_drafts(Sequence& seq, SlotPass& pass) {
  // A sequence at its generation frontier (exactly one known, unfed token
  // and generation remaining) may widen its budget to a verify burst
  // [frontier, d1..dk]. k is clamped so the burst can neither out-generate
  // the request (each fed row commits at most one token) nor outgrow the
  // KV cache; drafts are truncated at the first out-of-vocab token (a
  // garbage drafter must not throw from the parallel phase). The widened
  // budget flows through ensure_kv_capacity like any chunk, so all 1+k
  // rows are block-reserved up front and pressure shrinks the burst back
  // to a plain step.
  const std::vector<std::size_t>& tokens = seq.result.tokens;
  if (seq.drafter == nullptr || tokens.size() - seq.fed != 1 ||
      tokens.size() >= seq.target_len) {
    return;
  }
  const std::size_t space = seq.state->max_seq_len() - seq.state->position();
  const std::size_t remaining = seq.target_len - tokens.size();
  const std::size_t k =
      std::min({config_.speculative.draft_tokens, remaining - 1, space - 1});
  if (k == 0) return;
  pass.drafts.push_back(tokens[seq.fed]);  // frontier
  seq.drafter->draft(tokens, k, pass.drafts);
  ++drafter_calls_;
  drafter_proposed_ += pass.drafts.size() - 1;
  const std::size_t vocab = model_->model_config().vocab;
  std::size_t valid = 1;
  while (valid < std::min(pass.drafts.size(), 1 + k) &&
         pass.drafts[valid] < vocab) {
    ++valid;
  }
  // Nothing proposed: a plain decode.
  pass.drafts.resize(valid > 1 ? valid : 0);
  if (!pass.drafts.empty()) pass.rows = pass.drafts.size();
}

void ServingEngine::reserve_passes() {
  // All pool allocation for this step happens here, and every buffer the
  // parallel pass fills is sized here: the KV blocks and the sampler's
  // scratch. Speculative bursts also open their rollback capture here —
  // after reserve_for's copy-on-write, the boundary block is exclusively
  // owned, which snapshot restore requires.
  const std::size_t vocab = model_->model_config().vocab;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    Sequence& seq = batch_[i];
    SlotPass& pass = passes_[i];
    const std::size_t n = pass.rows;
    const std::span<const std::size_t> known(seq.result.tokens);
    const bool spec = !pass.drafts.empty();
    pass.kind = spec ? TraceEventKind::kSpecBurst
                : n == 1 && seq.fed + 1 == known.size()
                    ? TraceEventKind::kDecode
                    : TraceEventKind::kChunk;
    pass.feed = spec ? std::span<const std::size_t>(pass.drafts)
                     : known.subspan(seq.fed, n);
    pass.pos = seq.fed;
    // The sampling walk reads every row of a burst, and the final row of a
    // plain pass that feeds every known token with generation remaining.
    // Only rows someone reads get logits; an observer reads all of them.
    const bool frontier = seq.fed + n == known.size() &&
                          known.size() < seq.target_len;
    pass.sample_from = spec       ? 0
                       : frontier ? n - 1
                                  : SlotPass::kNoSample;
    pass.logit_rows = observer_ ? n
                      : pass.sample_from == SlotPass::kNoSample
                          ? 0
                          : n - pass.sample_from;
    pass.sampled = 0;
    if (pass.sample_from != SlotPass::kNoSample) seq.sampler.reserve(vocab);
    seq.state->reserve_for(n);
    if (spec) seq.state->begin_spec_capture(n);
  }
  plan_groups();
}

void ServingEngine::plan_groups() {
  // min(executors, ceil(rows / 4), slots) groups: the AVX2 matvec shares
  // each weight vector across 4 input rows, so a group under 4 rows streams
  // its weights for less than a full block. Each group is a contiguous slot
  // range that grows while it stays within its cumulative share of the
  // rows (at least one slot, leaving one for every later group; the last
  // group's share is every row), so commit, the observers and the trace
  // keep slot order.
  const std::size_t slots = batch_.size();
  std::size_t rows = 0;
  for (std::size_t i = 0; i < slots; ++i) rows += passes_[i].rows;
  n_groups_ = std::min({groups_.size(), (rows + 3) / 4, slots});
  std::size_t begin = 0, acc = 0;
  for (std::size_t g = 0; g < n_groups_; ++g) {
    PassGroup& group = groups_[g];
    const std::size_t target = (rows * (g + 1) + n_groups_ - 1) / n_groups_;
    const std::size_t last = slots - (n_groups_ - 1 - g);  // end's bound
    std::size_t end = begin;
    do {
      acc += passes_[end++].rows;
    } while (end < last && acc + passes_[end].rows <= target);
    group.begin = begin;
    group.end = end;
    group.rows = 0;
    group.members.clear();
    std::size_t logit_rows = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const SlotPass& pass = passes_[i];
      group.members.push_back(
          {batch_[i].state.get(), pass.feed, pass.logit_rows});
      group.rows += pass.rows;
      logit_rows += pass.logit_rows;
    }
    group.scratch.reserve(group.rows, logit_rows);
    if (profiling_) group.profile.clear();
    begin = end;
  }
}

void ServingEngine::run_passes() {
  // One prefill_group per group over its members' planned feeds — one-row
  // decodes, multi-row chunks and verify bursts alike, each bitwise its
  // own one-row passes — then each member's sampling walk over the rows it
  // produced, in slot order. A group writes only its members' Sequence
  // (state, tokens, sampler) and SlotPass (timing, sampled count) and its
  // own scratch and profile. The pass is timed without the walks, so
  // dur_us stays model time: each member's share of the group's time, by
  // rows, in integers that sum exactly to it.
  auto run_group = [this](std::size_t g) {
    PassGroup& group = groups_[g];
    if (profiling_) KernelProfiler::bind_slot(&group.profile);
    const std::uint64_t t0 = trace_.now_us();
    model_->prefill_group(group.members, group.scratch);
    const std::uint64_t end_us = trace_.now_us();
    if (profiling_) KernelProfiler::bind_slot(nullptr);
    const std::uint64_t dur = end_us - t0;
    std::uint64_t before = 0;
    for (std::size_t i = group.begin; i < group.end; ++i) {
      SlotPass& pass = passes_[i];
      const std::uint64_t from = dur * before / group.rows;
      before += pass.rows;
      pass.end_us = end_us;
      pass.dur_us = dur * before / group.rows - from;
    }
    for (std::size_t i = group.begin; i < group.end; ++i) {
      sample_pass(batch_[i], passes_[i]);
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(n_groups_, run_group);
  } else {
    for (std::size_t g = 0; g < n_groups_; ++g) run_group(g);
  }
}

std::size_t ServingEngine::commit(std::uint64_t step_t0_us) {
  // Bookkeeping runs to completion for the whole batch before any observer
  // fires, so a throwing observer can never leave a sequence's fed counter
  // out of sync with its already-advanced KV cache.
  const std::size_t decoded = batch_.size();
  // One wall-clock anchor for the whole serial phase: queue-wait/TTFT/ITL
  // are request-level latencies, for which per-slot resolution is noise.
  const auto now_tp = std::chrono::steady_clock::now();
  std::size_t rows_fed_total = 0;
  for (std::size_t i = 0; i < decoded; ++i) {
    rows_fed_total += passes_[i].rows;
    commit_slot(batch_[i], passes_[i], now_tp);
  }
  if (profiling_) {
    for (std::size_t g = 0; g < n_groups_; ++g) {
      profile_total_.merge(groups_[g].profile);
    }
  }
  notify_observers(decoded);

  // Retire pass: stable in-place compaction, no per-step allocation.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < decoded; ++i) {
    if (batch_[i].done) {
      finish(std::move(batch_[i]), RequestStatus::kFinished);
    } else {
      if (keep != i) batch_[keep] = std::move(batch_[i]);
      ++keep;
    }
  }
  batch_.resize(keep);

  // Step record: per-sequence events above precede it in emission order,
  // which is what step_trace_from_tracer's single forward scan groups on.
  const std::uint64_t step_end_us = trace_.now_us();
  em_.step_ms->observe(static_cast<double>(step_end_us - step_t0_us) /
                       1000.0);
  trace_.emit({.kind = TraceEventKind::kStep,
               .ts_us = step_end_us,
               .dur_us = step_end_us - step_t0_us,
               .step = step_counter_,
               .a = decoded,
               .b = rows_fed_total,
               .c = kv_pool_.blocks_in_use(),
               .d = kv_pool_.free_blocks()});
  return decoded;
}

void ServingEngine::sample_pass(Sequence& seq, SlotPass& pass) {
  // Row j's logits are bitwise what a one-row pass at that position
  // produces, and the request's own sampler draws from them (one draw per
  // generated token, ever — replay never re-enters here for a token that
  // already exists). A verify burst samples row by row while the sample
  // matches the next fed draft — rejected rows are never sampled from, so
  // every committed token IS the non-speculative stream's token; the first
  // mismatch (or stop) ends it and the unused fed rows roll back bitwise.
  if (pass.sample_from == SlotPass::kNoSample) return;
  for (std::size_t j = pass.sample_from; j < pass.rows; ++j) {
    const std::size_t token = seq.sampler.sample(
        seq.state->chunk_logits_row(j), seq.result.tokens,
        seq.state->sampler_state());
    seq.result.tokens.push_back(token);
    ++pass.sampled;
    // Stop conditions (eos / stop token / stop sequence / budget). The
    // final generated token is pure output either way — feeding it would
    // spend a KV slot and a forward pass on logits nobody reads.
    seq.result.finish_reason =
        check_stop(seq.sampler.params(), seq.result.tokens,
                   seq.result.prompt_len, seq.target_len);
    if (seq.result.finish_reason != FinishReason::kNone) {
      seq.done = true;
      return;
    }
    if (!pass.draft_hit(j, token)) return;
  }
}

void ServingEngine::commit_slot(Sequence& seq, SlotPass& pass,
                                std::chrono::steady_clock::time_point now_tp) {
  const std::size_t n = pass.rows;
  const bool spec = pass.kind == TraceEventKind::kSpecBurst;
  // Rows that stuck: every row of a plain pass, the sampled prefix of a
  // verify burst.
  const std::size_t committed = spec ? pass.sampled : n;
  if (spec) {
    if (committed < n) {
      // Rejected suffix: rewind the KV to the committed rows — bitwise, so
      // the kept prefix stays canonical (prefix-cacheable).
      seq.state->spec_rollback(seq.fed + committed);
    } else {
      seq.state->end_spec_capture();
    }
  }

  seq.fed += committed;  // a burst lands on tokens.size() - 1, the frontier
  if (seq.fed == seq.result.tokens.size() &&
      seq.result.tokens.size() >= seq.target_len) {
    seq.done = true;  // scoring request: every prompt token has been fed
  }
  em_.tokens_decoded->add(n);  // rows executed, incl. rejected verify rows
  if (spec) {
    em_.spec_bursts->add();
    em_.spec_drafted->add(n - 1);
    em_.spec_accepted->add(committed - 1);
    em_.spec_rejected->add(n - committed);
  }
  auto& prio = prio_stats_[seq.priority];
  const bool first_decode = !seq.wait_counted;
  if (first_decode) {
    seq.wait_counted = true;
    prio.queue_wait_steps +=
        static_cast<std::size_t>(step_counter_ - seq.submit_step - 1);
    ++prio.first_decodes;
  }
  if (!seq.ttft_counted && pass.sampled > 0) {
    seq.ttft_counted = true;
    prio.ttft_steps +=
        static_cast<std::size_t>(step_counter_ - seq.submit_step);
    ++prio.first_tokens;
  }
  // Served accounting is charged with tokens actually committed — a
  // fair-share policy must not bill a request for rejected rows it never
  // kept.
  seq.tokens_served += committed;
  prio.tokens_served += committed;
  em_.tokens_committed->add(committed);
  scheduler_->on_served(seq.id, committed);

  const auto to_ms = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  if (first_decode) em_.queue_wait_ms->observe(to_ms(now_tp - seq.submit_tp));
  // Wall-clock latency per sampled token: TTFT on the request's first
  // generated token, ITL between consecutive ones. Tokens of one verify
  // burst share the step's timestamp, so intra-burst ITL is ~0 — the
  // stream really does arrive in bursts.
  for (std::size_t j = 0; j < pass.sampled; ++j) {
    if (!seq.has_token) {
      seq.has_token = true;
      em_.ttft_ms->observe(to_ms(now_tp - seq.submit_tp));
    } else {
      em_.itl_ms->observe(to_ms(now_tp - seq.last_token_tp));
    }
    seq.last_token_tp = now_tp;
  }
  // Per-slot model-pass cost, in the histogram of the pass's kind.
  Histogram* const pass_hist = spec ? em_.spec_verify_ms
                               : pass.kind == TraceEventKind::kChunk
                                   ? em_.prefill_chunk_ms
                                   : em_.decode_ms;
  pass_hist->observe(static_cast<double>(pass.dur_us) / 1000.0);
  trace_.emit({.kind = pass.kind,
               .ts_us = pass.end_us,
               .dur_us = pass.dur_us,
               .step = step_counter_,
               .request = seq.id,
               .a = n,
               .b = pass.pos,
               .c = n * kv_row_bytes_,
               .d = pass.sampled});
}

void ServingEngine::notify_observers(std::size_t decoded) {
  // Sequence states (and their logits buffers) are all still alive. Within
  // a chunk the observer sees every fed position in order, exactly as a
  // token-by-token run would have reported it. A throw here propagates to
  // the caller with the engine in a consistent state; the remaining
  // observer calls of this step are skipped.
  if (!observer_ && !token_observer_ && !logprob_observer_) return;
  for (std::size_t i = 0; i < decoded; ++i) {
    const Sequence& seq = batch_[i];
    const SlotPass& pass = passes_[i];
    // Rows that survived the step: the full feed on every plain path, only
    // the committed prefix of a speculative burst — rejected rows'
    // positions no longer exist, and a baseline run never fed them.
    if (observer_) {
      for (std::size_t j = 0; j < seq.fed - pass.pos; ++j) {
        observer_(seq.id, pass.pos + j, seq.state->chunk_logits_row(j));
      }
    }
    // Streamed tokens follow their positions' logits, in generation order;
    // kNone reason means the stream continues past that token.
    // Token k of the pass was sampled from row sample_from + k.
    for (std::size_t k = 0; k < pass.sampled; ++k) {
      const std::size_t gen_index = seq.result.generated() - pass.sampled + k;
      const std::size_t token =
          seq.result.tokens[seq.result.prompt_len + gen_index];
      const std::size_t row = pass.sample_from + k;
      const FinishReason reason = k + 1 == pass.sampled
                                      ? seq.result.finish_reason
                                      : FinishReason::kNone;
      if (token_observer_) token_observer_(seq.id, gen_index, token, reason);
      if (logprob_observer_) {
        TokenLogprobInfo info;
        info.token = token;
        info.logprob =
            token_logprob(seq.state->chunk_logits_row(row), token);
        info.speculative = pass.kind == TraceEventKind::kSpecBurst;
        info.draft_hit = pass.draft_hit(row, token);
        logprob_observer_(seq.id, gen_index, info);
      }
    }
  }
}

void ServingEngine::run() {
  while (step() > 0) {
  }
}

MetricsRegistry::Snapshot ServingEngine::metrics() const {
  // The registry holds the engine's own event counters and latency
  // histograms. Every other series is counted once, by its owner, and
  // copied in here.
  MetricsRegistry::Snapshot s = registry_.snapshot();
  const auto counter = [&s](std::string name, std::uint64_t value) {
    s.counters.push_back({std::move(name), value});
  };
  const auto gauge = [&s](std::string name, std::size_t value) {
    s.gauges.push_back({std::move(name), static_cast<double>(value)});
  };
  counter("serving.steps", step_counter_);
  gauge("serving.running", batch_.size());
  gauge("serving.queued", queue_.size());
  const Scheduler::Counts& sched = scheduler_->counts();
  counter("scheduler.admission_picks", sched.admission_picks);
  counter("scheduler.blocked_picks", sched.blocked_picks);
  counter("scheduler.victim_picks", sched.victim_picks);
  counter("scheduler.budget_plans", sched.budget_plans);
  const KvBlockPool::Counts& kv = kv_pool_.counts();
  counter("kv_pool.allocations", kv.allocations);
  counter("kv_pool.frees", kv.frees);
  counter("kv_pool.cow_clones", kv.cow_clones);
  gauge("kv_pool.blocks_in_use", kv_pool_.blocks_in_use());
  if (prefix_cache_ != nullptr) {
    const PrefixCache::Stats p = prefix_cache_->stats();
    counter("prefix_cache.lookups", p.lookups);
    counter("prefix_cache.hits", p.hits);
    counter("prefix_cache.hit_positions", p.hit_positions);
    counter("prefix_cache.inserted_columns", p.inserted_columns);
    counter("prefix_cache.reclaimed_blocks", p.reclaimed_blocks);
  }
  if (config_.speculative.enabled()) {
    counter("drafter.calls", drafter_calls_);
    counter("drafter.proposed", drafter_proposed_);
    counter("drafter.accepted", em_.spec_accepted->value());
  }
  if (profiling_) {
    for (std::size_t k = 0; k < kKernelKindCount; ++k) {
      const std::string base =
          "profile.kernel." + to_string(static_cast<KernelKind>(k));
      const KernelStat& stat = profile_total_.kernels[k];
      counter(base + ".calls", stat.calls);
      counter(base + ".elems", stat.elems);
      counter(base + ".ns", stat.ns);
    }
    for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
      const std::string base =
          "profile.phase." + to_string(static_cast<LayerPhase>(p));
      const PhaseStat& stat = profile_total_.phases[p];
      counter(base + ".calls", stat.calls);
      counter(base + ".ns", stat.ns);
    }
  }
  return s;
}

ServingEngine::Stats ServingEngine::stats() const {
  Stats s;
  s.blocks_in_use = kv_pool_.blocks_in_use();
  s.blocks_free = kv_pool_.free_blocks();
  s.blocks_peak = kv_pool_.peak_blocks_in_use();
  s.blocks_reclaimable = kv_pool_.reclaimable_blocks();
  s.running = batch_.size();
  s.queued = queue_.size();
  s.evictions = static_cast<std::size_t>(em_.evictions->value());
  s.preemptions = static_cast<std::size_t>(em_.preemptions->value());
  s.tokens_decoded = static_cast<std::size_t>(em_.tokens_decoded->value());
  s.steps = static_cast<std::size_t>(step_counter_);
  s.spec_bursts = static_cast<std::size_t>(em_.spec_bursts->value());
  s.spec_drafted = static_cast<std::size_t>(em_.spec_drafted->value());
  s.spec_accepted = static_cast<std::size_t>(em_.spec_accepted->value());
  s.spec_rejected = static_cast<std::size_t>(em_.spec_rejected->value());
  if (prefix_cache_ != nullptr) {
    const auto p = prefix_cache_->stats();
    s.prefix_hits = p.hits;
    s.prefix_misses = p.lookups - p.hits;
    s.prefix_hit_tokens = p.hit_positions;
    s.prefix_cached_blocks = p.cached_blocks;
    s.prefix_reclaimed_blocks = p.reclaimed_blocks;
  }
  s.by_priority = prio_stats_;
  s.finish_reasons = finish_counts_;
  return s;
}

RequestResult ServingEngine::result(RequestId id) const {
  if (const auto it = done_.find(id); it != done_.end()) return it->second;
  for (const auto& seq : batch_) {
    if (seq.id == id) return seq.result;
  }
  for (const auto& seq : queue_) {
    if (seq.id == id) return seq.result;
  }
  throw std::invalid_argument("ServingEngine::result: unknown request id");
}

bool ServingEngine::finished(RequestId id) const {
  // Status-only lookup: no RequestResult copy (result() returns by value).
  if (done_.contains(id)) return true;  // done_ holds finished/evicted only
  for (const auto& seq : batch_) {
    if (seq.id == id) return false;
  }
  for (const auto& seq : queue_) {
    if (seq.id == id) return false;
  }
  throw std::invalid_argument("ServingEngine::finished: unknown request id");
}

}  // namespace opal
