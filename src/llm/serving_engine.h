// Batched serving layer over an immutable PreparedModel.
//
// ServingEngine runs continuous batching: a request queue feeds up to
// `max_batch` concurrently running sequences, each with its own
// SequenceState, all decoding against one shared PreparedModel. Sequences
// at different positions (one mid-prompt, one deep into generation) coexist
// in the same batch. A slot freed by a completed sequence is refilled from
// the queue at the start of the next step (the newly admitted sequence
// would not decode any earlier if admitted sooner); a KV-exhaustion
// eviction refills within the same step.
//
// A step is three phases over passes_, one SlotPass per running sequence
// and the only per-slot state of the step:
//   * plan() (serial) retires and evicts, admits, sets each slot's budget
//     and drafts, resolves pool pressure, then reserves every KV block the
//     step writes, types each pass (its feed, and the rows the sampling
//     walk reads) and splits the batch into pass groups: contiguous slot
//     ranges balanced by rows (see ServingConfig::n_threads). It is the
//     only phase that touches the KV pool or sizes a buffer the parallel
//     pass writes (KV blocks, logits rows, each group's PassScratch,
//     sampler scratch).
//   * run_passes() runs, per group, one PreparedModel::prefill_group over
//     its members — so each weight matrix is streamed once per group, not
//     once per slot — and then each member's sampling walk over the rows
//     its pass produced, in slot order: the request's own sampler, RNG
//     stream, tokens and stop check. Groups fan out across a thread pool
//     when n_threads > 0. It touches neither the pool nor engine-wide state
//     and allocates nothing; PreparedModel is const, a group pass is
//     bitwise each member's pass alone, and each group writes only its own
//     members' Sequence and SlotPass and its own scratch and profile, so
//     results are bitwise identical to the serial schedule.
//   * commit() (serial) applies the outcome, per slot: speculative
//     rollback, fed counters, Stats and Scheduler::on_served, histograms
//     and the trace; then the observers, the only user code a step calls;
//     then retirement and the step record.
//
// Scheduling is a pluggable policy (ServingConfig::scheduler, see
// scheduler.h): each step the engine asks the scheduler which queued
// request to admit next, how many tokens each running sequence may process
// (its budget), and — under pool pressure — which runner to preempt. The
// engine guarantees around every policy:
//   * a budget of 1 is always honored: every running sequence advances at
//     least one token per step it decodes in (no policy can starve a
//     runner);
//   * budgets above 1 apply only to KNOWN tokens (prompt prefill and
//     post-preemption replay) and are clamped to prefill_chunk_tokens and
//     the sequence's remaining KV space;
//   * under pool pressure budgets shrink back to 1 BEFORE any sequence is
//     preempted. When the scheduler's admission candidate cannot get its KV
//     blocks, the engine asks the policy again, passing the blocked queue
//     indices (Scheduler::pick_admission), so a small request can admit
//     around a memory-blocked large one; FIFO, whose bitwise contract
//     requires strict arrival order, declines, keeping head-of-line
//     semantics (nothing jumps the blocked candidate). A
//     blocked candidate keeps its queue position but drops any prefix it
//     adopted (no queued request holds KV blocks), and is retried first on
//     later steps;
//   * scheduler hooks fire only from the serial plan() and commit() — never
//     concurrently, never re-entrantly (see scheduler.h for the full
//     contract, including what stateful policies may assume).
// Because per-sequence computation is deterministic and preemption replays
// bitwise, every policy returns token-for-token identical results per
// request; policies only reorder who gets them first.
//
// Chunked prefill (ServingConfig::prefill_chunk_tokens > 1): sequences
// with multiple known tokens feed them as one multi-row member of the
// step's group pass (PreparedModel::prefill_group), bitwise identical to
// that many single steps in every kv_mode — so a long prompt
// reaches its first generated token in prompt/chunk steps instead of
// prompt steps, and short requests interleave with it instead of waiting
// behind a token-by-token prefill. The logits observer still fires once
// per fed position; with no observer set, a pass computes logits only for
// the rows the sampling walk reads (SlotPass::logit_rows).
//
// Sampling (Request::sampling, see sampler.h): once a sequence's known
// tokens are fed, the frontier logits — after a chunk, the chunk-final
// position's — go through the request's Sampler: greedy argmax by default
// (bitwise identical to the historical engine), or the seeded temperature
// -> top-k -> top-p pipeline, either one with repetition-penalty and
// logit-bias hooks. The
// per-request RNG stream is counter-based and rides in the sequence's
// SequenceState (checkpointed across full KV release); replayed tokens are
// fed as known tokens without re-sampling, so the emitted stream is
// invariant to batching, scheduling policy, chunk width, threading, and
// preemption. Stop conditions (eos / stop tokens / stop sequences /
// max_new_tokens) retire the request with a FinishReason
// (RequestResult::finish_reason, cumulative Stats::finish_reasons), and an
// optional TokenObserver streams each sampled token as it is produced.
//
// Speculative decoding (ServingConfig::speculative, see drafter.h): a
// per-request Drafter proposes k continuation tokens for a sequence at its
// generation frontier; the engine feeds [frontier, d1..dk] as one
// multi-row group member, a verify burst — block reservation covers all
// k+1 rows up front — and then walks the per-row logits in order, running the
// request's own sampler on each row (one draw per generated token, exactly
// the non-speculative discipline). Each sampled token is committed
// unconditionally; the burst continues only while the sample matches the
// next fed draft, and the rejected suffix is rolled back bitwise with
// SequenceState::spec_rollback (quantized boundary blocks are snapshot-
// replayed, so the kept prefix stays canonical and prefix-cacheable).
// Committed output is therefore BITWISE identical to the non-speculative
// engine for every sampler, seed, kv_mode, thread count, and preemption
// pattern — speculation only changes how many model passes it takes. Under
// pool pressure a burst's budget shrinks back to 1 like any chunk,
// degrading to plain single-token decode. Stats::spec_* count bursts and
// per-draft accept/reject outcomes; Scheduler::on_served is charged only
// tokens actually committed.
//
// KV memory is paged: every sequence allocates fixed-size blocks from the
// engine's own KvBlockPool (ServingConfig::kv_pool_blocks), quantized per
// the model's EngineConfig::kv_mode.
// The engine is memory-aware end to end:
//   * admission requires free blocks for the candidate's next step, not
//     just a free batch slot;
//   * plan() reserves every running sequence's blocks for its budget;
//   * when the pool cannot cover the batch's next step even at budget 1,
//     the scheduler's victim is preempted — its blocks return to the pool
//     and it re-queues at the front for deterministic recompute — before
//     any hard eviction;
//   * with nothing left to preempt, a lone sequence that the pool still
//     cannot grow is evicted (kEvicted), which guarantees forward progress:
//     queued requests hold no KV blocks, and the pool always holds at least
//     one block column (2 * n_layers blocks).
// Because preemption replays the exact token prefix through fresh blocks,
// serving under memory pressure returns the same tokens as serving with an
// unbounded pool (bitwise in fp32 mode; see test_serving.cpp).
//
// Prefix caching (ServingConfig::enable_prefix_cache): full KV blocks are
// immutable and their contents are a pure function of the token prefix
// that produced them, so the engine keeps a PrefixCache — a radix tree
// over block-aligned token-id chunks — on its pool. At admission it maps
// the longest cached prefix of the request's tokens straight into the
// sequence's block tables (taking references, skipping prefill for those
// positions; at least the final known token is always fed so its logits
// exist to extend from); on release — completion, eviction, or preemption
// — it indexes the sequence's full block columns instead of discarding
// them, which also turns preemption replay into a cache hit. Cached blocks
// no sequence references stay reclaimable: under pool pressure the engine
// reclaims LRU cache entries *before* preempting anything. Prefix-cache
// hits skip the skipped positions' decodes entirely — the logits observer
// does not fire for them — so leave the cache off for teacher-forced
// scoring that must see every position (evaluate_perplexity_batched
// does). Outputs are bitwise identical to a cache-off run in every kv_mode,
// since a cached block holds exactly the codes a replay would recompute.
// The cache is the only way KV outlives a preemption: a preempted sequence
// releases every block, and its indexed columns come back as a hit.
//
// Observability (common/metrics.h, common/trace.h): every serving event
// is counted once, by whoever owns it, and metrics() snapshots the whole
// serving stack at once. The engine's MetricsRegistry holds the engine's
// own series:
//   * deterministic event counters (serving.tokens_decoded /
//     tokens_committed / admissions / preemptions / evictions / finished /
//     budget_shrinks / spec_*); stats() reads its evictions, preemptions,
//     tokens_decoded and spec_* fields straight from them, so the two
//     views cannot drift;
//   * wall-clock latency histograms (serving.queue_wait_ms / ttft_ms /
//     itl_ms / step_ms / decode_ms / prefill_chunk_ms / spec_verify_ms)
//     with p50/p95/p99 extraction — TTFT and inter-token latency are
//     measured per sampled token, step_ms per decoding step, and each
//     slot's model pass lands in the histogram of its kind
//     (SlotPass::kind): decode_ms holds one-row passes of the frontier
//     token, prefill_chunk_ms every other prompt or replay feed (one row or
//     many), spec_verify_ms verify bursts. A slot's pass time is its share
//     of its group pass, apportioned by rows (SlotPass::dur_us).
// The rest are plain counts their owners keep, which metrics() copies into
// the snapshot when it is called: serving.steps and the serving.running /
// serving.queued gauges from the engine's step counter and queues;
// scheduler.* from Scheduler::counts(); kv_pool.* from KvBlockPool::counts()
// and blocks_in_use(); prefix_cache.* from PrefixCache::stats();
// drafter.calls / proposed, counted at the engine's one draft() call site,
// and drafter.accepted, which is serving.spec_accepted; profile.* from
// profile(). A scheduler shared between engines keeps one set of lifetime
// counts, so every sharer reports the traffic of all of them.
// Structured tracing (ServingConfig::trace) records per-request lifecycle
// events (enqueue, admit, prefix-hit, chunk, decode, spec-burst,
// budget-shrink, preempt, evict, finish) and one engine-scoped record per
// step (batch composition, rows fed, block occupancy) into tracer()'s ring
// buffer, exportable as Chrome trace JSON and, through accel/replay.h, as a
// replayable step-trace JSON (see trace.h for the event payloads).
// The contract for ALL of it: instrumentation never feeds back into
// control flow, so an instrumented run is bitwise identical to an
// uninstrumented one — metrics are always on (cheap integer bumps and a
// handful of clock reads per step), tracing is opt-in and costs one
// predictable branch per event when off. run_passes() times each group
// pass into its members' SlotPasses and commit() observes them, so the
// registry needs no synchronization (see metrics.h).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/kernel_profiler.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "llm/drafter.h"
#include "llm/kv_block_pool.h"
#include "llm/prefix_cache.h"
#include "llm/prepared_model.h"
#include "llm/sampler.h"
#include "llm/scheduler.h"
#include "llm/sequence_state.h"

namespace opal {

struct Request {
  /// Tokens fed verbatim (teacher-forced). Must be non-empty.
  std::vector<std::size_t> prompt;
  /// Continuation length after the prompt (0 = pure scoring); stop
  /// conditions in `sampling` may end it sooner.
  std::size_t max_new_tokens = 0;
  /// Scheduling class: higher runs sooner under PriorityScheduler (and any
  /// policy that reads it); FIFO ignores it. Stats are broken out per
  /// priority either way.
  int priority = 0;
  /// How the continuation is sampled, plus stop conditions and the
  /// per-request RNG seed (see sampler.h). The default is the historical
  /// greedy argmax with no stop conditions — bitwise unchanged outputs.
  /// Seeded sampling is scheduling-invariant: identical (seed, sampling,
  /// prompt) produce the identical stream under every scheduler policy,
  /// chunk width, kv_mode, thread count, and across preemption replay.
  SamplingParams sampling = {};
};

enum class RequestStatus : std::uint8_t {
  kQueued,    // waiting for a batch slot
  kRunning,   // occupying a batch slot
  kFinished,  // decoded prompt + max_new_tokens
  kEvicted,   // stopped early: KV limit (max_seq_len or an unservable pool)
};

[[nodiscard]] std::string to_string(RequestStatus status);

struct RequestResult {
  RequestStatus status = RequestStatus::kQueued;
  /// Prompt followed by generated tokens.
  std::vector<std::size_t> tokens;
  std::size_t prompt_len = 0;
  /// Why generation stopped (kNone while running, for pure-scoring
  /// requests, and for kEvicted cutoffs).
  FinishReason finish_reason = FinishReason::kNone;
  /// Tokens generated so far (tokens.size() - prompt_len).
  [[nodiscard]] std::size_t generated() const {
    return tokens.size() - prompt_len;
  }
};

struct ServingConfig {
  /// Maximum concurrently running sequences (batch slots).
  std::size_t max_batch = 8;
  /// Worker threads for the per-step pass fan-out; 0 = serial passes on
  /// the calling thread. The calling thread also runs passes while the
  /// workers do (ThreadPool::parallel_for), so n_threads workers give
  /// n_threads + 1 executors.
  ///
  /// Each step splits the batch into groups, contiguous slot ranges
  /// balanced by rows, and runs one group pass per group (each weight
  /// matrix streamed once for all its rows): min(executors,
  /// ceil(rows / 4), slots) groups, since the AVX2 matvec body shares each
  /// weight vector across blocks of 4 input rows. So n_threads 0 runs one
  /// group of every slot, and 8 one-row decodes on n_threads 2 run as 2
  /// groups of 4 while the third executor idles. On a 4-vCPU x86 host that
  /// served servebench's decode-batch ~15% more output tok/s than one
  /// group per executor (a 3/3/2 split; 6 of 6 alternating pairs).
  /// Grouping never changes a bit.
  std::size_t n_threads = 0;
  /// The engine's KV pool size in blocks: 0 sizes it for max_batch
  /// sequences at full max_seq_len (no preemption possible — the
  /// dense-equivalent footprint); a smaller count serves the same batch in
  /// less memory at the cost of preemptions under pressure. Never below one
  /// block column (2 * n_layers blocks), so a sequence can always start.
  std::size_t kv_pool_blocks = 0;
  /// Reuse KV blocks across requests that share token prefixes (see the
  /// header comment). Off by default because restored positions skip their
  /// decodes, which silences the logits observer for those positions.
  bool enable_prefix_cache = false;
  /// Scheduling policy; null = FifoScheduler. The engine shares ownership;
  /// see scheduler.h for the hook contract and when an instance may be
  /// shared between engines.
  std::shared_ptr<Scheduler> scheduler;
  /// Upper bound on tokens one sequence may process in one step (its
  /// prefill chunk). 1 (the default) reproduces single-token stepping
  /// decision-for-decision; larger values let prompts prefill in
  /// multi-token chunks (multi-row members of a group pass — bitwise
  /// identical results in every kv_mode and fewer steps; each weight matrix
  /// runs one multi-row matvec per group, and prompt rows nobody samples
  /// from skip the vocab GEMV).
  std::size_t prefill_chunk_tokens = 1;
  /// Speculative multi-token decoding (see drafter.h and the header
  /// comment): when enabled(), sequences at their generation frontier
  /// verify up to `speculative.draft_tokens` drafted tokens per model pass.
  /// Committed output stays bitwise identical to speculation off; only the
  /// pass count changes. Independent of prefill_chunk_tokens (a verify
  /// burst reuses the chunked-prefill machinery but is capped by
  /// draft_tokens, not the prefill chunk width).
  SpeculativeConfig speculative;
  /// Structured event tracing (see common/trace.h and the Observability
  /// block above): per-request lifecycle and per-step events into a ring
  /// buffer, exportable via ServingEngine::tracer() as Chrome trace JSON
  /// or replayable step-trace JSON. Tracing never feeds control flow —
  /// traced runs are bitwise identical.
  bool trace = false;
  /// Trace ring capacity in events (oldest overwritten first; overwrites
  /// are counted in the step-trace header as dropped_steps /
  /// truncated_events); size it to the run to lose nothing.
  std::size_t trace_capacity = 1 << 16;
  /// Kernel/layer profiling (see common/kernel_profiler.h): swaps the
  /// KernelOps dispatch table for a timing wrapper that delegates to the
  /// real table, accumulating per-kernel-kind call/element/wall-clock
  /// counts and per-layer phase timings (ServingEngine::profile(), which
  /// metrics() publishes as the profile.* counters). The profile holds
  /// this engine's passes only, unlike the scheduler.* counts of a
  /// scheduler shared between engines, which cover every sharer over its
  /// lifetime. Off (the default), the wrapper is not installed — the hot
  /// path is untouched.
  /// The wrapper calls the underlying kernels with unchanged arguments, so
  /// profiled runs are bitwise identical in every kv_mode.
  bool profile = false;
};

class ServingEngine {
 public:
  /// Shares ownership of the prepared model with the caller.
  ServingEngine(std::shared_ptr<const PreparedModel> model,
                ServingConfig config = {});
  /// Non-owning view: `model` must outlive the engine.
  ServingEngine(const PreparedModel& model, ServingConfig config = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues a request; it starts running once the scheduler picks it and
  /// a batch slot plus enough free KV blocks are available.
  RequestId submit(Request request);

  /// Advances every running sequence by its scheduled token budget
  /// (admitting queued requests into free slots first, resolving KV
  /// pressure by budget-shrink then preemption). Returns the number of
  /// sequences decoded; 0 only once all work has drained (running() and
  /// queued() are both 0).
  std::size_t step();

  /// Steps until all work has drained (see step()).
  void run();

  /// Preempts a running sequence back to the end of the queue, exactly as
  /// memory pressure does: every KV block returns to the pool, and the
  /// decoded tokens are kept and replayed on readmission, deterministically
  /// in every kv_mode. With the prefix cache on, the sequence's full block
  /// columns are indexed first, so replay typically restores them as a
  /// cache hit. Only tests call it: it forces the preemption path at a
  /// chosen step, where memory pressure picks its own victim.
  void preempt(RequestId id);

  /// Snapshot of a request's current result (returned by value: step(),
  /// submit(), and preempt() move sequences between the queue, the batch,
  /// and the finished map, so references into them would not be stable).
  [[nodiscard]] RequestResult result(RequestId id) const;
  /// True once the request will make no further progress — including
  /// kEvicted, where generation was truncated by the KV-cache limit. Check
  /// result(id).status when completeness matters.
  [[nodiscard]] bool finished(RequestId id) const;

  /// Drops all retained finished/evicted results (their ids become unknown
  /// to result()). Long-running servers should call this after harvesting
  /// results; retention is otherwise unbounded.
  void clear_finished() { done_.clear(); }
  /// Drops one harvested result; returns false when `id` is not retained
  /// (still in flight, or already released). Lets a server bound retention
  /// per request instead of all-or-nothing clear_finished().
  bool release(RequestId id) { return done_.erase(id) > 0; }

  /// Sequences currently occupying batch slots / waiting in the queue.
  [[nodiscard]] std::size_t running() const { return batch_.size(); }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  /// Per-priority serving accounting. All step-denominated quantities count
  /// engine steps (deterministic — independent of wall-clock), measured
  /// from submit(): queue_wait is steps spent before the request's first
  /// decode, ttft is steps until its first *generated* token exists
  /// (recorded only for requests with max_new_tokens > 0, counted by
  /// first_tokens).
  struct PriorityClassStats {
    std::size_t submitted = 0;
    std::size_t finished = 0;  // kFinished retirements
    std::size_t evicted = 0;   // kEvicted retirements
    /// Tokens committed (fed positions that stuck): speculative rows that
    /// were rejected and rolled back are excluded, matching
    /// Scheduler::on_served. Stats::tokens_decoded counts executed rows.
    std::size_t tokens_served = 0;
    std::size_t queue_wait_steps = 0;   // cumulative, over first_decodes
    std::size_t first_decodes = 0;
    std::size_t ttft_steps = 0;  // cumulative, over first_tokens
    std::size_t first_tokens = 0;
  };

  /// Point-in-time serving counters; block counts read the engine's pool.
  struct Stats {
    std::size_t blocks_in_use = 0;
    std::size_t blocks_free = 0;
    /// Pool blocks-in-use high-water mark — with prefix sharing, N
    /// sequences over one prompt prefix peak far below N private copies.
    std::size_t blocks_peak = 0;
    /// Cached blocks no sequence references (free capacity in waiting).
    std::size_t blocks_reclaimable = 0;
    std::size_t running = 0;
    std::size_t queued = 0;
    std::size_t evictions = 0;       // cumulative kEvicted retirements
    std::size_t preemptions = 0;     // cumulative (manual + memory pressure)
    std::size_t tokens_decoded = 0;  // cumulative decode positions executed
    std::size_t steps = 0;           // cumulative step() calls
    // Prefix-cache counters (all 0 when enable_prefix_cache is off). The
    // first three count cache lookups, one per admission attempt, not
    // admissions: a candidate blocked on KV memory looks up again on each
    // later attempt, so one admitted request can count several times.
    std::size_t prefix_hits = 0;        // lookups that matched a prefix
    std::size_t prefix_misses = 0;      // lookups that found nothing
    std::size_t prefix_hit_tokens = 0;  // cumulative positions matched
    std::size_t prefix_cached_blocks = 0;     // currently pinned by the cache
    std::size_t prefix_reclaimed_blocks = 0;  // cumulative freed under pressure
    // Speculative-decoding counters (all 0 when speculation is off).
    // Invariants: spec_drafted == spec_accepted + spec_rejected; a burst
    // feeding 1+k rows adds k to spec_drafted and commits 1 + (its accepted
    // drafts) tokens, so committed generation tokens per burst averages
    // tokens_per_burst(). tokens_decoded still counts every executed row,
    // including rejected ones — the compute actually spent.
    std::size_t spec_bursts = 0;    // multi-token verify passes executed
    std::size_t spec_drafted = 0;   // draft tokens fed for verification
    std::size_t spec_accepted = 0;  // draft tokens committed
    std::size_t spec_rejected = 0;  // draft tokens rolled back
    /// Average tokens committed per speculative burst — the ">1 tokens per
    /// model pass" headline; 0.0 before any burst ran.
    [[nodiscard]] double tokens_per_burst() const {
      if (spec_bursts == 0) return 0.0;
      return static_cast<double>(spec_bursts + spec_accepted) /
             static_cast<double>(spec_bursts);
    }
    /// Queue-wait / TTFT / tokens-served accounting per priority level.
    std::map<int, PriorityClassStats> by_priority;
    /// Cumulative kFinished retirements by why they stopped (kNone counts
    /// pure-scoring requests; kEvicted cutoffs are in `evictions`, not
    /// here).
    std::map<FinishReason, std::size_t> finish_reasons;
  };
  [[nodiscard]] Stats stats() const;

  /// Point-in-time snapshot of the serving stack's metrics: the engine's
  /// deterministic counters mirroring Stats and its wall-clock latency
  /// histograms (p50/p95/p99), plus the counts its subsystems keep
  /// (scheduler.*, kv_pool.*, prefix_cache.*, drafter.*, profile.*) — see
  /// the Observability block in the header comment. Serial-phase only,
  /// like stats().
  [[nodiscard]] MetricsRegistry::Snapshot metrics() const;

  /// The engine's event tracer — disabled (and empty) unless
  /// ServingConfig::trace is set. Export with Tracer::write_chrome_trace,
  /// or lift it with step_trace_from_tracer (accel/replay.h) and
  /// StepTrace::to_json.
  [[nodiscard]] Tracer& tracer() { return trace_; }
  [[nodiscard]] const Tracer& tracer() const { return trace_; }

  /// True when this engine profiles its kernel dispatch
  /// (ServingConfig::profile).
  [[nodiscard]] bool profiling() const { return profiling_; }
  /// The run's accumulated kernel/layer profile: per-kernel-kind
  /// call/element/wall-clock counts and per-layer phase timings, merged
  /// from each group pass's profile in commit(). All zero unless
  /// profiling(). Serial-phase only, like stats().
  [[nodiscard]] const KernelProfile& profile() const {
    return profile_total_;
  }

  /// The active scheduling policy (never null; FifoScheduler by default).
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }

  /// The engine's prefix cache (null unless enable_prefix_cache). Exposed
  /// so callers can reclaim()/clear() explicitly — e.g. to shed cache ahead
  /// of load, or to check that no block leaks once the cache is cleared.
  [[nodiscard]] PrefixCache* prefix_cache() { return prefix_cache_.get(); }
  [[nodiscard]] const PrefixCache* prefix_cache() const {
    return prefix_cache_.get();
  }

  /// Observes the logits of every decode, in deterministic slot order
  /// within each step — and, within one sequence's multi-token chunk, in
  /// position order: (request, 0-based position of the fed token, logits).
  /// Speculative verify rows whose tokens were rejected and rolled back do
  /// not fire (their positions do not survive the step), so the observed
  /// (position, logits) stream is exactly the non-speculative run's.
  ///
  /// Contract: the observer fires inside step() after the step's bookkeeping
  /// is complete. It must not call back into this engine (submit/step/
  /// preempt/...) — that would mutate containers step() is iterating. If it
  /// throws, the exception propagates to the step() caller with the engine
  /// in a consistent, continuable state; the remaining observer calls of
  /// that step are skipped.
  using LogitsObserver =
      std::function<void(RequestId, std::size_t, std::span<const float>)>;
  void set_logits_observer(LogitsObserver observer) {
    observer_ = std::move(observer);
  }

  /// Streams generated tokens as they are produced: fires once per SAMPLED
  /// token — never for prompt prefill, replayed tokens after preemption, or
  /// prefix-cache-restored positions, so across any interruption each
  /// generated token is reported exactly once — with (request, 0-based
  /// generated-token index, token, finish reason). `reason` is kNone while
  /// the stream continues and the final reason on its last token, so
  /// callers can harvest incrementally instead of polling result().
  /// Within one step, sequences report in deterministic slot order, each
  /// after its LogitsObserver calls; a speculative verify burst reports its
  /// committed tokens in generation order, so the observed stream is
  /// byte-for-byte the non-speculative one. Same contract as the logits observer:
  /// fires inside step() after bookkeeping, must not call back into the
  /// engine, and a throw propagates with the engine consistent (remaining
  /// observer calls of the step are skipped).
  using TokenObserver =
      std::function<void(RequestId, std::size_t, std::size_t, FinishReason)>;
  void set_token_observer(TokenObserver observer) {
    token_observer_ = std::move(observer);
  }

  /// Per-token diagnostics streamed alongside the token observer.
  struct TokenLogprobInfo {
    std::size_t token = 0;
    /// Normalized log-probability of `token` under the full softmax of the
    /// logits it was sampled from (token_logprob in sampler.h — the
    /// OpenAI-`logprobs`-shaped value; fp32 reference transform, the same
    /// number with or without speculation and the log2 softmax unit).
    float logprob = 0.0f;
    /// Committed by a speculative verify burst (false: plain decode).
    bool speculative = false;
    /// The sampled token matched the draft fed at the next burst row, so
    /// the burst continued through it — per-token acceptance diagnostics
    /// (always false for the burst-final bonus token and for plain decode).
    bool draft_hit = false;
  };

  /// Streams one TokenLogprobInfo per SAMPLED token with (request, 0-based
  /// generated-token index, info) — same cadence, ordering, and exactly-once
  /// guarantee as the TokenObserver (whose contract it shares: fires inside
  /// step() after bookkeeping, right after that token's TokenObserver call;
  /// must not re-enter the engine; a throw propagates with the engine
  /// consistent). Logprobs come from the same logits rows the sampler read,
  /// so the reported values are identical with speculation on or off.
  using TokenLogprobObserver =
      std::function<void(RequestId, std::size_t, const TokenLogprobInfo&)>;
  void set_token_logprob_observer(TokenLogprobObserver observer) {
    logprob_observer_ = std::move(observer);
  }

  [[nodiscard]] const PreparedModel& model() const { return *model_; }
  [[nodiscard]] const KvBlockPool& kv_pool() const { return kv_pool_; }

 private:
  struct Sequence {
    RequestId id = 0;
    RequestResult result;
    int priority = 0;
    std::size_t target_len = 0;  // generation_target(prompt_len, max_new)
    std::size_t fed = 0;         // tokens already decoded into the KV cache
    std::size_t tokens_served = 0;  // cumulative decodes (incl. replays)
    std::uint64_t submit_step = 0;  // step counter at submit()
    bool wait_counted = false;      // queue-wait stat recorded
    bool ttft_counted = false;      // first-token stat recorded
    // Completion is recorded here (not in step-local state) so that an
    // observer throwing on the finishing step cannot strand a completed
    // sequence in the batch and have the next step feed past tokens.end().
    bool done = false;
    // Per-request sampling: the sampler (built once at submit from the
    // request's SamplingParams, which it keeps for the stop conditions)
    // and the RNG-stream checkpoint. While KV is held the live stream sits
    // in state->sampler_state(); sampler_ckpt catches it across a full KV
    // release (release_sequence_kv) and re-seeds the replacement state at
    // admission, so preempt -> readmit resumes the stream at the exact
    // draw (replayed tokens are known tokens and consume no draws).
    Sampler sampler;
    SamplerState sampler_ckpt;
    // Speculative decoding: the request's drafter (built once at submit,
    // null when speculation is off), consulted only from plan(). The burst
    // it drafts belongs to the step's SlotPass, not to the sequence.
    std::unique_ptr<Drafter> drafter;
    // Wall-clock observability (never read by any control path): when the
    // request was submitted, and when its latest sampled token was
    // produced — the anchors for the queue-wait/TTFT/ITL histograms. The
    // step-denominated counterparts above (submit_step, wait_counted,
    // ttft_counted) stay deterministic.
    std::chrono::steady_clock::time_point submit_tp{};
    std::chrono::steady_clock::time_point last_token_tp{};
    bool has_token = false;  // last_token_tp is valid
    // Null until first admitted and after every release; a queued
    // sequence's state, if any, holds no KV blocks.
    std::unique_ptr<SequenceState> state;
  };

  /// One slot's model pass this step, the only per-slot step state:
  /// passes_[i] belongs to batch_[i] from plan() through commit(). plan()
  /// decides everything but the results, once; the other phases read it
  /// here. Reused step after step, so steady-state steps allocate nothing.
  struct SlotPass {
    static constexpr std::size_t kNoSample = static_cast<std::size_t>(-1);
    std::size_t rows = 0;  // the budget: rows fed this step (>= 1)
    /// A verify burst's feed [frontier, d1..dk]; empty for any other pass.
    std::vector<std::size_t> drafts;
    /// kSpecBurst: a verify burst [frontier, drafts...]. kDecode: a single
    /// row that is the frontier (the last known token). kChunk: any other
    /// feed of known prompt or replayed tokens, one row or many.
    TraceEventKind kind = TraceEventKind::kDecode;
    /// The rows fed, in order: `drafts`, or a span of the request's tokens
    /// (reserved at submit, so the sampling walk's appends never move them).
    std::span<const std::size_t> feed;
    std::size_t pos = 0;  // first position fed (KV length before the pass)
    /// The sampling walk's first row: 0 for a burst, the final row of a
    /// plain pass that feeds every known token with generation remaining,
    /// else kNoSample.
    std::size_t sample_from = kNoSample;
    /// Trailing rows whose logits the pass computes: all of them for a
    /// logits observer, else those from sample_from on.
    std::size_t logit_rows = 0;
    // Written by run_passes() (each group its members'), read by commit().
    /// When the group pass holding this slot ended (the model pass only,
    /// not the sampling walks).
    std::uint64_t end_us = 0;
    /// This slot's share of its group pass's duration, apportioned by rows
    /// in integers: the members' shares sum exactly to the group's time.
    std::uint64_t dur_us = 0;
    /// Tokens the sampling walk appended (the tail of the request's
    /// tokens).
    std::size_t sampled = 0;
    /// Row j's sample matched the draft fed at row j + 1: a burst goes on.
    [[nodiscard]] bool draft_hit(std::size_t j, std::size_t token) const {
      return kind == TraceEventKind::kSpecBurst && j + 1 < rows &&
             feed[j + 1] == token;
    }
  };

  /// One group pass of a step: the slots [begin, end) of batch_ and
  /// passes_, run as one PreparedModel::prefill_group. groups_[g] belongs
  /// to one executor from plan() through run_passes().
  struct PassGroup {
    explicit PassGroup(PassScratch s) : scratch(std::move(s)) {}
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t rows = 0;  // fed by all members
    std::vector<PassMember> members;  // one per slot, reserved max_batch
    PassScratch scratch;  // sized in reserve_passes()
    KernelProfile profile;  // the group pass's samples when profiling
  };

  // The step phases (see the header comment). plan() returns false when
  // nothing runs this step: an empty batch.
  bool plan();
  void retire_and_refill();
  void plan_budgets();
  void plan_drafts(Sequence& seq, SlotPass& pass);
  void reserve_passes();
  /// Splits the batch into groups_ (see ServingConfig::n_threads) and
  /// sizes each group's scratch.
  void plan_groups();
  void run_passes();
  /// Returns the number of sequences decoded.
  std::size_t commit(std::uint64_t step_t0_us);
  void sample_pass(Sequence& seq, SlotPass& pass);
  void commit_slot(Sequence& seq, SlotPass& pass,
                   std::chrono::steady_clock::time_point now_tp);
  void notify_observers(std::size_t decoded);

  void admit_from_queue();
  /// Resolves pool pressure for the planned budgets (passes_[i].rows) by
  /// budget-shrink, then cache-reclaim/preemption/eviction. Throws
  /// std::logic_error past its round bound (a bug, never a pool state).
  void ensure_kv_capacity();
  /// Releases batch_[slot]'s KV (caching its prefix first) and requeues it
  /// at the front or the back of the queue.
  void preempt_slot(std::size_t slot, bool to_front);
  /// True once the pool has `target` free blocks, reclaiming LRU prefix
  /// cache entries to get there if needed.
  bool ensure_free_blocks(std::size_t target);
  /// Maps the longest cached prefix of seq's tokens into its empty state.
  void restore_cached_prefix(Sequence& seq);
  /// Indexes seq's full block columns in the prefix cache (no-op when the
  /// cache is off or nothing block-aligned was fed).
  void maybe_cache_prefix(const Sequence& seq);
  /// Releases seq's KV (caching its prefix first) for full recompute.
  void release_sequence_kv(Sequence& seq);
  void finish(Sequence&& seq, RequestStatus status);
  [[nodiscard]] std::size_t blocks_needed(const Sequence& seq) const;
  /// Rebuilds views_ as a SchedRequest snapshot of `container`.
  template <typename Container>
  std::span<const SchedRequest> sched_views(const Container& container);

  std::shared_ptr<const PreparedModel> model_;
  ServingConfig config_;
  MetricsRegistry registry_;
  Tracer trace_;
  /// Metric handles cached at construction (stable for the registry's
  /// lifetime) so the hot path increments pointers, never looks up names.
  /// The counters are the only copy of Stats' cumulative event counts:
  /// stats() reads them back.
  struct EngineMetrics {
    Counter* admissions = nullptr;
    Counter* preemptions = nullptr;
    Counter* evictions = nullptr;
    Counter* finished = nullptr;
    Counter* budget_shrinks = nullptr;
    Counter* tokens_decoded = nullptr;
    Counter* tokens_committed = nullptr;
    Counter* spec_bursts = nullptr;
    Counter* spec_drafted = nullptr;
    Counter* spec_accepted = nullptr;
    Counter* spec_rejected = nullptr;
    Histogram* queue_wait_ms = nullptr;
    Histogram* ttft_ms = nullptr;
    Histogram* itl_ms = nullptr;
    Histogram* step_ms = nullptr;
    Histogram* decode_ms = nullptr;
    Histogram* prefill_chunk_ms = nullptr;
    Histogram* spec_verify_ms = nullptr;
  };
  EngineMetrics em_;
  /// Drafter calls and the tokens they proposed (drafter.calls /
  /// drafter.proposed in metrics()).
  std::uint64_t drafter_calls_ = 0;
  std::uint64_t drafter_proposed_ = 0;
  bool profiling_ = false;
  /// The run total each PassGroup::profile merges into in commit().
  KernelProfile profile_total_;
  std::size_t kv_row_bytes_ = 0;  // KV bytes one fed row writes (all layers)
  std::shared_ptr<Scheduler> scheduler_;
  std::unique_ptr<ThreadPool> pool_;  // null when n_threads == 0
  // Declared before every holder of its blocks (the prefix cache and the
  // sequences), so it is destroyed after them.
  KvBlockPool kv_pool_;
  std::unique_ptr<PrefixCache> prefix_cache_;  // null unless enabled
  std::deque<Sequence> queue_;
  std::vector<Sequence> batch_;
  std::vector<SlotPass> passes_;           // max_batch, reused every step
  /// One per executor (at most max_batch), reused every step; the first
  /// n_groups_ run this step.
  std::vector<PassGroup> groups_;
  std::size_t n_groups_ = 0;
  std::vector<std::size_t> blocked_;       // admission candidates w/o blocks
  std::vector<SchedRequest> views_;        // scheduler-snapshot scratch
  std::vector<std::size_t> sched_budgets_;  // plan_budgets() output scratch
  std::unordered_map<RequestId, RequestResult> done_;
  std::map<int, PriorityClassStats> prio_stats_;
  std::map<FinishReason, std::size_t> finish_counts_;
  LogitsObserver observer_;
  TokenObserver token_observer_;
  TokenLogprobObserver logprob_observer_;
  RequestId next_id_ = 1;
  std::uint64_t step_counter_ = 0;
};

}  // namespace opal
