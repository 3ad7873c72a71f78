#include "serve.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cpu_clock.h"
#include "eval/schemes.h"
#include "llm/engine.h"
#include "probe.h"

namespace servebench {

namespace {

using Clock = CpuClock;

constexpr std::uint64_t kModelSeed = 7;
// Comfortably above the events of the longest traced run; a run that still
// overflows it fails (a partial trace would understate energy).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
// Model-clock cost of one executed row: this model's measured host cost
// per decode or prefill row (about 0.5 ms on one x86 core).
constexpr double kModelSecondsPerRow = 0.5e-3;
// Serving time between two host probes of an open loop, at least.
constexpr double kProbeEverySeconds = 0.1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Records the benchmark's own timestamp of every generated token.
class TokenClock {
 public:
  TokenClock(opal::ServingEngine& engine, Run& run, Clock::time_point t0)
      : engine_(engine), run_(run), t0_(t0) {
    engine_.set_token_observer(
        [this](opal::RequestId id, std::size_t, std::size_t,
               opal::FinishReason) {
          run_.requests[index_.at(id)].token_s.push_back(now_s());
        });
  }
  ~TokenClock() { engine_.set_token_observer({}); }
  TokenClock(const TokenClock&) = delete;
  TokenClock& operator=(const TokenClock&) = delete;

  /// Seconds since the run started, less the time spent in probes.
  double now_s() const { return seconds_since(t0_); }

  /// Runs the host probe with the clock stopped. Only while no request is
  /// in flight, so no latency spans it.
  void probe() {
    const auto t = Clock::now();
    run_.probe_ms.push_back(host_probe_ms());
    t0_ += Clock::now() - t;
  }

  opal::RequestId submit(std::size_t source, const opal::Request& request,
                         double due_s) {
    ServedRequest served;
    served.source = source;
    served.due_s = due_s;
    served.submit_s = now_s();
    run_.requests.push_back(std::move(served));
    const opal::RequestId id = engine_.submit(request);
    index_[id] = run_.requests.size() - 1;
    return id;
  }

  void step() {
    const auto t = Clock::now();
    if (engine_.step() == 0) {
      throw std::runtime_error("engine stalled with requests in flight");
    }
    run_.step_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
  }

  /// Moves a finished request's result into the run and drops it from the
  /// engine. False while it is still in flight.
  bool harvest(opal::RequestId id) {
    if (!engine_.finished(id)) return false;
    run_.requests[index_.at(id)].result = engine_.result(id);
    engine_.release(id);
    index_.erase(id);
    return true;
  }

 private:
  opal::ServingEngine& engine_;
  Run& run_;
  Clock::time_point t0_;
  std::unordered_map<opal::RequestId, std::size_t> index_;
};

// Arrivals fall due on a model clock, not on the host's: it advances by
// kModelSecondsPerRow for every row the engine executes and skips idle
// time. Which requests share a step is then a function of the seed alone,
// so a host whose speed drifts (by up to 2x on a shared machine) scales the
// latencies instead of moving the load between queueing regimes. A request
// that falls due inside a step is due, on the host clock, at the matching
// point of that step, and is submitted when the step returns.
void serve_open(opal::ServingEngine& engine, const Workload& w,
                std::size_t count, Run& run, Clock::time_point t0) {
  TokenClock clock(engine, run, t0);
  std::vector<opal::RequestId> active;
  std::size_t next = 0;
  double model_s = 0.0;
  // The last step on both clocks.
  double model0 = 0.0, model1 = 0.0, host0 = 0.0, host1 = 0.0;
  std::size_t rows = engine.stats().tokens_decoded;
  double probed_s = 0.0;
  while (next < count || !active.empty()) {
    if (active.empty()) {
      if (clock.now_s() - probed_s >= kProbeEverySeconds) {
        clock.probe();
        probed_s = clock.now_s();
      }
      model_s = std::max(model_s, w.arrivals[next].due_s);
    }
    for (; next < count && w.arrivals[next].due_s <= model_s; ++next) {
      const double due = w.arrivals[next].due_s;
      const double due_host =
          due > model0 && due <= model1
              ? host0 + (due - model0) / (model1 - model0) * (host1 - host0)
              : clock.now_s();
      active.push_back(clock.submit(next, w.arrivals[next].request, due_host));
    }
    host0 = clock.now_s();
    clock.step();
    host1 = clock.now_s();
    const std::size_t rows_now = engine.stats().tokens_decoded;
    model0 = model_s;
    model_s += kModelSecondsPerRow * static_cast<double>(rows_now - rows);
    model1 = model_s;
    rows = rows_now;
    std::erase_if(active,
                  [&](opal::RequestId id) { return clock.harvest(id); });
  }
}

void serve_closed(opal::ServingEngine& engine, const Workload& w,
                  std::size_t round, Run& run, Clock::time_point t0) {
  TokenClock clock(engine, run, t0);
  const auto& lists = w.rounds[round];
  struct Client {
    std::size_t next = 0;     // next request of its list
    std::size_t base = 0;     // its list's offset in request_table()
    opal::RequestId id = 0;   // in flight, 0 = done
  };
  std::vector<Client> clients(lists.size());
  std::size_t base = 0;
  for (std::size_t r = 0; r < round; ++r) {
    for (const auto& list : w.rounds[r]) base += list.size();
  }
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c].base = base;
    base += lists[c].size();
  }
  auto send_next = [&](std::size_t c) {
    Client& cl = clients[c];
    cl.id = 0;
    if (cl.next == lists[c].size()) return;
    // A closed-loop request is due the moment its client sends it.
    cl.id = clock.submit(cl.base + cl.next, lists[c][cl.next],
                         clock.now_s());
    ++cl.next;
  };
  for (std::size_t c = 0; c < clients.size(); ++c) send_next(c);
  for (;;) {
    bool any = false;
    for (const Client& cl : clients) any = any || cl.id != 0;
    if (!any) break;
    clock.step();
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (clients[c].id != 0 && clock.harvest(clients[c].id)) send_next(c);
    }
  }
}

/// Totals and exported surfaces of a finished run.
void finish_run(opal::ServingEngine& engine, std::size_t rows_before,
                Run& run) {
  for (const ServedRequest& r : run.requests) {
    if (!r.token_s.empty()) run.span_s = std::max(run.span_s, r.token_s.back());
    run.prompt_tokens += r.result.prompt_len;
    run.generated += r.result.generated();
  }
  run.stats = engine.stats();
  run.rows = run.stats.tokens_decoded - rows_before;
  if (engine.tracer().enabled()) {
    run.trace = opal::step_trace_from_tracer(engine.tracer());
    run.events = engine.tracer().events();
  }
  if (engine.profiling()) run.profile = engine.profile();
}

}  // namespace

ModelStack build_model(opal::KvQuantMode kv_mode) {
  ModelStack stack;
  stack.model = std::make_unique<opal::SyntheticModel>(
      opal::scaled_for_eval(opal::llama2_7b(), 128, 4, 512), kModelSeed);
  opal::calibrate_logit_scale(*stack.model, 24, 8);
  opal::EngineConfig cfg =
      opal::scheme_mx_opal(4, 4, 7, /*log2_softmax=*/true);
  cfg.max_seq_len = 512;
  cfg.kv_block_size = 16;
  cfg.kv_mode = kv_mode;
  stack.prepared = std::make_shared<const opal::PreparedModel>(*stack.model,
                                                               cfg);
  return stack;
}

std::unique_ptr<opal::ServingEngine> make_engine(const ModelStack& stack,
                                                 const Workload& w,
                                                 bool trace, bool profile) {
  opal::ServingConfig cfg = w.serving;
  cfg.trace = trace;
  cfg.trace_capacity = kTraceCapacity;
  cfg.profile = profile;
  auto engine = std::make_unique<opal::ServingEngine>(stack.prepared, cfg);
  for (const auto& prompt : w.warm_prompts) {
    opal::Request warm;
    warm.prompt = prompt;
    const opal::RequestId id = engine->submit(std::move(warm));
    engine->run();
    if (engine->result(id).status != opal::RequestStatus::kFinished) {
      throw std::runtime_error("prefix-cache warm-up did not finish");
    }
    engine->release(id);
  }
  // Warming must not show in a traced run's step trace.
  engine->tracer().clear();
  return engine;
}

std::vector<const opal::Request*> request_table(const Workload& w) {
  std::vector<const opal::Request*> table;
  for (const Arrival& a : w.arrivals) table.push_back(&a.request);
  for (const auto& round : w.rounds) {
    for (const auto& list : round) {
      for (const opal::Request& r : list) table.push_back(&r);
    }
  }
  return table;
}

Run serve_arrivals(opal::ServingEngine& engine, const Workload& w,
                   std::size_t count) {
  Run run;
  const std::size_t rows_before = engine.stats().tokens_decoded;
  serve_open(engine, w, count, run, Clock::now());
  finish_run(engine, rows_before, run);
  return run;
}

Run serve_round(opal::ServingEngine& engine, const Workload& w,
                std::size_t round) {
  Run run;
  const std::size_t rows_before = engine.stats().tokens_decoded;
  serve_closed(engine, w, round, run, Clock::now());
  finish_run(engine, rows_before, run);
  return run;
}

std::vector<opal::RequestResult> serve_alone(const ModelStack& stack,
                                             const Workload& w,
                                             std::size_t threads) {
  const auto table = request_table(w);
  std::vector<opal::RequestResult> out(table.size());
  opal::ServingConfig cfg;
  cfg.max_batch = 1;
  cfg.prefill_chunk_tokens = w.serving.prefill_chunk_tokens;
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        opal::ServingEngine engine(stack.prepared, cfg);
        for (std::size_t i = t; i < table.size(); i += threads) {
          const opal::RequestId id = engine.submit(*table[i]);
          engine.run();
          out[i] = engine.result(id);
          engine.release(id);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

}  // namespace servebench
