#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace servebench {

std::uint64_t SeedRng::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeedRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t SeedRng::between(std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
}

namespace {

using opal::Request;

/// Closed-loop rounds: `per_second` rounds for every requested second,
/// and at least 100 requests in all.
std::size_t round_count(double seconds, double per_second,
                        std::size_t per_round) {
  const auto by_time =
      static_cast<std::size_t>(std::ceil(seconds * per_second));
  const std::size_t by_samples = (100 + per_round - 1) / per_round;
  return std::max(by_time, by_samples);
}

/// `clients` x `per_client` requests per round, each made by `make`.
template <typename Make>
void fill_rounds(Workload& w, std::size_t n_rounds, std::size_t clients,
                 std::size_t per_client, Make&& make) {
  w.rounds.assign(n_rounds, std::vector<std::vector<Request>>(clients));
  for (auto& round : w.rounds) {
    for (auto& list : round) {
      for (std::size_t i = 0; i < per_client; ++i) list.push_back(make());
    }
  }
}

std::vector<std::size_t> random_tokens(SeedRng& rng, std::size_t n,
                                       std::size_t vocab) {
  std::vector<std::size_t> out(n);
  for (auto& t : out) t = rng.between(0, vocab - 1);
  return out;
}

// chat-poisson: users arriving on their own: Poisson arrivals at 20 req/s
// of model time (see serve.cpp), which keeps the engine about 40% busy, so
// arrivals queue in bursts but TTFT measures service, not a growing
// backlog. Each request continues one of 16 conversations, so prefix
// sharing sets latency; the cache is warmed with the histories before
// timing because cold misses make the TTFT tail bimodal.
Workload chat_poisson(std::uint64_t seed, double seconds, std::size_t vocab) {
  constexpr double kRate = 20.0;  // requests per second
  constexpr std::size_t kConversations = 16;
  constexpr std::size_t kHistory = 96;  // six full KV blocks
  constexpr std::size_t kFresh = 16;
  constexpr std::size_t kTraced = 300;

  Workload w;
  w.name = "chat-poisson";
  w.kv_mode = opal::KvQuantMode::kInt8;
  w.serving.max_batch = 8;
  w.serving.prefill_chunk_tokens = 16;
  w.serving.enable_prefix_cache = true;
  w.open_loop = true;
  w.slo = {50.0, 15.0};

  SeedRng rng(seed);
  for (std::size_t c = 0; c < kConversations; ++c) {
    w.warm_prompts.push_back(random_tokens(rng, kHistory, vocab));
  }
  // Four model seconds per requested second, which serve in roughly
  // 0.75 * `seconds` of CPU time on a quiet x86 core; the re-serve alone
  // takes about as long again. Fewer made the TPOT and tail percentiles
  // depend on the seed's bursts. A Poisson process conditioned on its
  // arrival count: n uniform due times over n / rate seconds, sorted. The
  // offered load is then exactly the rate; seeds differ in burstiness, not
  // in work.
  const auto n = std::max<std::size_t>(
      100, static_cast<std::size_t>(std::lround(4.0 * kRate * seconds)));
  const double span_s = static_cast<double>(n) / kRate;
  std::vector<double> due(n);
  for (double& d : due) d = rng.uniform() * span_s;
  std::sort(due.begin(), due.end());
  for (const double d : due) {
    Arrival a;
    a.due_s = d;
    a.request.prompt = w.warm_prompts[rng.between(0, kConversations - 1)];
    const auto fresh = random_tokens(rng, kFresh, vocab);
    a.request.prompt.insert(a.request.prompt.end(), fresh.begin(), fresh.end());
    a.request.max_new_tokens = rng.between(16, 32);
    w.arrivals.push_back(std::move(a));
  }
  w.traced_arrivals = std::min(kTraced, w.arrivals.size());
  return w;
}

// decode-batch: callers that each wait for their reply (closed loop, 8
// clients), long seeded top-p generations from short prompts. Every pass
// is a single-row decode at full batch with KV growing to ~236 positions;
// the lengths are seeded so clients finish at different times. The only
// workload with the thread pool and a non-greedy sampler, and the one that
// bypasses the prefix cache, the drafter and multi-row passes.
Workload decode_batch(std::uint64_t seed, double seconds,
                      std::size_t vocab) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 3;
  // About 1.2 s of CPU time (0.6 s of wall time) per round on a quiet
  // 4-vCPU x86 VM; the metrics vary least from seed to seed here, so it
  // serves the fewest rounds.
  constexpr double kRoundsPerSecond = 0.5;

  Workload w;
  w.name = "decode-batch";
  w.kv_mode = opal::KvQuantMode::kLog2;
  w.serving.max_batch = kClients;
  w.serving.n_threads = 2;
  w.slo = {120.0, 10.0};

  SeedRng rng(seed);
  fill_rounds(w, round_count(seconds, kRoundsPerSecond, kClients * kPerClient),
              kClients, kPerClient, [&] {
                Request r;
                r.prompt = random_tokens(rng, 12, vocab);
                r.max_new_tokens = rng.between(96, 224);
                r.sampling.policy = opal::SamplePolicy::kTopP;
                r.sampling.temperature = 0.8f;
                r.sampling.top_p = 0.9f;
                r.sampling.seed = rng.next();
                return r;
              });
  return w;
}

// quote-spec: prompts that quote a passage several times, so n-gram
// prompt lookup drafts well and most rows run in multi-row verify and
// prefill passes. The repetition penalty makes the model stray from the
// quote now and then, so a share of drafts is rejected and rolled back.
Workload quote_spec(std::uint64_t seed, double seconds, std::size_t vocab) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 3;
  // About 0.6 s of CPU time per round on a quiet x86 core; its TPOT median
  // moves with how well each seed's passages draft, so it serves the
  // most rounds.
  constexpr double kRoundsPerSecond = 1.1;
  constexpr std::size_t kPassage = 48;
  constexpr std::size_t kRepeats = 4;  // 192-token prompts

  Workload w;
  w.name = "quote-spec";
  w.kv_mode = opal::KvQuantMode::kFp32;
  w.serving.max_batch = kClients;
  w.serving.prefill_chunk_tokens = 16;
  w.serving.speculative.policy = opal::DraftPolicy::kNgram;
  w.serving.speculative.draft_tokens = 4;
  w.slo = {750.0, 15.0};

  SeedRng rng(seed);
  fill_rounds(w, round_count(seconds, kRoundsPerSecond, kClients * kPerClient),
              kClients, kPerClient, [&] {
                Request r;
                const auto passage = random_tokens(rng, kPassage, vocab);
                for (std::size_t k = 0; k < kRepeats; ++k) {
                  r.prompt.insert(r.prompt.end(), passage.begin(),
                                  passage.end());
                }
                r.max_new_tokens = rng.between(24, 40);
                r.sampling.repetition_penalty = 1.3f;
                return r;
              });
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chat-poisson",
                                                 "decode-batch", "quote-spec"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, std::size_t vocab) {
  if (name == "chat-poisson") return chat_poisson(seed, seconds, vocab);
  if (name == "decode-batch") return decode_batch(seed, seconds, vocab);
  if (name == "quote-spec") return quote_spec(seed, seconds, vocab);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace servebench
