#include "common/trace.h"

#include <ostream>

namespace opal {

std::string to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kAdmit:
      return "admit";
    case TraceEventKind::kPrefixHit:
      return "prefix_hit";
    case TraceEventKind::kChunk:
      return "chunk";
    case TraceEventKind::kDecode:
      return "decode";
    case TraceEventKind::kSpecBurst:
      return "spec_burst";
    case TraceEventKind::kBudgetShrink:
      return "budget_shrink";
    case TraceEventKind::kPreempt:
      return "preempt";
    case TraceEventKind::kEvict:
      return "evict";
    case TraceEventKind::kFinish:
      return "finish";
    case TraceEventKind::kStep:
      return "step";
  }
  return "?";
}

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) ring_.reserve(capacity == 0 ? 1 : capacity);
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::emit(TraceEvent event) {
  if (!enabled_) return;
  if (event.ts_us == 0) event.ts_us = now_us();
  if (ring_.size() < ring_.capacity()) {
    ring_.push_back(event);
  } else {
    // Oldest-first overwrite loses an event to the exports: account for it
    // so the step-trace header can flag an incomplete trace.
    ++truncated_;
    if (ring_[head_].kind == TraceEventKind::kStep) ++dropped_steps_;
    ring_[head_] = event;
    head_ = (head_ + 1) % ring_.size();
  }
  ++total_;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  truncated_ = 0;
  dropped_steps_ = 0;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events()) {
    if (!first) out << ",";
    first = false;
    const bool complete = e.dur_us > 0;
    const std::uint64_t start = complete ? e.ts_us - e.dur_us : e.ts_us;
    out << "\n  {\"name\": \"" << to_string(e.kind) << "\", \"ph\": \""
        << (complete ? "X" : "i") << "\", \"ts\": " << start
        << ", \"pid\": 1, \"tid\": " << e.request;
    if (complete) {
      out << ", \"dur\": " << e.dur_us;
    } else {
      out << ", \"s\": \"t\"";
    }
    out << ", \"args\": {\"step\": " << e.step << ", \"a\": " << e.a
        << ", \"b\": " << e.b << ", \"c\": " << e.c << ", \"d\": " << e.d
        << "}}";
  }
  // Ring-loss accounting as Chrome's free-form metadata block, so a viewer
  // (or a consumer script) can tell a complete capture from a truncated
  // one without the step-trace export.
  out << "\n], \"otherData\": {\"truncated_events\": " << truncated_
      << ", \"dropped_steps\": " << dropped_steps_
      << ", \"total_emitted\": " << total_ << "}}\n";
}

}  // namespace opal
