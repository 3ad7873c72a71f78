// Serving metrics registry: counters, gauges, and fixed-bucket latency
// histograms with p50/p95/p99 extraction.
//
// This is the wall-clock side of the stack's observability layer (the
// structured event tracer is common/trace.h). ServingEngine owns one
// MetricsRegistry per engine for its own event counters and latency
// histograms. The subsystems it composes — Scheduler, KvBlockPool,
// PrefixCache — keep their counts as plain members and hold no registry
// handle; ServingEngine::metrics() appends those counts to the registry's
// snapshot, so one snapshot covers the whole serving stack and every event
// is counted in exactly one place.
//
// Contract:
//   * Metric objects are registered once by name and live as long as the
//     registry (stable addresses — callers cache Counter*/Histogram*
//     pointers and increment through them with no lookup on the hot path).
//   * Mutation is lock-free because it is not synchronized at all: like
//     KvBlockPool, all mutation must be externally serialized (ServingEngine
//     touches metrics only from its serial phases; the one parallel-phase
//     measurement — per-sequence decode timing — is recorded into per-slot
//     scratch and observed serially). snapshot() belongs to the same serial
//     domain.
//   * Metrics never feed back into control flow, so an instrumented run is
//     bitwise identical to an uninstrumented one (asserted in
//     tests/test_observability.cpp).
//   * Counters count deterministic engine events (tokens, preemptions,
//     ...) and exactly mirror the corresponding ServingEngine::Stats
//     fields; histograms hold wall-clock measurements (milliseconds by
//     convention — names end in "_ms").
//   * A Snapshot is plain data: a producer may append values it counted
//     elsewhere (ServingEngine::metrics() does) before exporting it.
//
// Histogram quantiles are extracted from the fixed buckets by linear
// interpolation within the bucket that crosses the requested rank, clamped
// to the observed min/max — exact at the tails, bucket-resolution in
// between.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace opal {

/// Monotonic event count. Plain (unsynchronized) — see the header contract.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Default latency bucket upper bounds in milliseconds: ~1us to 10s on a
/// 1-2.5-5 decade grid — wide enough for a microbenchmark step and a
/// multi-second SLO breach in the same histogram.
[[nodiscard]] std::span<const double> default_latency_bounds_ms();

/// Fixed-bucket histogram. bucket i counts observations v with
/// bounds[i-1] < v <= bounds[i]; one extra overflow bucket catches
/// v > bounds.back(). Tracks count/sum/min/max exactly.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::span<const double> bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }  // 0 when empty
  [[nodiscard]] double max() const { return max_; }  // 0 when empty
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Quantile q in [0, 1] (0.5 = p50) by in-bucket linear interpolation,
  /// clamped to [min(), max()]. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::span<const double> bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] std::span<const std::uint64_t> buckets() const {
    return buckets_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  /// The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First use fixes the bucket layout; empty `bounds` means
  /// default_latency_bounds_ms(). Later calls with the same name return the
  /// existing histogram regardless of `bounds`.
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = {});

  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Bucket upper bounds and per-bucket counts (bounds.size() + 1
    /// entries, last = overflow) — what to_prometheus renders cumulatively.
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  /// Point-in-time copy of every registered metric, in registration order.
  struct Snapshot {
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /// nullptr when `name` is not registered.
    [[nodiscard]] const CounterValue* find_counter(
        std::string_view name) const;
    [[nodiscard]] const GaugeValue* find_gauge(std::string_view name) const;
    [[nodiscard]] const HistogramValue* find_histogram(
        std::string_view name) const;

    /// Convenience for tests/benches: the counter's value, or 0 when absent.
    [[nodiscard]] std::uint64_t counter_value(std::string_view name) const {
      const CounterValue* c = find_counter(name);
      return c != nullptr ? c->value : 0;
    }

    /// {"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum, min, max, mean, p50, p95, p99}}} — the machine-readable
    /// form the SLO bench persists.
    [[nodiscard]] std::string to_json() const;

    /// Prometheus text exposition format (version 0.0.4): counters as
    /// `<name>_total`, gauges verbatim, histograms in the cumulative form —
    /// `<name>_bucket{le="<bound>"}` per bound plus le="+Inf", then
    /// `<name>_sum` / `<name>_count`. Metric names are sanitized to the
    /// Prometheus charset (dots and other invalid characters become '_').
    /// Each family carries a # TYPE line.
    [[nodiscard]] std::string to_prometheus() const;
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  // Deques: stable addresses across registration (handles are cached).
  struct Named {
    std::string name;
    std::size_t index = 0;
  };
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Named> counter_names_;
  std::vector<Named> gauge_names_;
  std::vector<Named> histogram_names_;
};

}  // namespace opal
