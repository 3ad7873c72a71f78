#include "common/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/replay.h"
#include "common/trace.h"

namespace opal {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, HoldsLastWrite) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(Histogram, CountSumMinMaxExact) {
  Histogram h(std::vector<double>{1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(0.5);
  h.observe(5.0);
  h.observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 505.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 505.5 / 3.0);
  // bucket layout: (-inf,1], (1,10], (10,100], overflow
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Histogram, QuantilesClampedToObservedRange) {
  Histogram h(std::vector<double>{1.0, 10.0, 100.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  // Every observation in one bucket: interpolation cannot leave [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, QuantileOrderingAcrossBuckets) {
  Histogram h(std::vector<double>{1.0, 10.0, 100.0, 1000.0});
  for (int i = 0; i < 50; ++i) h.observe(5.0);
  for (int i = 0; i < 45; ++i) h.observe(50.0);
  for (int i = 0; i < 5; ++i) h.observe(500.0);
  const double p50 = h.quantile(0.5);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 1.0);    // p50 lands in the (1,10] bucket
  EXPECT_LE(p50, 10.0);
  EXPECT_GT(p99, 100.0);  // p99 lands in the tail
  EXPECT_LE(p99, 500.0);  // clamped to the observed max
}

TEST(Histogram, DefaultBoundsCoverMicrosecondsToSeconds) {
  const auto bounds = default_latency_bounds_ms();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 0.001);   // ~1us
  EXPECT_GE(bounds.back(), 10000.0);  // >= 10s
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Registry, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  // Registering more metrics must not move earlier handles.
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    reg.counter("c" + n);
    reg.histogram("h" + n);
  }
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(&reg.gauge("g"), &g);
  EXPECT_EQ(&reg.histogram("h"), &h);
  // Same name, different bounds: first registration wins.
  Histogram& h2 = reg.histogram("h", std::vector<double>{1.0});
  EXPECT_EQ(&h2, &h);
}

TEST(Registry, SnapshotFindsAndSerializes) {
  MetricsRegistry reg;
  reg.counter("steps").add(7);
  reg.gauge("running").set(3.0);
  reg.histogram("lat_ms").observe(2.5);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("steps"), nullptr);
  EXPECT_EQ(snap.counter_value("steps"), 7u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  ASSERT_NE(snap.find_gauge("running"), nullptr);
  EXPECT_EQ(snap.find_gauge("running")->value, 3.0);
  const auto* h = snap.find_histogram("lat_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->p50, 2.5);  // single sample: clamped to min == max
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"steps\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Trace, DisabledTracerDropsEverything) {
  Tracer t(false, 8);
  t.emit({.kind = TraceEventKind::kStep});
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.total_emitted(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, RingOverwritesOldestFirst) {
  Tracer t(true, 4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    t.emit({.kind = TraceEventKind::kStep, .step = i});
  }
  EXPECT_EQ(t.total_emitted(), 6u);
  const auto events = t.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: steps 2, 3, 4, 5 survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].step, i + 2);
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, EmitStampsTimestamps) {
  Tracer t(true, 8);
  t.emit({.kind = TraceEventKind::kEnqueue, .request = 1});
  const std::uint64_t later = t.now_us();
  const auto events = t.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LE(events[0].ts_us, later);
  // An explicit timestamp is kept.
  t.emit({.kind = TraceEventKind::kStep, .ts_us = 12345});
  EXPECT_EQ(t.events()[1].ts_us, 12345u);
}

TEST(Trace, ChromeExportIsWellFormed) {
  Tracer t(true, 16);
  t.emit({.kind = TraceEventKind::kEnqueue, .request = 3, .a = 10, .b = 18});
  t.emit({.kind = TraceEventKind::kDecode,
          .ts_us = 900,
          .dur_us = 250,
          .step = 1,
          .request = 3,
          .a = 1});
  t.emit({.kind = TraceEventKind::kStep,
          .ts_us = 1000,
          .dur_us = 400,
          .step = 1,
          .a = 1});
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete
  EXPECT_NE(json.find("\"enqueue\""), std::string::npos);
  // Complete events start at ts - dur.
  EXPECT_NE(json.find("\"ts\": 650"), std::string::npos);
}

TEST(Trace, StepTraceGroupsSequenceEventsUnderTheirStep) {
  Tracer t(true, 16);
  t.emit({.kind = TraceEventKind::kChunk,
          .ts_us = 500,
          .dur_us = 100,
          .step = 4,
          .request = 7,
          .a = 8,
          .b = 0,
          .c = 1024});
  t.emit({.kind = TraceEventKind::kSpecBurst,
          .ts_us = 600,
          .dur_us = 80,
          .step = 4,
          .request = 9,
          .a = 3,
          .b = 12,
          .c = 384,
          .d = 2});
  t.emit({.kind = TraceEventKind::kStep,
          .ts_us = 700,
          .dur_us = 300,
          .step = 4,
          .a = 2,
          .b = 11,
          .c = 5,
          .d = 3});
  const std::string json = step_trace_from_tracer(t).to_json();
  EXPECT_NE(json.find("\"opal.step_trace/v4\""), std::string::npos);
  EXPECT_NE(json.find("\"step\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"spec_burst\""), std::string::npos);
  EXPECT_NE(json.find("\"generated\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"blocks_free\": 3"), std::string::npos);
}

TEST(Trace, StepTraceHeaderCarriesInfoAndDropCounts) {
  Tracer t(true, 2);
  t.set_step_info({3, 128, 4, 344, 256, "int8", 16, 8, 64});
  EXPECT_EQ(t.step_info().d_model, 128u);
  // Fill the 2-slot ring, then overwrite both slots: the overwritten kStep
  // counts as a dropped step, the other event as plain truncation.
  t.emit({.kind = TraceEventKind::kStep, .step = 1});
  t.emit({.kind = TraceEventKind::kDecode, .step = 2, .request = 1, .a = 1});
  t.emit({.kind = TraceEventKind::kStep, .step = 2, .a = 1, .b = 1});
  t.emit({.kind = TraceEventKind::kStep, .step = 3, .a = 1, .b = 1});
  EXPECT_EQ(t.truncated_events(), 2u);
  EXPECT_EQ(t.dropped_steps(), 1u);
  const std::string json = step_trace_from_tracer(t).to_json();
  EXPECT_NE(json.find("\"opal.step_trace/v4\""), std::string::npos);
  EXPECT_NE(json.find("\"d_model\": 128"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"int8\""), std::string::npos);
  EXPECT_NE(json.find("\"bits_per_entry\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"max_seq_len\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_steps\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"truncated_events\": 2"), std::string::npos);
  t.clear();
  EXPECT_EQ(t.truncated_events(), 0u);
  EXPECT_EQ(t.dropped_steps(), 0u);
}

TEST(Registry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("serving.steps").add(7);
  reg.gauge("serving.running").set(3.0);
  Histogram& h = reg.histogram("lat_ms", std::vector<double>{1.0, 10.0});
  h.observe(0.5);
  h.observe(0.7);
  h.observe(5.0);
  h.observe(500.0);  // overflow
  const std::string text = reg.snapshot().to_prometheus();
  // Names are sanitized to the Prometheus charset; counters get _total.
  EXPECT_NE(text.find("# TYPE serving_steps_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("serving_steps_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serving_running gauge"), std::string::npos);
  EXPECT_NE(text.find("serving_running 3"), std::string::npos);
  // Histogram buckets are cumulative, closed by le="+Inf" == count.
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 4"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 506."), std::string::npos);
}

TEST(Registry, PrometheusHelpLinesAndDuplicateGuard) {
  MetricsRegistry reg;
  reg.counter("serving.steps").add(7);
  reg.gauge("serving.running").set(3.0);
  // Sanitization collides these two distinct dotted names onto the single
  // family "drift_run_ratio"; exposing it twice is a format violation, so
  // the first registration wins and the collision is dropped.
  reg.gauge("drift.run_ratio").set(1.5);
  reg.gauge("drift_run.ratio").set(9.9);
  const std::string text = reg.snapshot().to_prometheus();
  // Every surviving family leads with a # HELP naming the dotted original.
  EXPECT_NE(text.find("# HELP serving_steps_total OPAL metric "
                      "serving.steps\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP serving_running OPAL metric "
                      "serving.running\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP drift_run_ratio OPAL metric "
                      "drift.run_ratio\n"),
            std::string::npos);
  // One family, one TYPE line, first writer's value.
  std::size_t n = 0;
  for (std::size_t at = text.find("# TYPE drift_run_ratio gauge");
       at != std::string::npos;
       at = text.find("# TYPE drift_run_ratio gauge", at + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 1u);
  EXPECT_NE(text.find("drift_run_ratio 1.5"), std::string::npos);
  EXPECT_EQ(text.find("9.9"), std::string::npos);
}

TEST(Trace, ChromeExportCarriesRingLossMetadata) {
  Tracer t(true, 2);
  t.emit({.kind = TraceEventKind::kStep, .step = 1});
  std::ostringstream clean;
  t.write_chrome_trace(clean);
  EXPECT_NE(clean.str().find("\"otherData\": {\"truncated_events\": 0, "
                             "\"dropped_steps\": 0, \"total_emitted\": 1}"),
            std::string::npos);
  // Overflow the 2-slot ring: the overwritten kStep surfaces in the
  // metadata block exactly as the step-trace header reports it.
  t.emit({.kind = TraceEventKind::kDecode, .step = 2, .request = 1, .a = 1});
  t.emit({.kind = TraceEventKind::kStep, .step = 2, .a = 1});
  std::ostringstream lossy;
  t.write_chrome_trace(lossy);
  EXPECT_NE(lossy.str().find("\"otherData\": {\"truncated_events\": 1, "
                             "\"dropped_steps\": 1, \"total_emitted\": 3}"),
            std::string::npos);
}

TEST(Trace, ToStringCoversEveryKind) {
  EXPECT_EQ(to_string(TraceEventKind::kEnqueue), "enqueue");
  EXPECT_EQ(to_string(TraceEventKind::kAdmit), "admit");
  EXPECT_EQ(to_string(TraceEventKind::kPrefixHit), "prefix_hit");
  EXPECT_EQ(to_string(TraceEventKind::kChunk), "chunk");
  EXPECT_EQ(to_string(TraceEventKind::kDecode), "decode");
  EXPECT_EQ(to_string(TraceEventKind::kSpecBurst), "spec_burst");
  EXPECT_EQ(to_string(TraceEventKind::kBudgetShrink), "budget_shrink");
  EXPECT_EQ(to_string(TraceEventKind::kPreempt), "preempt");
  EXPECT_EQ(to_string(TraceEventKind::kEvict), "evict");
  EXPECT_EQ(to_string(TraceEventKind::kFinish), "finish");
  EXPECT_EQ(to_string(TraceEventKind::kStep), "step");
}

}  // namespace
}  // namespace opal
