#include "common/metrics.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "common/tensor.h"

namespace opal {

std::span<const double> default_latency_bounds_ms() {
  // 1-2.5-5 decade grid, 1us .. 10s.
  static const std::array<double, 22> kBounds = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,  0.25,  0.5,   1.0, 2.5,
      5.0,   10.0,   25.0,  50.0, 100.0, 250., 500., 1000., 2500., 5000.,
      10000.0};
  return kBounds;
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1, 0) {
  require(!bounds_.empty(), "Histogram: empty bucket bounds");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    require(bounds_[i - 1] < bounds_[i],
            "Histogram: bucket bounds must be strictly increasing");
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = cum + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within bucket i: lower edge is the previous bound (or
      // the observed min for the first populated bucket), upper edge the
      // bound (or the observed max for the overflow bucket).
      const double lo = i == 0 ? min_ : std::max(min_, bounds_[i - 1]);
      const double hi = i < bounds_.size() ? std::min(max_, bounds_[i]) : max_;
      const double frac =
          (target - static_cast<double>(cum)) /
          static_cast<double>(buckets_[i]);
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
    cum = next;
  }
  return max_;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  for (const Named& n : counter_names_) {
    if (n.name == name) return counters_[n.index];
  }
  counters_.emplace_back();
  counter_names_.push_back({std::string(name), counters_.size() - 1});
  return counters_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  for (const Named& n : histogram_names_) {
    if (n.name == name) return histograms_[n.index];
  }
  histograms_.emplace_back(bounds.empty() ? default_latency_bounds_ms()
                                          : bounds);
  histogram_names_.push_back({std::string(name), histograms_.size() - 1});
  return histograms_.back();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  s.counters.reserve(counter_names_.size());
  for (const Named& n : counter_names_) {
    s.counters.push_back({n.name, counters_[n.index].value()});
  }
  s.histograms.reserve(histogram_names_.size());
  for (const Named& n : histogram_names_) {
    const Histogram& h = histograms_[n.index];
    HistogramValue v;
    v.name = n.name;
    v.count = h.count();
    v.sum = h.sum();
    v.min = h.min();
    v.max = h.max();
    v.p50 = h.quantile(0.50);
    v.p95 = h.quantile(0.95);
    v.p99 = h.quantile(0.99);
    v.bounds.assign(h.bounds().begin(), h.bounds().end());
    v.buckets.assign(h.buckets().begin(), h.buckets().end());
    s.histograms.push_back(std::move(v));
  }
  return s;
}

const MetricsRegistry::CounterValue* MetricsRegistry::Snapshot::find_counter(
    std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsRegistry::GaugeValue* MetricsRegistry::Snapshot::find_gauge(
    std::string_view name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsRegistry::HistogramValue*
MetricsRegistry::Snapshot::find_histogram(std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
// dotted names ("serving.ttft_ms") map onto it by replacing every invalid
// character with '_'.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    out.push_back(alpha || (digit && i > 0) ? c : '_');
  }
  return out.empty() ? "_" : out;
}

void append_number(std::string& out, double v, const char* format) {
  char buf[40];
  std::snprintf(buf, sizeof buf, format, v);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::Snapshot::to_prometheus() const {
  std::string out;
  // Sanitization can collide distinct dotted names onto one Prometheus
  // family name ("a.b_c" and "a_b.c" both become "a_b_c"), and exposing one
  // family twice is a format violation scrapers reject. First registration
  // wins; later collisions are skipped. Counter families claim their
  // "_total"-suffixed name, which is the name scrapers see.
  std::vector<std::string> claimed;
  auto claim = [&claimed](const std::string& name) {
    for (const std::string& c : claimed) {
      if (c == name) return false;
    }
    claimed.push_back(name);
    return true;
  };
  auto help = [](const std::string& name, std::string_view dotted) {
    return "# HELP " + name + " OPAL metric " + std::string(dotted) + "\n";
  };
  for (const CounterValue& c : counters) {
    const std::string name = prometheus_name(c.name) + "_total";
    if (!claim(name)) continue;
    out += help(name, c.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeValue& g : gauges) {
    const std::string name = prometheus_name(g.name);
    if (!claim(name)) continue;
    out += help(name, g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    append_number(out, g.value, "%.17g");
    out += "\n";
  }
  for (const HistogramValue& h : histograms) {
    const std::string name = prometheus_name(h.name);
    if (!claim(name)) continue;
    out += help(name, h.name);
    out += "# TYPE " + name + " histogram\n";
    // Prometheus buckets are CUMULATIVE: each le bound counts every
    // observation <= it, and le="+Inf" equals the total count.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out += name + "_bucket{le=\"";
      append_number(out, h.bounds[i], "%g");
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum ";
    append_number(out, h.sum, "%.17g");
    out += "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace opal
