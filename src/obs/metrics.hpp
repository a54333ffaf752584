#pragma once
// Metrics registry: named counters, gauges and histograms.
//
// The registry is always on — unlike tracing there is no enable flag,
// because no metric update sits on a per-cycle or per-node hot path.
// Hot layers (simulator inner loop, BDD unique table) accumulate plain
// member counters and *flush* totals into the registry at coarse
// boundaries (end of a run() call, manager destruction); see the
// instrumentation in src/sim/parallel_sim.cpp and src/boolfn/bdd.cpp.
//
// Counters are monotonic u64 (relaxed atomics — exact under concurrent
// increments). Gauges hold the last observed value. Histograms bucket
// by powers of two and keep count/sum/min/max.
//
// Names are dotted paths ("bdd.unique_hits", "sim.cycles"); snapshot()
// renders them into a nested JSON object grouped by the first path
// segment so reports stay readable.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/json.hpp"

namespace opiso::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;  ///< power-of-two buckets, offset by 32

  /// Consistent point-in-time copy of the whole histogram (one lock),
  /// for exporters that must emit count/sum/buckets from the same
  /// instant. bucket[i] covers (2^(i-33), 2^(i-32)].
  struct State {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t buckets[kBuckets] = {};
  };

  /// NaN samples are dropped (they would poison sum/min/max for the
  /// rest of the run); ±inf samples are counted, clamp to the extreme
  /// buckets, and propagate into sum/min/max per IEEE rules.
  void record(double v);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] State state() const;
  [[nodiscard]] JsonValue to_json() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

class MetricsRegistry {
 public:
  /// Process-wide registry used by all instrumentation points.
  static MetricsRegistry& global();

  /// Get-or-create; returned references stay valid for the registry's
  /// lifetime (metrics are never removed, only reset).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every registered metric (names stay registered).
  void reset();

  /// Nested JSON snapshot: {"bdd": {"unique_hits": 123, ...}, ...}.
  /// Deterministically ordered (sorted by name).
  [[nodiscard]] JsonValue snapshot() const;

  /// Prometheus text exposition (version 0.0.4) of every metric,
  /// deterministically ordered. Dotted names are sanitized to
  /// opiso_<name with non-alphanumerics replaced by '_'>; histograms
  /// export cumulative power-of-two `_bucket{le="..."}` series plus
  /// `_sum`/`_count`. The JSON snapshot is unaffected.
  void write_prometheus(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace opiso::obs
