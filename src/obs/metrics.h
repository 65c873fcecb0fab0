// Lock-cheap metrics: counters, gauges, fixed-bucket histograms, and
// mergeable snapshots, exposed in Prometheus text exposition format.
//
// The registry is the fleet-visibility analogue of the flight recorder: the
// pipeline's layers (evaluator, thread pool, journal, tracer, serve) bump
// pre-registered series on their hot paths, and a scraper — the /metrics
// endpoint on prose_served, a CampaignSummary, the prose_top monitor — reads
// a consistent snapshot at any time.
//
// Hard contract, same as tracing: metrics never feed back into results.
// Wall-clock time flows into metric *values* only, never into scheduling or
// simulated time, so an instrumented evaluator produces exactly the results
// of an uninstrumented one — journal bytes included. The second contract is
// cost: once a series is registered, observing it is a handful of relaxed
// atomic operations and never allocates, so the instruments are safe on the
// evaluator's and the server's hot paths.
//
// Instrument pointers returned by the registry are stable for the registry's
// lifetime (deque storage), which is what lets components hold raw `Counter*`
// handles with no per-observation lookup or lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace prose::obs {

/// A monotonically increasing count. Relaxed atomics: totals are exact, and
/// ordering relative to other series is irrelevant to any consumer.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A value that can go up and down (queue depth, active workers).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Bucket upper bounds (ascending, finite); observations land in the first
/// bucket whose bound is >= the value — Prometheus `le` semantics. An
/// implicit +Inf overflow bucket always exists.
std::vector<double> exponential_buckets(double start, double factor, int count);
/// Latency preset: 100µs .. ~429s in ×4 steps (12 bounds).
std::vector<double> latency_buckets_seconds();
/// Size preset: 64 B .. 128 MiB in ×8 steps (8 bounds).
std::vector<double> size_buckets_bytes();

/// A latency exemplar: the largest observation a histogram bucket has seen,
/// tagged with an opaque label — in this codebase always a trace-id hex, so
/// the slowest entries of a latency histogram point straight at the traced
/// requests that produced them.
struct Exemplar {
  double value = 0.0;
  std::string label;

  [[nodiscard]] bool empty() const { return label.empty(); }
};

/// Fixed-bucket histogram. observe() is a short binary search plus three
/// relaxed atomic adds — no locks, no allocation. The exemplar overload
/// additionally takes a short mutex to record the bucket's slowest labeled
/// observation; it is meant for request-granularity paths (RPCs,
/// evaluations), not per-instruction ones.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);
  /// observe() plus exemplar capture: keeps the largest labeled observation
  /// per bucket. Empty labels degrade to plain observe().
  void observe(double v, std::string_view exemplar_label);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  const std::vector<double> bounds_;
  /// counts_[i] holds observations in (bounds_[i-1], bounds_[i]];
  /// counts_[bounds_.size()] is the +Inf overflow bucket.
  std::deque<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
  mutable std::mutex ex_mu_;  // guards exemplars_ only
  std::vector<Exemplar> exemplars_;  // one per bucket, +Inf included
};

/// Point-in-time copy of one histogram, with quantile estimation and a
/// merge that is associative and commutative (shard aggregation).
struct HistogramSnapshot {
  std::vector<double> bounds;         // finite upper bounds, ascending
  std::vector<std::uint64_t> counts;  // per-bucket (bounds.size() + 1 entries)
  double sum = 0.0;
  std::uint64_t count = 0;
  /// Per-bucket latency exemplars; empty when the histogram never saw a
  /// labeled observation, else counts.size() entries (some possibly empty).
  std::vector<Exemplar> exemplars;

  /// Estimates the q-quantile (q in [0,1]) by linear interpolation inside
  /// the bucket containing the target rank — the histogram_quantile()
  /// estimator. The first bucket interpolates from 0; ranks landing in the
  /// +Inf bucket clamp to the highest finite bound. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Per-bucket sum. Merging snapshots with different bucket layouts is a
  /// programming error and is ignored (this snapshot is kept unchanged).
  void merge(const HistogramSnapshot& other);
};

enum class SeriesKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One series in a snapshot: a scalar (counter/gauge) or a histogram.
struct SeriesSnapshot {
  std::string name;
  std::string help;
  SeriesKind kind = SeriesKind::kCounter;
  double value = 0.0;  // counter/gauge value
  HistogramSnapshot hist;
};

/// A full registry snapshot: mergeable (associative, commutative — counters
/// and histograms add, gauges add) and serializable to the Prometheus text
/// exposition format.
struct MetricsSnapshot {
  std::vector<SeriesSnapshot> series;  // registration order

  [[nodiscard]] const SeriesSnapshot* find(std::string_view name) const;
  /// Convenience scalar lookup: counter/gauge value, histogram count.
  /// Missing series read as 0.
  [[nodiscard]] double value(std::string_view name) const;
  /// Merges `other` in: same-name series combine (counters/histograms/gauges
  /// all add), unmatched series append in other's order.
  void merge(const MetricsSnapshot& other);
};

/// The series registry. Registration (rare) takes a mutex; observation (hot)
/// touches only the returned instrument's atomics. Re-registering a name
/// returns the existing instrument, so components may register the same
/// series independently; a name reused with a different kind returns null.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name, std::string_view help);
  Gauge* gauge(std::string_view name, std::string_view help);
  Histogram* histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds);

  /// Consistent-enough copy of every series: each scalar is read atomically;
  /// cross-series skew is inherent and fine for monitoring.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Series {
    std::string name;
    std::string help;
    SeriesKind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> hist;
  };
  Series* find_or_add_locked(std::string_view name, std::string_view help,
                             SeriesKind kind);

  mutable std::mutex mu_;  // registration + snapshot only, never observation
  std::deque<Series> series_;  // deque: instrument addresses stay stable
};

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): # HELP / # TYPE per family, histograms as cumulative _bucket
/// series with le labels plus _sum and _count.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// promtool-style lint of an exposition page: metric-name and label syntax,
/// HELP/TYPE placement, float syntax, histogram le monotonicity and
/// count == +Inf-bucket consistency, no duplicate samples. Returns true on a
/// clean page; otherwise fills *error with the first problem.
bool lint_prometheus(std::string_view text, std::string* error = nullptr);

/// Parses an exposition page back into a snapshot (the prose_top scrape
/// path). Accepts anything lint_prometheus accepts; unknown TYPEs are
/// skipped. Returns false (and fills *error) on malformed input.
bool parse_prometheus(std::string_view text, MetricsSnapshot* out,
                      std::string* error = nullptr);

}  // namespace prose::obs
