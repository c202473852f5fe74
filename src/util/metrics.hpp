// Process-wide metrics registry: named counters, gauges, and histograms
// with fixed log-scale buckets.
//
// The registry is the numeric half of the observability layer (the tracing
// half lives in util/trace.hpp): instrumentation sites grab a series once —
// references stay valid for the life of the process, including across
// reset() — and mutate it with relaxed atomics, so recording is lock-free
// and safe from any thread. Snapshots are taken on demand and are
// internally consistent per series: a histogram snapshot derives its count
// from the bucket reads, so count == sum(buckets) always holds even when
// other threads keep observing mid-snapshot.
//
// Conventions:
//  * names are dot-separated, lower-case: "<layer>.<what>[_<unit>]", e.g.
//    "rid.trees_degraded", "pool.task_ns" (see DESIGN.md §9 for the full
//    list);
//  * durations are observed in nanoseconds into histograms;
//  * histogram buckets are powers of two: bucket 0 holds the value 0 and
//    bucket i >= 1 holds [2^(i-1), 2^i - 1], so boundaries are fixed and
//    identical across runs and machines.
//
// Unlike tracing, the registry is always compiled: every mutation site in
// the pipeline runs at batch/tree granularity, never per inner-loop
// iteration, so the steady-state cost is a handful of relaxed atomic adds
// per work item.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rid::util::metrics {

/// Monotonic event count. All operations are lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or maximum) scalar, e.g. a queue depth high-water mark.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

  /// Keeps the running maximum of every set_max() since the last reset.
  void set_max(double v) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of non-negative integer samples over fixed log2 buckets.
class Histogram {
 public:
  /// Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  /// 64 buckets cover the whole uint64 range (the last one is open-ended).
  static constexpr std::size_t kNumBuckets = 64;

  static std::size_t bucket_index(std::uint64_t value) noexcept;

  /// Inclusive upper bound of bucket i ((2^i)-1; saturates at the top).
  static std::uint64_t bucket_upper_bound(std::size_t i) noexcept;

  void observe(std::uint64_t value) noexcept;

  void reset() noexcept;

 private:
  friend class Registry;

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;  // always equals the sum of `buckets` counts
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  /// Non-empty buckets only, as (inclusive upper bound, count), ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Point-in-time copy of every registered series, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  std::size_t num_series() const noexcept {
    return counters.size() + gauges.size() + histograms.size();
  }

  /// Flat JSON document: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} — the format scripts/check_trace.py validates.
  std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4): counters as `_total`-less
  /// monotonic series, gauges as gauges, histograms as cumulative
  /// `_bucket{le="..."}` series plus `_sum`/`_count`. Dots in series names
  /// become underscores ("rid.trees_ok" -> "rid_trees_ok").
  std::string to_prometheus() const;
};

/// Named-series registry. Series are created on first access and never
/// destroyed, so the returned references are stable; reset() zeroes values
/// but keeps every registration (and thus every outstanding reference)
/// valid. Lookup takes a mutex — cache the reference at the call site when
/// the event can fire often.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Folds a snapshot taken in another process into this registry (worker
  /// telemetry): counters and histogram buckets/sums add, gauges keep the
  /// running maximum (every current gauge is a high-water mark or a
  /// last-seen size where max is the useful merge). Histogram buckets map
  /// back exactly — bucket boundaries are fixed powers of two, so
  /// bucket_index(le) recovers the source bucket.
  void merge(const MetricsSnapshot& delta);

  /// Zeroes every series in place (registrations survive).
  void reset();

 private:
  friend Registry& global();
  struct Impl;
  Impl* impl_;
};

/// The process-wide registry all pipeline instrumentation records into.
Registry& global();

/// Writes global().snapshot().to_json() to `path`. Returns false (and
/// writes nothing) when the file cannot be opened.
bool write_metrics_json_file(const std::string& path);

/// Writes global().snapshot().to_prometheus() to `path` (for
/// `--metrics-format=prom`). Returns false when the file cannot be opened.
bool write_metrics_prometheus_file(const std::string& path);

}  // namespace rid::util::metrics
