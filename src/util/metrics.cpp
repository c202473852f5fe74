#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#if !defined(_WIN32)
#include <pthread.h>
#endif

namespace rid::util::metrics {

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value == 0) return 0;
  return std::min<std::size_t>(std::bit_width(value), kNumBuckets - 1);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t i) noexcept {
  if (i >= kNumBuckets - 1) return ~0ull;
  return (1ull << i) - 1;
}

void Histogram::observe(std::uint64_t value) noexcept {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps iteration (and therefore snapshots) name-sorted;
  // unique_ptr keeps series addresses stable across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name, std::mutex& mutex) {
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create(impl_->counters, name, impl_->mutex);
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(impl_->gauges, name, impl_->mutex);
}

Histogram& Registry::histogram(std::string_view name) {
  return find_or_create(impl_->histograms, name, impl_->mutex);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  out.counters.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters)
    out.counters.push_back({name, counter->value()});
  out.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges)
    out.gauges.push_back({name, gauge->value()});
  out.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, histogram] : impl_->histograms) {
    HistogramSample sample;
    sample.name = name;
    // Read the buckets first and derive the count from those reads: the
    // sample is then internally consistent (count == sum of buckets) even
    // while other threads keep observing.
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t n =
          histogram->buckets_[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      sample.count += n;
      sample.buckets.emplace_back(Histogram::bucket_upper_bound(i), n);
    }
    sample.sum = histogram->sum_.load(std::memory_order_relaxed);
    if (sample.count > 0) {
      sample.min = histogram->min_.load(std::memory_order_relaxed);
      sample.max = histogram->max_.load(std::memory_order_relaxed);
    }
    out.histograms.push_back(std::move(sample));
  }
  return out;
}

void Registry::merge(const MetricsSnapshot& delta) {
  for (const CounterSample& c : delta.counters) {
    if (c.value > 0) counter(c.name).add(c.value);
  }
  // Every current gauge is a high-water mark (rss_peak_kb) or a last-seen
  // size where the maximum is the useful cross-process merge; a plain set()
  // would let a small worker overwrite a larger parent value.
  for (const GaugeSample& g : delta.gauges) gauge(g.name).set_max(g.value);
  for (const HistogramSample& h : delta.histograms) {
    if (h.count == 0) continue;
    Histogram& dst = histogram(h.name);
    for (const auto& [le, n] : h.buckets) {
      // Boundaries are fixed powers of two in every process, so the
      // inclusive upper bound identifies the source bucket exactly.
      dst.buckets_[Histogram::bucket_index(le)].fetch_add(
          n, std::memory_order_relaxed);
    }
    dst.sum_.fetch_add(h.sum, std::memory_order_relaxed);
    std::uint64_t seen = dst.min_.load(std::memory_order_relaxed);
    while (h.min < seen && !dst.min_.compare_exchange_weak(
                               seen, h.min, std::memory_order_relaxed)) {
    }
    seen = dst.max_.load(std::memory_order_relaxed);
    while (h.max > seen && !dst.max_.compare_exchange_weak(
                               seen, h.max, std::memory_order_relaxed)) {
    }
  }
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& [name, counter] : impl_->counters) counter->reset();
  for (const auto& [name, gauge] : impl_->gauges) gauge->reset();
  for (const auto& [name, histogram] : impl_->histograms) histogram->reset();
}

namespace {

void append_json_string(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    append_json_string(out, counters[i].name);
    out << ": " << counters[i].value;
  }
  out << (counters.empty() ? "}" : "\n  }");
  out << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    append_json_string(out, gauges[i].name);
    out << ": " << gauges[i].value;
  }
  out << (gauges.empty() ? "}" : "\n  }");
  out << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out << (i ? ",\n    " : "\n    ");
    append_json_string(out, h.name);
    out << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"min\": " << h.min << ", \"max\": " << h.max
        << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) out << ", ";
      out << "{\"le\": " << h.buckets[b].first
          << ", \"count\": " << h.buckets[b].second << "}";
    }
    out << "]}";
  }
  out << (histograms.empty() ? "}" : "\n  }");
  out << "\n}\n";
  return out.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dot-separated names
/// mangle 1:1 by turning every other character into '_'.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream out;
  for (const CounterSample& c : counters) {
    const std::string name = prometheus_name(c.name);
    out << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const GaugeSample& g : gauges) {
    const std::string name = prometheus_name(g.name);
    out << "# TYPE " << name << " gauge\n" << name << " " << g.value << "\n";
  }
  for (const HistogramSample& h : histograms) {
    const std::string name = prometheus_name(h.name);
    out << "# TYPE " << name << " histogram\n";
    // Buckets arrive as per-bucket counts with inclusive upper bounds,
    // ascending; Prometheus wants cumulative counts. The top log2 bucket
    // (le == 2^64-1) is indistinguishable from +Inf, so it only feeds the
    // +Inf line.
    std::uint64_t cumulative = 0;
    for (const auto& [le, n] : h.buckets) {
      cumulative += n;
      if (le == ~0ull) continue;
      out << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    out << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << name << "_sum " << h.sum << "\n";
    out << name << "_count " << h.count << "\n";
  }
  return out.str();
}

Registry& global() {
  static Registry registry;
#if !defined(_WIN32)
  // Forked shard workers reset this registry while parent threads keep
  // snapshotting it: holding the lock across fork() keeps a child from
  // inheriting it taken.
  [[maybe_unused]] static const int fork_guard =
      ::pthread_atfork([] { registry.impl_->mutex.lock(); },
                       [] { registry.impl_->mutex.unlock(); },
                       [] { registry.impl_->mutex.unlock(); });
#endif
  return registry;
}

bool write_metrics_json_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  const std::string json = global().snapshot().to_json();
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  return true;
}

bool write_metrics_prometheus_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  const std::string body = global().snapshot().to_prometheus();
  std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  return true;
}

}  // namespace rid::util::metrics
