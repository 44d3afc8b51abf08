// Unified metrics registry: the telemetry plane of the reproduction.
//
// Every subsystem that used to count things by hand (EpcStats,
// SchedulerStats, FaultStats, channel telemetry, ad-hoc bench printouts)
// now also records into one process-wide registry, so any run — test,
// bench, example — can be dumped as a single stable-ordered JSON document
// and every figure's counters come from one code path. Per-instance
// accessors (e.g. `EpcManager::stats()`) remain the *view* for one
// platform/channel; the registry is the cluster-wide aggregation plane
// (all instances of a subsystem share one named series).
//
// Design constraints, in order:
//  1. Determinism — recording never touches a SimClock or a DRBG, so
//     instrumented and uninstrumented runs produce bit-identical
//     virtual-time results; and the export is stable-ordered (std::map)
//     with integer-only values, so two identical seeded runs produce
//     byte-identical JSON.
//  2. Lock-cheap — counters/gauges/histogram buckets are relaxed atomics
//     (one uncontended RMW per event on the hot paths); the registry mutex
//     is taken only on metric creation and export.
//  3. Monotonic registry, resettable epochs — `reset()` starts a new
//     measurement epoch: counters and histograms (flow metrics) zero,
//     gauges (level metrics: live residency, mapped bytes) keep their
//     value because the world they describe did not change. Handles stay
//     valid across reset() forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stf::obs {

enum class Unit : std::uint8_t { Count, Bytes, Nanoseconds, Pages, Flops };

inline const char* to_string(Unit u) {
  switch (u) {
    case Unit::Count: return "count";
    case Unit::Bytes: return "bytes";
    case Unit::Nanoseconds: return "ns";
    case Unit::Pages: return "pages";
    case Unit::Flops: return "flops";
  }
  return "?";
}

/// Metadata captured at registration (first registration wins).
struct MetricInfo {
  std::string help;
  Unit unit = Unit::Count;
};

/// Monotonic counter. Thread-safe (relaxed atomic): concurrent increments
/// never lose updates; the total is exact.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> value_{0};
};

/// Level metric: goes up and down with the state it mirrors (e.g. resident
/// EPC pages). Unaffected by Registry::reset() — levels describe *now*,
/// not a measurement window.
class Gauge {
 public:
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations v <= edges[i]
/// (cumulative-style "le" edges, Prometheus semantics but stored
/// per-bucket); the implicit final bucket counts v > edges.back().
/// Edges are fixed at registration so exports are structurally stable.
class Histogram {
 public:
  void observe(std::uint64_t v) {
    std::size_t i = 0;
    while (i < edges_.size() && v > edges_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& edges() const {
    return edges_;
  }
  /// i in [0, edges().size()]: the last index is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(std::vector<std::uint64_t> edges)
      : edges_(std::move(edges)), buckets_(edges_.size() + 1) {}
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> edges_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Nearest-rank quantile, q in (0, 1]: the ceil(q*n)-th smallest of
/// `values` (an actual value, never interpolated), rank clamped to [1, n];
/// 0 when empty. Partially reorders `values`.
[[nodiscard]] std::uint64_t nearest_rank(std::vector<std::uint64_t>& values,
                                         double q);

/// Exact streaming quantile series: keeps every observation (they are
/// virtual-time integers, a few per request — memory is O(requests), which
/// the bounded workloads of this repo keep trivially small) and computes
/// nearest-rank quantiles on demand. Exact and integer-only by design so
/// the exported p50/p95/p99 are byte-deterministic; a histogram of the
/// same latencies (which only brackets quantiles to a decade) typically
/// sits next to it. Mutex-guarded: observations are per-request events,
/// not per-byte work.
class QuantileSeries {
 public:
  /// Standalone series are constructible (the timeline collector owns one
  /// per window); registry-owned series still come from
  /// Registry::quantiles() and only the registry can reset them.
  QuantileSeries() = default;

  void observe(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(v);
  }
  [[nodiscard]] std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
  }
  /// nearest_rank() over the samples.
  [[nodiscard]] std::uint64_t quantile(double q) const;

 private:
  friend class Registry;
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
  }
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> samples_;
};

/// The default virtual-time latency edges: decades from 1 µs to 100 s.
/// Shared by every `*_ns` histogram so exports line up across subsystems.
[[nodiscard]] std::vector<std::uint64_t> latency_edges_ns();

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. Returned references stay valid for the registry's
  /// lifetime (including across reset()). `help`/`unit` are recorded on
  /// first registration and ignored afterwards.
  Counter& counter(std::string_view name, std::string_view help = "",
                   Unit unit = Unit::Count);
  Gauge& gauge(std::string_view name, std::string_view help = "",
               Unit unit = Unit::Count);
  /// Throws std::logic_error if `name` exists with different edges.
  Histogram& histogram(std::string_view name, std::vector<std::uint64_t> edges,
                       std::string_view help = "",
                       Unit unit = Unit::Nanoseconds);
  QuantileSeries& quantiles(std::string_view name, std::string_view help = "",
                            Unit unit = Unit::Nanoseconds);

  /// Starts a new measurement epoch: counters and histograms zero; gauges
  /// keep their level (see the class comment for why). Handles survive.
  void reset();

  // Stable-ordered (lexicographic) iteration under the registry lock.
  void visit_counters(
      const std::function<void(const std::string&, const MetricInfo&,
                               const Counter&)>& fn) const;
  void visit_gauges(const std::function<void(const std::string&,
                                             const MetricInfo&, const Gauge&)>&
                        fn) const;
  void visit_histograms(
      const std::function<void(const std::string&, const MetricInfo&,
                               const Histogram&)>& fn) const;
  void visit_quantiles(
      const std::function<void(const std::string&, const MetricInfo&,
                               const QuantileSeries&)>& fn) const;

  /// The process-wide registry every subsystem records into by default.
  static Registry& global();

 private:
  template <typename T>
  struct Entry {
    MetricInfo info;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>, std::less<>> counters_;
  std::map<std::string, Entry<Gauge>, std::less<>> gauges_;
  std::map<std::string, Entry<Histogram>, std::less<>> histograms_;
  std::map<std::string, Entry<QuantileSeries>, std::less<>> quantiles_;
};

}  // namespace stf::obs
