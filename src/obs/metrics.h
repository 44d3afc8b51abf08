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
//     is taken only on metric creation, a site's one-time handle lookup and
//     export.
//  3. Monotonic registry, resettable epochs — `reset()` starts a new
//     measurement epoch: counters and histograms (flow metrics) zero,
//     gauges (level metrics: live residency, mapped bytes) keep their
//     value because the world they describe did not change. Handles stay
//     valid across reset() forever.
//  4. One schema — the global registry is created with every series of
//     names::kSeries registered and creates nothing afterwards, so every
//     export lists the same series, zero until counted. Sites reach a
//     series through the accessors at the end of this header, keyed by its
//     names::k* constant.
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

#include "obs/names.h"

namespace stf::obs {

/// Metadata captured at registration (first registration wins).
struct MetricInfo {
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
  /// lifetime (including across reset()). `unit` is recorded on first
  /// registration and ignored afterwards. The global registry only gets:
  /// it throws std::logic_error for a name names::kSeries does not declare
  /// under that kind.
  Counter& counter(std::string_view name, Unit unit = Unit::Count);
  Gauge& gauge(std::string_view name, Unit unit = Unit::Count);
  /// Throws std::logic_error if `name` exists with different edges.
  Histogram& histogram(std::string_view name, std::vector<std::uint64_t> edges,
                       Unit unit = Unit::Nanoseconds);
  QuantileSeries& quantiles(std::string_view name,
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

  /// The process-wide registry every subsystem records into. Its first
  /// call registers every series of names::kSeries; no other series can
  /// be added afterwards.
  static Registry& global();

 private:
  template <typename T>
  struct Entry {
    MetricInfo info;
    std::unique_ptr<T> metric;
  };
  template <typename T>
  using Map = std::map<std::string, Entry<T>, std::less<>>;

  /// Finds `name` in `map`, or creates it with `make()` unless closed_.
  template <typename T, typename Make>
  T& get_or_create(Map<T>& map, std::string_view name, Unit unit,
                   const Make& make);

  bool closed_ = false;  ///< set once global() has registered kSeries
  mutable std::mutex mutex_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
  Map<QuantileSeries> quantiles_;
};

// The accessors every instrumentation site uses: the global registry's
// series `Name` (a names::k* constant that kSeries lists under that kind,
// checked at compile time), looked up once per series.
template <const char* const& Name>
Counter& counter() {
  static_assert(names::declares(Name, Kind::Counter));
  static Counter& c = Registry::global().counter(Name);
  return c;
}

template <const char* const& Name>
Gauge& gauge() {
  static_assert(names::declares(Name, Kind::Gauge));
  static Gauge& g = Registry::global().gauge(Name);
  return g;
}

template <const char* const& Name>
Histogram& histogram() {
  static_assert(names::declares(Name, Kind::Histogram));
  static Histogram& h = Registry::global().histogram(Name, latency_edges_ns());
  return h;
}

template <const char* const& Name>
QuantileSeries& quantiles() {
  static_assert(names::declares(Name, Kind::Quantile));
  static QuantileSeries& q = Registry::global().quantiles(Name);
  return q;
}

}  // namespace stf::obs
