#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stf::obs {

std::uint64_t nearest_rank(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::uint64_t QuantileSeries::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> sorted = samples_;
  return nearest_rank(sorted, q);
}

std::vector<std::uint64_t> latency_edges_ns() {
  // Decades from 1 µs to 100 s of *virtual* time; the implicit overflow
  // bucket catches anything slower (nothing in the calibrated model is).
  return {1'000,          10'000,        100'000,        1'000'000,
          10'000'000,     100'000'000,   1'000'000'000,  10'000'000'000,
          100'000'000'000};
}

template <typename T, typename Make>
T& Registry::get_or_create(Map<T>& map, std::string_view name, Unit unit,
                           const Make& make) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map.find(name);
  if (it == map.end()) {
    if (closed_) {
      throw std::logic_error("obs: '" + std::string(name) +
                             "' is not a series of this kind in "
                             "names::kSeries");
    }
    it = map.emplace(std::string(name), Entry<T>{MetricInfo{unit}, make()})
             .first;
  }
  return *it->second.metric;
}

Counter& Registry::counter(std::string_view name, Unit unit) {
  return get_or_create(counters_, name, unit, [] {
    return std::unique_ptr<Counter>(new Counter());
  });
}

Gauge& Registry::gauge(std::string_view name, Unit unit) {
  return get_or_create(gauges_, name, unit,
                       [] { return std::unique_ptr<Gauge>(new Gauge()); });
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::uint64_t> edges, Unit unit) {
  if (edges.empty()) {
    throw std::logic_error("obs: histogram needs at least one bucket edge");
  }
  for (std::size_t i = 1; i < edges.size(); ++i) {
    if (edges[i] <= edges[i - 1]) {
      throw std::logic_error("obs: histogram edges must strictly ascend");
    }
  }
  Histogram& h = get_or_create(histograms_, name, unit, [&] {
    return std::unique_ptr<Histogram>(new Histogram(edges));
  });
  if (h.edges() != edges) {
    throw std::logic_error("obs: histogram '" + std::string(name) +
                           "' re-registered with different edges");
  }
  return h;
}

QuantileSeries& Registry::quantiles(std::string_view name, Unit unit) {
  return get_or_create(quantiles_, name, unit, [] {
    return std::unique_ptr<QuantileSeries>(new QuantileSeries());
  });
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : counters_) entry.metric->reset();
  for (auto& [name, entry] : histograms_) entry.metric->reset();
  for (auto& [name, entry] : quantiles_) entry.metric->reset();
  // Gauges deliberately keep their level: they mirror live state (resident
  // pages, mapped bytes), not a measurement window. See the class comment.
}

void Registry::visit_counters(
    const std::function<void(const std::string&, const MetricInfo&,
                             const Counter&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : counters_) {
    fn(name, entry.info, *entry.metric);
  }
}

void Registry::visit_gauges(
    const std::function<void(const std::string&, const MetricInfo&,
                             const Gauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : gauges_) {
    fn(name, entry.info, *entry.metric);
  }
}

void Registry::visit_histograms(
    const std::function<void(const std::string&, const MetricInfo&,
                             const Histogram&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : histograms_) {
    fn(name, entry.info, *entry.metric);
  }
}

void Registry::visit_quantiles(
    const std::function<void(const std::string&, const MetricInfo&,
                             const QuantileSeries&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : quantiles_) {
    fn(name, entry.info, *entry.metric);
  }
}

Registry& Registry::global() {
  // Never destroyed: handles outlive static teardown.
  static Registry* instance = [] {
    auto* reg = new Registry();
    for (const names::Series& s : names::kSeries) {
      switch (s.kind) {
        case Kind::Counter: reg->counter(s.name, s.unit); break;
        case Kind::Gauge: reg->gauge(s.name, s.unit); break;
        case Kind::Histogram:
          reg->histogram(s.name, latency_edges_ns(), s.unit);
          break;
        case Kind::Quantile: reg->quantiles(s.name, s.unit); break;
      }
    }
    reg->closed_ = true;
    return reg;
  }();
  return *instance;
}

}  // namespace stf::obs
