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

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Unit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    Entry<Counter> entry{MetricInfo{std::string(help), unit},
                         std::unique_ptr<Counter>(new Counter())};
    it = counters_.emplace(std::string(name), std::move(entry)).first;
  }
  return *it->second.metric;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Unit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    Entry<Gauge> entry{MetricInfo{std::string(help), unit},
                       std::unique_ptr<Gauge>(new Gauge())};
    it = gauges_.emplace(std::string(name), std::move(entry)).first;
  }
  return *it->second.metric;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::uint64_t> edges,
                               std::string_view help, Unit unit) {
  if (edges.empty()) {
    throw std::logic_error("obs: histogram needs at least one bucket edge");
  }
  for (std::size_t i = 1; i < edges.size(); ++i) {
    if (edges[i] <= edges[i - 1]) {
      throw std::logic_error("obs: histogram edges must strictly ascend");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Entry<Histogram> entry{MetricInfo{std::string(help), unit},
                           std::unique_ptr<Histogram>(new Histogram(edges))};
    it = histograms_.emplace(std::string(name), std::move(entry)).first;
  } else if (it->second.metric->edges() != edges) {
    throw std::logic_error("obs: histogram '" + std::string(name) +
                           "' re-registered with different edges");
  }
  return *it->second.metric;
}

QuantileSeries& Registry::quantiles(std::string_view name,
                                    std::string_view help, Unit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = quantiles_.find(name);
  if (it == quantiles_.end()) {
    Entry<QuantileSeries> entry{MetricInfo{std::string(help), unit},
                                std::unique_ptr<QuantileSeries>(
                                    new QuantileSeries())};
    it = quantiles_.emplace(std::string(name), std::move(entry)).first;
  }
  return *it->second.metric;
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
  static Registry* instance = new Registry();  // never destroyed: handles
  return *instance;                            // outlive static teardown
}

}  // namespace stf::obs
