#include "obs/timeline.h"

#include "obs/names.h"

namespace stf::obs {

Timeline::Cell& Timeline::cell_locked(std::uint64_t ts_ns) {
  counter<names::kTimelineEvents>().add(1);
  const std::uint64_t index = ts_ns / window_ns_;
  auto [it, inserted] = cells_.try_emplace(index);
  if (inserted) counter<names::kTimelineWindows>().add(1);
  return it->second;
}

void Timeline::record_offered(std::uint64_t ts_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++cell_locked(ts_ns).offered;
}

void Timeline::record_completed(std::uint64_t ts_ns, std::uint64_t latency_ns,
                                bool deadline_missed) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Cell& c = cell_locked(ts_ns);
  ++c.completed;
  if (deadline_missed) ++c.misses;
  if (c.latency == nullptr) c.latency = std::make_unique<QuantileSeries>();
  c.latency->observe(latency_ns);
}

void Timeline::record_shed(std::uint64_t ts_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++cell_locked(ts_ns).shed;
}

void Timeline::record_queue_depth(std::uint64_t ts_ns, std::int64_t depth) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Cell& c = cell_locked(ts_ns);
  if (depth > c.queue_depth_max) c.queue_depth_max = depth;
}

void Timeline::record_batch(std::uint64_t ts_ns, std::int64_t occupancy) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Cell& c = cell_locked(ts_ns);
  ++c.batches;
  c.batch_occupancy_sum += occupancy;
}

void Timeline::record_epc_load(std::uint64_t ts_ns, std::int64_t pages) {
  if (pages <= 0 || !enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  cell_locked(ts_ns).epc_loads += pages;
}

void Timeline::record_epc_eviction(std::uint64_t ts_ns, std::int64_t pages) {
  if (pages <= 0 || !enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  cell_locked(ts_ns).epc_evictions += pages;
}

std::vector<TimelineWindow> Timeline::windows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TimelineWindow> out;
  out.reserve(cells_.size());
  for (const auto& [index, c] : cells_) {
    TimelineWindow w;
    w.index = index;
    w.offered = c.offered;
    w.completed = c.completed;
    w.shed = c.shed;
    w.misses = c.misses;
    w.queue_depth_max = c.queue_depth_max;
    w.batches = c.batches;
    w.batch_occupancy_sum = c.batch_occupancy_sum;
    w.epc_loads = c.epc_loads;
    w.epc_evictions = c.epc_evictions;
    if (c.latency != nullptr) {
      w.latency_count = c.latency->count();
      w.p50_ns = c.latency->quantile(0.50);
      w.p99_ns = c.latency->quantile(0.99);
    }
    out.push_back(w);
  }
  return out;
}

std::string Timeline::export_json() const {
  const auto rows = windows();
  std::string out = "{\n  \"window_ns\": " + std::to_string(window_ns_) +
                    ",\n  \"windows\": [";
  bool first = true;
  for (const auto& w : rows) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"index\": " + std::to_string(w.index) +
           ", \"start_ns\": " + std::to_string(w.index * window_ns_) +
           ", \"offered\": " + std::to_string(w.offered) +
           ", \"completed\": " + std::to_string(w.completed) +
           ", \"shed\": " + std::to_string(w.shed) +
           ", \"misses\": " + std::to_string(w.misses) +
           ", \"queue_depth_max\": " + std::to_string(w.queue_depth_max) +
           ", \"batches\": " + std::to_string(w.batches) +
           ", \"batch_occupancy_sum\": " +
           std::to_string(w.batch_occupancy_sum) +
           ", \"epc_loads\": " + std::to_string(w.epc_loads) +
           ", \"epc_evictions\": " + std::to_string(w.epc_evictions) +
           ", \"latency_count\": " + std::to_string(w.latency_count) +
           ", \"p50_ns\": " + std::to_string(w.p50_ns) +
           ", \"p99_ns\": " + std::to_string(w.p99_ns) + "}";
  }
  out += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void Timeline::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.clear();
}

Timeline& Timeline::global() {
  static Timeline* instance = new Timeline();
  return *instance;
}

}  // namespace stf::obs
