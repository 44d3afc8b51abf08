#include "obs/span.h"

#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::obs {

namespace {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace

bool tracing_enabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint32_t SpanTracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::uint32_t SpanTracer::enter() {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_++;
}

void SpanTracer::exit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (depth_ > 0) --depth_;
}

void SpanTracer::record(std::uint32_t name_id, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint32_t depth) {
  // Under an active trace context, plain records become anonymous leaves of
  // the innermost open span (span_id 0: nothing can nest below them).
  const TraceContext& ctx = current_trace();
  record_traced(name_id, start_ns, end_ns, ctx.trace_id, 0,
                ctx.trace_id != 0 ? ctx.span_id : 0, depth);
}

void SpanTracer::record_traced(std::uint32_t name_id, std::uint64_t start_ns,
                               std::uint64_t end_ns, std::uint64_t trace_id,
                               std::uint64_t span_id, std::uint64_t parent_id,
                               std::uint32_t depth) {
  SpanRecord rec{name_id, depth,   current_lane(), start_ns,
                 end_ns,  trace_id, span_id,       parent_id};
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
  } else {
    ring_[next_] = rec;
    next_ = (next_ + 1) % capacity_;
    count_drop_locked();
  }
  auto& s = summaries_[name_id];
  ++s.count;
  const std::uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  s.total_ns += dur;
  if (dur > s.max_ns) s.max_ns = dur;
}

void SpanTracer::record_flow(std::uint32_t name_id, std::uint64_t flow_id,
                             std::uint64_t ts_ns, FlowPhase phase) {
  FlowRecord rec{name_id, current_lane(), flow_id, ts_ns, phase};
  std::lock_guard<std::mutex> lock(mutex_);
  if (flow_ring_.size() < capacity_) {
    flow_ring_.push_back(rec);
  } else {
    flow_ring_[flow_next_] = rec;
    flow_next_ = (flow_next_ + 1) % capacity_;
    count_drop_locked();
  }
}

void SpanTracer::count_drop_locked() {
  ++dropped_;
  counter<names::kTraceDropped>().add(1);
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SpanRecord> SpanTracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest first: once the ring has wrapped, `next_` points at the oldest.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<FlowRecord> SpanTracer::flows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlowRecord> out;
  out.reserve(flow_ring_.size());
  for (std::size_t i = 0; i < flow_ring_.size(); ++i) {
    out.push_back(flow_ring_[(flow_next_ + i) % flow_ring_.size()]);
  }
  return out;
}

std::map<std::string, SpanSummary> SpanTracer::summaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, SpanSummary> out;
  for (const auto& [id, s] : summaries_) {
    out.emplace(names_[id], s);
  }
  return out;
}

std::string SpanTracer::name(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return id < names_.size() ? names_[id] : std::string("?");
}

void SpanTracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  flow_ring_.clear();
  flow_next_ = 0;
  dropped_ = 0;
  depth_ = 0;
  next_span_id_.store(0, std::memory_order_relaxed);
  summaries_.clear();
  // names_/ids_ survive: instrumentation sites cache intern ids in statics.
}

SpanTracer& SpanTracer::global() {
  static SpanTracer* instance = new SpanTracer();
  return *instance;
}

}  // namespace stf::obs
