// Virtual-time span tracer.
//
// A span is a named [start_ns, end_ns) interval of *virtual* time — the
// tracer never reads a wall clock and never advances a SimClock, so tracing
// is free in simulated time and cannot perturb any figure. Spans nest: the
// tracer tracks open-span depth so the ring records how deep each interval
// sat (an EPC evict span inside a GEMM span inside an inference-request
// span shows depth 2/1/0).
//
// Storage is a bounded ring: when full, the oldest record is overwritten
// and `dropped()` counts what was lost — tracing memory is O(capacity)
// regardless of run length. Summaries (count/total/max per name) are kept
// separately and never drop.
//
// Thread safety: a mutex guards record/enter/exit/snapshot. Spans are rare
// events (transitions, evictions, requests — not per-byte work), so a
// mutex here costs nothing measurable while keeping snapshot() trivially
// consistent; the lock-cheap path for per-event hot counters is the
// metrics registry, not the tracer.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tee/sim_clock.h"

namespace stf::obs {

struct SpanRecord {
  std::uint32_t name_id = 0;  ///< intern id; resolve via SpanTracer::name()
  std::uint32_t depth = 0;    ///< open spans enclosing this one when it began
  std::uint32_t lane = 0;     ///< (pid << 16) | tid — see ScopedLane
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  // Causal trace linkage (docs/TRACING.md). All three stay 0 unless the
  // record was made under a ScopedTraceContext, so untraced runs keep their
  // exports byte-identical.
  std::uint64_t trace_id = 0;   ///< request trace this span belongs to
  std::uint64_t span_id = 0;    ///< this span's id (0: anonymous leaf)
  std::uint64_t parent_id = 0;  ///< enclosing span's id (0: trace root)
};

/// Global switch for the causal-tracing layer. Off by default: the serving
/// plane only installs trace contexts, records synthetic request spans and
/// emits flow events when enabled, so every pre-existing export stays
/// byte-identical. Like set_profiling_enabled, flipping it never touches a
/// SimClock — figures are identical either way.
[[nodiscard]] bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// The calling thread's position in the causal tree: the trace that owns
/// the work it is doing and the innermost open span (the parent any new
/// record hangs off). Thread-local like current_lane(); both ids 0 when the
/// thread is not serving a traced request.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

inline TraceContext& current_trace() {
  thread_local TraceContext ctx;
  return ctx;
}

/// Pushes a (trace, parent span) pair for the scope, restoring the previous
/// context on exit — the propagation primitive: install it around a batch
/// dispatch and every span recorded inside (inference, GEMM, EPC paging)
/// links itself to the owning request.
class ScopedTraceContext {
 public:
  ScopedTraceContext(std::uint64_t trace_id, std::uint64_t span_id)
      : prev_(current_trace()) {
    current_trace() = TraceContext{trace_id, span_id};
  }
  ~ScopedTraceContext() { current_trace() = prev_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// Chrome-trace flow event phases (`ph` values "s"/"t"/"f"): one arrow
/// chain per flow id, Start -> Step* -> Finish. The serving plane uses one
/// flow per request (id = trace id) to draw batch fan-in and to link
/// retries/hedges/re-steers across nodes.
enum class FlowPhase : std::uint8_t { Start, Step, Finish };

struct FlowRecord {
  std::uint32_t name_id = 0;
  std::uint32_t lane = 0;     ///< (pid << 16) | tid at record time
  std::uint64_t flow_id = 0;  ///< arrows with equal ids form one chain
  std::uint64_t ts_ns = 0;
  FlowPhase phase = FlowPhase::Start;
};

/// The calling thread's simulated location, packed as (pid << 16) | tid.
/// `pid` is a node id in the simulated cluster, `tid` a simulated thread /
/// core lane on that node. Every recorded span (and attribution profile)
/// carries the lane that was current when it started; the Chrome trace
/// exporter maps it to the pid/tid rows Perfetto draws. Defaults to 0/0.
inline std::uint32_t& current_lane() {
  thread_local std::uint32_t lane = 0;
  return lane;
}

/// Pushes a simulated (pid, tid) location for the scope.
class ScopedLane {
 public:
  ScopedLane(std::uint16_t pid, std::uint16_t tid) : prev_(current_lane()) {
    current_lane() =
        (static_cast<std::uint32_t>(pid) << 16) | static_cast<std::uint32_t>(tid);
  }
  ~ScopedLane() { current_lane() = prev_; }
  ScopedLane(const ScopedLane&) = delete;
  ScopedLane& operator=(const ScopedLane&) = delete;

 private:
  std::uint32_t prev_;
};

/// Per-name aggregate that survives ring overwrites.
struct SpanSummary {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SpanTracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Interns `name`, returning a stable id. Call once per site (cache the
  /// id in a static local); ids are assigned in intern order.
  std::uint32_t intern(std::string_view name);

  /// Marks a span as opened at `start_ns` and returns the depth the
  /// matching `exit` must pass to `record`. Use ScopedSpan instead of
  /// calling these directly unless the interval doesn't fit a C++ scope.
  std::uint32_t enter();
  void exit();

  /// Records a finished span. `depth` is the value `enter()` returned for
  /// it (0 for a manually recorded, non-nested interval). When the calling
  /// thread holds a TraceContext (trace_id != 0) the record is stamped as
  /// an anonymous leaf of that context: trace_id from the context,
  /// parent_id = the context's span_id, span_id = 0.
  void record(std::uint32_t name_id, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint32_t depth = 0);

  /// Records a span with explicit causal linkage — used for the synthetic
  /// request spans (root / wire / queue_wait / batch_wait / service) whose
  /// ids must be known before their children record.
  void record_traced(std::uint32_t name_id, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t trace_id,
                     std::uint64_t span_id, std::uint64_t parent_id,
                     std::uint32_t depth = 0);

  /// Allocates a span id, unique for the tracer's lifetime (reset() starts
  /// over). Single-threaded event loops allocate a deterministic sequence,
  /// which the byte-identical trace exports rely on.
  std::uint64_t alloc_span_id() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Records a flow event (Chrome `s`/`t`/`f`). Flow storage is a bounded
  /// ring like the span ring; overwrites count into dropped().
  void record_flow(std::uint32_t name_id, std::uint64_t flow_id,
                   std::uint64_t ts_ns, FlowPhase phase);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Records lost to ring overwrites (spans and flow events combined).
  /// Surfaced in the registry as the `obs.trace.dropped` counter.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Oldest-to-newest copy of the ring.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// Oldest-to-newest copy of the flow ring.
  [[nodiscard]] std::vector<FlowRecord> flows() const;
  /// Stable-ordered (by name) aggregates over *all* recorded spans,
  /// including ones the ring has since overwritten.
  [[nodiscard]] std::map<std::string, SpanSummary> summaries() const;
  [[nodiscard]] std::string name(std::uint32_t id) const;

  /// New measurement epoch: clears the ring, summaries, dropped count and
  /// depth. Interned ids stay valid (sites cache them in statics).
  void reset();

  static SpanTracer& global();

 private:
  /// Bumps dropped_ and mirrors it into the `obs.trace.dropped` counter.
  /// Caller holds mutex_.
  void count_drop_locked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;  ///< ring write cursor once full
  std::vector<FlowRecord> flow_ring_;
  std::size_t flow_next_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t depth_ = 0;
  std::atomic<std::uint64_t> next_span_id_{0};
  std::map<std::uint32_t, SpanSummary> summaries_;
};

/// The global tracer's id for span or flow name `Name` (a names::k*
/// constant), interned once per name.
template <const char* const& Name>
std::uint32_t span_id() {
  static const std::uint32_t id = SpanTracer::global().intern(Name);
  return id;
}

/// RAII span over a SimClock: reads the clock at construction and
/// destruction, records on destruction. The clock must outlive the scope.
///
/// `skip_empty` (opt-in, default off so existing exports stay
/// byte-identical) suppresses the record when no virtual time elapsed in
/// the scope — for hot paths that usually no-op (the scheduler's idle
/// poll), where zero-length spans would only churn the ring.
/// When constructed under a TraceContext, the span allocates an id, becomes
/// the context's parent for the scope (nested records hang off it), and its
/// record carries the full trace linkage. With no context active, behavior
/// and export bytes are exactly the legacy ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, const tee::SimClock& clock,
             std::uint32_t name_id, bool skip_empty = false)
      : tracer_(tracer),
        clock_(clock),
        name_id_(name_id),
        start_ns_(clock.now_ns()),
        depth_(tracer.enter()),
        skip_empty_(skip_empty),
        trace_(current_trace()) {
    if (trace_.trace_id != 0) {
      span_id_ = tracer.alloc_span_id();
      current_trace() = TraceContext{trace_.trace_id, span_id_};
    }
  }
  ~ScopedSpan() {
    if (trace_.trace_id != 0) current_trace() = trace_;
    tracer_.exit();
    const std::uint64_t end_ns = clock_.now_ns();
    if (skip_empty_ && end_ns == start_ns_) return;
    if (trace_.trace_id != 0) {
      tracer_.record_traced(name_id_, start_ns_, end_ns, trace_.trace_id,
                            span_id_, trace_.span_id, depth_);
    } else {
      tracer_.record(name_id_, start_ns_, end_ns, depth_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer& tracer_;
  const tee::SimClock& clock_;
  std::uint32_t name_id_;
  std::uint64_t start_ns_;
  std::uint32_t depth_;
  bool skip_empty_;
  TraceContext trace_;        ///< context at construction (restored on exit)
  std::uint64_t span_id_ = 0;
};

}  // namespace stf::obs
