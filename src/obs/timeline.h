// Windowed timeline telemetry: virtual time bucketed into fixed windows.
//
// The registry answers "how much, in total"; the span ring answers "what
// happened, exactly, recently". Neither answers "what did the run look like
// *over time*" — which is the question SLO auditing asks: did p99 spike in
// one window or degrade across the whole run, did shedding start before or
// after the EPC began thrashing. The Timeline fills that gap: every serving
// event carries its virtual timestamp, the collector folds it into the
// enclosing fixed-width window, and each window keeps integer counters plus
// an exact per-window latency QuantileSeries.
//
// Determinism contract (same as the registry): recording never touches a
// SimClock or DRBG, windows live in a std::map keyed by index so iteration
// is ordered, all exported values are integers, and collection is off by
// default — a disabled timeline records nothing, keeping every
// pre-existing export byte-identical. Enabled, it also counts its events
// and windows into the `obs.timeline.*` counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace stf::obs {

/// One exported window. `index` is start_ns / window_ns; only windows that
/// saw at least one event exist (sparse — idle gaps cost nothing).
struct TimelineWindow {
  std::uint64_t index = 0;
  std::int64_t offered = 0;    ///< requests arriving in the window
  std::int64_t completed = 0;  ///< requests finishing in the window
  std::int64_t shed = 0;       ///< requests shed (queue-full or expired)
  std::int64_t misses = 0;     ///< completions past their deadline
  std::int64_t queue_depth_max = 0;  ///< deepest queue sampled
  std::int64_t batches = 0;          ///< batch dispatches
  std::int64_t batch_occupancy_sum = 0;  ///< Σ batch sizes (avg = /batches)
  std::int64_t epc_loads = 0;            ///< demand page loads
  std::int64_t epc_evictions = 0;        ///< pages evicted
  std::uint64_t latency_count = 0;  ///< completions with a latency sample
  std::uint64_t p50_ns = 0;         ///< exact nearest-rank, 0 when empty
  std::uint64_t p99_ns = 0;
};

class Timeline {
 public:
  /// 100 ms of virtual time per window: fine enough to see a batch-window
  /// stall, coarse enough that a 300-request bench stays a handful of rows.
  static constexpr std::uint64_t kDefaultWindowNs = 100'000'000;

  explicit Timeline(std::uint64_t window_ns = kDefaultWindowNs)
      : window_ns_(window_ns == 0 ? 1 : window_ns) {}
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Collection gate, off by default. Every record_* call is a no-op while
  /// disabled, so paths instrumented with timeline hooks cost one relaxed
  /// load when the feature is off.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t window_ns() const { return window_ns_; }

  // Serving-plane events (ts in virtual ns).
  void record_offered(std::uint64_t ts_ns);
  void record_completed(std::uint64_t ts_ns, std::uint64_t latency_ns,
                        bool deadline_missed);
  void record_shed(std::uint64_t ts_ns);
  void record_queue_depth(std::uint64_t ts_ns, std::int64_t depth);
  void record_batch(std::uint64_t ts_ns, std::int64_t occupancy);

  // EPC paging events, fed by EpcManager (tee/epc.cpp).
  void record_epc_load(std::uint64_t ts_ns, std::int64_t pages);
  void record_epc_eviction(std::uint64_t ts_ns, std::int64_t pages);

  /// Ordered snapshot of every populated window with exact quantiles.
  [[nodiscard]] std::vector<TimelineWindow> windows() const;

  /// Deterministic integer-only JSON:
  ///   {"window_ns": W, "windows": [{"index": i, "start_ns": i*W, ...}]}
  /// Byte-identical across identical seeded runs (docs/TRACING.md).
  [[nodiscard]] std::string export_json() const;

  /// Clears every window. The enabled flag and window width are untouched.
  void reset();

  static Timeline& global();

 private:
  struct Cell {
    std::int64_t offered = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;
    std::int64_t misses = 0;
    std::int64_t queue_depth_max = 0;
    std::int64_t batches = 0;
    std::int64_t batch_occupancy_sum = 0;
    std::int64_t epc_loads = 0;
    std::int64_t epc_evictions = 0;
    std::unique_ptr<QuantileSeries> latency;  ///< allocated on first sample
  };

  /// Returns the cell for ts, creating it on first touch, and counts the
  /// event into obs.timeline.*. Caller holds mutex_.
  Cell& cell_locked(std::uint64_t ts_ns);

  const std::uint64_t window_ns_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Cell> cells_;
};

}  // namespace stf::obs
