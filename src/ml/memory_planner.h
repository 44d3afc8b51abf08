// EPC-aware activation memory planner (TF-Lite ArenaPlanner style).
//
// The Session's historical cost model approximates activations with a
// rotating bump-cursor arena: every output is written at a cursor that only
// moves forward, and the arena doubles whenever a pass overflows it. That
// over-states the working set — a tensor's pages stay "live" long after its
// last consumer ran — which matters enormously under an EPC boundary, where
// every spurious live page is a candidate for EWB/ELDU traffic.
//
// This planner replaces the approximation with the real thing frameworks do
// (TF-Lite's ArenaPlanner, TVM's storage rewriter): liveness analysis over
// the graph's topological order plus greedy best-fit interval packing, so
// every intermediate tensor gets an exact [offset, offset+bytes) window in
// one shared arena and two tensors share bytes exactly when their lifetimes
// are disjoint. The arithmetic of the pass is untouched — the plan only
// decides *where* cost-model accesses land — so fetched results are
// bit-identical with the planner on or off, while the arena's peak (and so
// the EPC working set) shrinks strictly.
//
// Offsets are 64-byte aligned (cache-line) and the packing is deterministic:
// tensors are placed largest-first with node id as the tie-break, and the
// smallest adequate gap wins, so two identical graphs plan identically on
// any platform.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ml/graph.h"
#include "tee/memory_env.h"

namespace stf::ml {

/// The legacy bump-cursor activation arena: the one rule a Session's
/// bump-arena runs are charged by and PlanReport::bump_peak_bytes replays.
/// It starts at 1 MB. Each op output is written at a cursor that only moves
/// forward; an output that overruns the arena wraps the cursor to 0, first
/// growing the arena to max(out, 2x) when the output is larger than it.
struct BumpArena {
  std::uint64_t bytes = 1ull << 20;
  std::uint64_t cursor = 0;

  /// Places an output of `out` > 0 bytes; returns its offset.
  std::uint64_t write(std::uint64_t out);
  /// Where a read of `len` > 0 bytes lands, as (offset, bytes): the `len`
  /// bytes behind the cursor (re-reads of recent outputs hit the same hot
  /// pages), clamped to the arena (a fed batch larger than it reads the
  /// whole arena).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> read(
      std::uint64_t len) const;
};

/// What the plan achieved, surfaced through Session::last_plan_report().
struct PlanReport {
  /// Bytes of the packed arena (its high-water mark — exact, not a bound).
  std::uint64_t peak_bytes = 0;
  /// Sum of all planned tensor sizes: what "every tensor gets its own
  /// buffer" would cost.
  std::uint64_t total_bytes = 0;
  /// The size BumpArena reaches over the same pass: the baseline the
  /// planner beats.
  std::uint64_t bump_peak_bytes = 0;
  std::size_t tensor_count = 0;

  /// total / peak: how many arena generations the packing overlays (>= 1;
  /// higher is better reuse).
  [[nodiscard]] double reuse_ratio() const {
    return peak_bytes == 0 ? 1.0
                           : static_cast<double>(total_bytes) /
                                 static_cast<double>(peak_bytes);
  }
};

/// One planned tensor: its defining node, its size, and the half-open
/// window of positions in the execution order during which it is live.
struct TensorInterval {
  NodeId id = -1;
  std::uint64_t bytes = 0;
  std::size_t first = 0;  ///< position in the order that defines it
  std::size_t last = 0;   ///< position of its last consumer (inclusive)
  std::uint64_t offset = 0;
};

/// An immutable packed plan for one (order, sizes, fetches) signature.
class MemoryPlan {
 public:
  [[nodiscard]] bool has(NodeId id) const { return offsets_.contains(id); }
  [[nodiscard]] std::uint64_t offset_of(NodeId id) const {
    return offsets_.at(id);
  }
  [[nodiscard]] const PlanReport& report() const { return report_; }
  [[nodiscard]] const std::vector<TensorInterval>& intervals() const {
    return intervals_;
  }

 private:
  friend class MemoryPlanner;
  std::map<NodeId, std::uint64_t> offsets_;
  std::vector<TensorInterval> intervals_;
  PlanReport report_;
};

class MemoryPlanner {
 public:
  /// Builds a plan for one executed pass.
  ///
  /// `order` is the topological order the Session will charge in; `sizes`
  /// holds, by node id, every node's output byte size (known from shapes
  /// before the pass runs). Parameter nodes (Const/Variable) are skipped —
  /// they live in their own persistent regions — while Placeholder outputs
  /// and every op output get an interval from their defining position to
  /// their last consumer. Nodes in `fetch_ids` stay live to the end of the
  /// pass (their values are returned to the caller).
  [[nodiscard]] static MemoryPlan plan(
      const Graph& graph, const std::vector<NodeId>& order,
      const std::vector<std::uint64_t>& sizes,
      const std::vector<NodeId>& fetch_ids,
      std::uint64_t alignment = kDefaultAlignment);

  static constexpr std::uint64_t kDefaultAlignment = 64;
};

/// Layer-wise weight streaming over a sequence of ops: before op j runs,
/// the windows whose last reader was op j-1 are advise-evicted, then op
/// j+1's windows are prefetched under op j's compute. The one schedule of
/// the Session's planned arena and of the Lite interpreter.
class WeightStreaming {
 public:
  /// `bytes` at `offset` of env region `region`.
  struct Window {
    std::uint64_t region = 0, offset = 0, bytes = 0;
    auto operator<=>(const Window&) const = default;
  };

  /// `reads[j]` lists the weight windows op j reads, in operand order.
  explicit WeightStreaming(std::vector<std::vector<Window>> reads);

  /// Prefetches op 0's windows up front: no predecessor prefetches them,
  /// and a repeated pass would otherwise demand-fault what the previous
  /// pass streamed out.
  void prefetch_first(tee::MemoryEnv& env) const;
  /// Retires op j-1's dead windows, then prefetches op j+1's.
  void before_op(tee::MemoryEnv& env, std::size_t j) const;

 private:
  std::vector<std::vector<Window>> reads_;
  std::vector<std::vector<Window>> dead_;  ///< windows last read by op j
};

}  // namespace stf::ml
