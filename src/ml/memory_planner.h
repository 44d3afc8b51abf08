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
#include <vector>

#include "ml/graph.h"
#include "tee/memory_env.h"

namespace stf::ml {

/// What the plan achieved, surfaced through Session::last_plan_report().
struct PlanReport {
  /// Bytes of the packed arena (its high-water mark — exact, not a bound).
  std::uint64_t peak_bytes = 0;
  /// Sum of all planned tensor sizes: what "every tensor gets its own
  /// buffer" would cost.
  std::uint64_t total_bytes = 0;
  /// The arena size the legacy bump-cursor rule would have reached for the
  /// same pass (initial 1 MB, grow to max(out, 2x) on overflow) — the
  /// baseline the planner beats.
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
  /// maps every node in it to its output byte size (known after shape
  /// evaluation). Parameter nodes (Const/Variable) are skipped — they live
  /// in their own persistent regions — while Placeholder outputs and every
  /// op output get an interval from their defining position to their last
  /// consumer. Nodes in `fetch_ids` stay live to the end of the pass (their
  /// values are returned to the caller).
  [[nodiscard]] static MemoryPlan plan(
      const Graph& graph, const std::vector<NodeId>& order,
      const std::map<NodeId, std::uint64_t>& sizes,
      const std::vector<NodeId>& fetch_ids,
      std::uint64_t alignment = kDefaultAlignment);

  static constexpr std::uint64_t kDefaultAlignment = 64;
};

/// Layer-wise weight streaming over a sequence of ops: before op j runs,
/// the windows whose last reader was op j-1 are advise-evicted, then op
/// j+1's windows are prefetched under op j's compute. The one schedule of
/// the Session's planned replay and of the Lite interpreter.
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
