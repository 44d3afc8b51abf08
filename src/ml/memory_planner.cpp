#include "ml/memory_planner.h"

#include <algorithm>

namespace stf::ml {
namespace {

// The legacy bump-cursor arena's growth rule (Session::charge): start at
// 1 MB, on overflow grow to max(out_bytes, 2x). The report replays it so
// PlanReport::bump_peak_bytes is exactly the arena the planner replaced.
constexpr std::uint64_t kLegacyArenaInitialBytes = 1ull << 20;

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

bool is_parameter(OpType t) {
  return t == OpType::Const || t == OpType::Variable;
}

std::uint64_t simulate_bump_peak(const Graph& graph,
                                 const std::vector<NodeId>& order,
                                 const std::map<NodeId, std::uint64_t>& sizes) {
  std::uint64_t bytes = kLegacyArenaInitialBytes;
  std::uint64_t cursor = 0;
  for (const NodeId id : order) {
    const Node& node = graph.node(id);
    // The legacy path only writes op outputs (feeds and parameters never
    // enter the arena).
    if (is_parameter(node.type) || node.type == OpType::Placeholder) continue;
    const auto it = sizes.find(id);
    const std::uint64_t out = it == sizes.end() ? 0 : it->second;
    if (out == 0) continue;
    if (out > bytes || cursor + out > bytes) {
      if (out > bytes) bytes = std::max(out, bytes * 2);
      cursor = 0;
    }
    cursor += out;
  }
  return bytes;
}

}  // namespace

MemoryPlan MemoryPlanner::plan(const Graph& graph,
                               const std::vector<NodeId>& order,
                               const std::map<NodeId, std::uint64_t>& sizes,
                               const std::vector<NodeId>& fetch_ids,
                               std::uint64_t alignment) {
  if (alignment == 0) alignment = 1;

  // --- liveness: one interval per non-parameter tensor -------------------
  std::map<NodeId, std::size_t> position;
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;

  std::map<NodeId, TensorInterval> by_id;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node& node = graph.node(order[i]);
    if (is_parameter(node.type)) continue;  // lives in its own param region
    const auto it = sizes.find(node.id);
    const std::uint64_t bytes = it == sizes.end() ? 0 : it->second;
    if (bytes == 0) continue;
    by_id[node.id] = TensorInterval{
        .id = node.id, .bytes = bytes, .first = i, .last = i, .offset = 0};
  }
  for (const NodeId id : order) {
    const Node& node = graph.node(id);
    const std::size_t pos = position.at(id);
    for (const NodeId in : node.inputs) {
      const auto it = by_id.find(in);
      if (it != by_id.end()) it->second.last = std::max(it->second.last, pos);
    }
  }
  for (const NodeId id : fetch_ids) {
    const auto it = by_id.find(id);
    if (it != by_id.end() && !order.empty()) it->second.last = order.size() - 1;
  }

  // --- greedy best-fit interval packing (largest tensor first) -----------
  std::vector<TensorInterval> todo;
  todo.reserve(by_id.size());
  for (const auto& [id, t] : by_id) todo.push_back(t);
  std::sort(todo.begin(), todo.end(),
            [](const TensorInterval& a, const TensorInterval& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.id < b.id;
            });

  MemoryPlan out;
  std::vector<TensorInterval> placed;
  placed.reserve(todo.size());
  for (TensorInterval t : todo) {
    // The candidates are the aligned ends of lifetime-overlapping placed
    // tensors (plus offset 0); best fit = the smallest adequate gap, lowest
    // offset on ties. Deterministic: placed is scanned in offset order.
    std::vector<const TensorInterval*> overlapping;
    for (const TensorInterval& p : placed) {
      if (p.first <= t.last && t.first <= p.last) overlapping.push_back(&p);
    }
    std::sort(overlapping.begin(), overlapping.end(),
              [](const TensorInterval* a, const TensorInterval* b) {
                if (a->offset != b->offset) return a->offset < b->offset;
                return a->id < b->id;
              });

    std::uint64_t best_offset = 0;
    std::uint64_t best_gap = 0;
    bool found = false;
    std::uint64_t cursor = 0;  // end of the occupied prefix so far
    for (const TensorInterval* p : overlapping) {
      const std::uint64_t cand = align_up(cursor, alignment);
      if (p->offset > cand && p->offset - cand >= t.bytes) {
        const std::uint64_t gap = p->offset - cand;
        if (!found || gap < best_gap) {
          best_offset = cand;
          best_gap = gap;
          found = true;
        }
      }
      cursor = std::max(cursor, p->offset + p->bytes);
    }
    if (!found) best_offset = align_up(cursor, alignment);

    t.offset = best_offset;
    placed.push_back(t);
    out.offsets_[t.id] = t.offset;
    out.report_.peak_bytes =
        std::max(out.report_.peak_bytes, t.offset + t.bytes);
    out.report_.total_bytes += t.bytes;
  }

  std::sort(placed.begin(), placed.end(),
            [](const TensorInterval& a, const TensorInterval& b) {
              return a.first < b.first;
            });
  out.intervals_ = std::move(placed);
  out.report_.tensor_count = out.intervals_.size();
  out.report_.bump_peak_bytes = simulate_bump_peak(graph, order, sizes);
  return out;
}

WeightStreaming::WeightStreaming(std::vector<std::vector<Window>> reads)
    : reads_(std::move(reads)), dead_(reads_.size()) {
  std::map<Window, std::size_t> last_use;
  for (std::size_t j = 0; j < reads_.size(); ++j) {
    for (const Window& w : reads_[j]) last_use[w] = j;
  }
  for (std::size_t j = 0; j < reads_.size(); ++j) {
    for (const Window& w : reads_[j]) {
      if (last_use.at(w) == j) dead_[j].push_back(w);
    }
  }
}

void WeightStreaming::prefetch_first(tee::MemoryEnv& env) const {
  if (reads_.empty()) return;
  for (const Window& w : reads_.front()) {
    env.prefetch(w.region, w.offset, w.bytes);
  }
}

void WeightStreaming::before_op(tee::MemoryEnv& env, std::size_t j) const {
  if (j >= 1) {
    for (const Window& w : dead_[j - 1]) {
      env.advise_evict(w.region, w.offset, w.bytes);
    }
  }
  if (j + 1 < reads_.size()) {
    for (const Window& w : reads_[j + 1]) {
      env.prefetch(w.region, w.offset, w.bytes);
    }
  }
}

}  // namespace stf::ml
