// Session: executes a Graph, owns Variable state, and supports training.
//
// Mirrors TensorFlow's Session.run(fetches, feeds) contract. When given a
// tee::MemoryEnv the executor reports every weight access, activation
// buffer, and FLOP to it, which is how the same model run charges native,
// SIM-mode or HW-mode costs (the basis of Figures 5-8).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/graph.h"
#include "ml/memory_planner.h"
#include "ml/ops.h"
#include "ml/slalom.h"
#include "tee/memory_env.h"

namespace stf::ml {

/// Cost-model execution options (the math is unaffected by every one).
struct SessionOptions {
  /// Plan activation placement with liveness analysis + best-fit packing
  /// (docs/MEMORY_PLANNER.md) instead of the legacy bump-cursor arena.
  /// Forward runs only; training passes keep the legacy arena (the tape
  /// keeps every activation live anyway).
  bool use_memory_planner = false;
  /// Layer-wise weight streaming: while op k executes, prefetch op k+1's
  /// weights and advise-evict dead weights of op k-1. Only effective
  /// together with `use_memory_planner` (it rides the planned arena).
  bool weight_streaming = false;
  /// Offload linear layers (MatMul/Conv2D) to the simulated untrusted GPU
  /// with in-enclave verification per `slalom` (docs/GPU_OFFLOAD.md).
  /// Forward runs only — training passes always execute in-enclave (the
  /// backward pass needs unverified intermediate state nowhere near the
  /// Slalom protocol). Outputs stay bit-identical to the offload-off path.
  bool gpu_offload = false;
  SlalomConfig slalom;
};

class Session {
 public:
  /// `env` may be nullptr (pure math, no cost accounting). `kernel_ctx`
  /// picks the thread pool the op kernels run on; it changes wall time
  /// only (results are bit-identical at any thread count and the
  /// virtual-time charges are shape functions).
  explicit Session(const Graph& graph, tee::MemoryEnv* env = nullptr,
                   kernels::KernelContext kernel_ctx =
                       kernels::KernelContext::shared(),
                   SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the graph and returns the fetched tensors in order.
  std::vector<Tensor> run(const std::vector<std::string>& fetches,
                          const std::map<std::string, Tensor>& feeds = {});

  /// Single fetch convenience.
  Tensor run1(const std::string& fetch,
              const std::map<std::string, Tensor>& feeds = {});

  // --- variables ---------------------------------------------------------
  [[nodiscard]] const Tensor& variable(const std::string& name) const;
  void assign(const std::string& name, Tensor value);
  [[nodiscard]] std::map<std::string, Tensor> variable_snapshot() const;
  /// Assigns every variable `values` names, or none: an unknown name or a
  /// shape mismatch throws std::invalid_argument before anything changes.
  void restore_variables(const std::map<std::string, Tensor>& values);

  // --- training ----------------------------------------------------------
  /// Computes d(loss)/d(variable) for every trainable variable.
  /// `loss` must be a scalar node reachable from the variables.
  std::map<std::string, Tensor> gradients(
      const std::string& loss, const std::map<std::string, Tensor>& feeds);

  /// SGD update: var -= learning_rate * grad.
  void apply_gradients(const std::map<std::string, Tensor>& grads,
                       float learning_rate);

  /// Forward + backward + update; returns the loss value.
  float train_step(const std::string& loss,
                   const std::map<std::string, Tensor>& feeds,
                   float learning_rate);

  /// FLOPs charged by the most recent run/gradients call.
  [[nodiscard]] double last_run_flops() const { return last_run_flops_; }

  /// Loss value observed by the most recent gradients()/train_step() call.
  [[nodiscard]] float last_loss() const { return last_loss_; }

  [[nodiscard]] const Graph& graph() const { return graph_; }

  /// Report of the plan used by the most recent planned run; empty until a
  /// run executes with `use_memory_planner` and an environment.
  [[nodiscard]] const std::optional<PlanReport>& last_plan_report() const {
    return last_plan_report_;
  }

  /// Offload counters, or nullptr when built without SessionOptions::
  /// gpu_offload.
  [[nodiscard]] const SlalomStats* slalom_stats() const {
    return gpu_engine_ != nullptr ? &gpu_engine_->stats() : nullptr;
  }
  /// The offload backend itself (fallback bookkeeping, its on/off switch
  /// and fault-injection hook); nullptr when built without gpu_offload.
  [[nodiscard]] GpuOffloadEngine* gpu_engine() { return gpu_engine_.get(); }

 private:
  /// One pass's values, by node id. Op outputs are owned here; Const,
  /// Variable and fed tensors are read where they live, so a pass copies
  /// none of them. gradients() keeps it as the backward tape.
  struct Pass {
    std::vector<NodeId> order;
    std::vector<const Tensor*> value;
    std::vector<Tensor> outputs;  ///< empty for the source nodes
  };

  /// The one pass: every node's shape first (a graph the shape rule rejects
  /// throws before the first charge), then one loop that computes each op
  /// and charges it. The bump and the planned arena differ only in where
  /// an activation access lands. `training` keeps ops in the enclave and
  /// on the bump arena.
  Pass run_internal(const std::vector<NodeId>& fetch_ids,
                    const std::map<std::string, Tensor>& feeds, bool training);
  /// The cached plan for this pass's fetches and feed sizes, with the
  /// packed arena grown to hold it.
  const MemoryPlan& plan_arena(const std::vector<NodeId>& order,
                               const std::vector<NodeId>& fetch_ids,
                               const std::vector<std::uint64_t>& sizes);
  void backward(const Pass& tape, std::map<std::string, Tensor>& grads_out);

  const Graph& graph_;
  tee::MemoryEnv* env_;
  kernels::KernelContext kernel_ctx_;
  SessionOptions options_;
  std::map<std::string, Tensor> variables_;
  /// Per-parameter-node env regions (weights live in the EPC persistently).
  std::map<NodeId, std::uint64_t> param_regions_;
  /// Rotating activation arena region.
  std::uint64_t arena_region_ = 0;
  BumpArena arena_;
  /// Packed arena for planned runs, sized to the exact plan peak.
  std::uint64_t plan_arena_region_ = 0;
  std::uint64_t plan_arena_bytes_ = 0;
  bool plan_arena_mapped_ = false;
  /// Plans keyed by (fetches, fed shapes) signature — a steady-state serving
  /// loop plans once and reuses the plan on every later run.
  std::map<std::string, MemoryPlan> plan_cache_;
  std::optional<PlanReport> last_plan_report_;
  /// Offload backend; non-null iff options_.gpu_offload. Active only during
  /// forward (tape-less) runs.
  std::unique_ptr<GpuOffloadEngine> gpu_engine_;
  double last_run_flops_ = 0;
  float last_loss_ = 0;
};

}  // namespace stf::ml
