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
  /// together with `use_memory_planner` (it rides the planned replay).
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
  /// Fault-injection hook forwarded to the offload engine; null clears.
  void set_gpu_corruption(GpuOffloadEngine::CorruptionHook hook) {
    if (gpu_engine_ != nullptr) gpu_engine_->set_corruption(std::move(hook));
  }
  /// Runtime switch for the offload path (the serving fallback flips it off
  /// once the GPU is distrusted). No-op unless built with gpu_offload.
  void set_gpu_offload_enabled(bool on) { gpu_offload_enabled_ = on; }
  [[nodiscard]] bool gpu_offload_enabled() const {
    return gpu_offload_enabled_ && gpu_engine_ != nullptr;
  }
  /// The offload backend itself (fallback bookkeeping); nullptr when built
  /// without gpu_offload.
  [[nodiscard]] GpuOffloadEngine* gpu_engine() { return gpu_engine_.get(); }

 private:
  struct Tape;  // records per-node inputs/outputs of one forward pass

  /// The one evaluation loop. The legacy arena charges each node as it
  /// runs; a planned run charges nothing until replay_planned() after it.
  std::vector<Tensor> run_internal(const std::vector<NodeId>& fetch_ids,
                                   const std::map<std::string, Tensor>& feeds,
                                   Tape* tape);
  void replay_planned(const std::vector<NodeId>& order,
                      const std::vector<NodeId>& fetch_ids,
                      const std::map<NodeId, Tensor>& values,
                      const std::map<NodeId, double>& node_flops);
  void charge(const Node& node, const std::vector<const Tensor*>& inputs,
              const Tensor& output, double flops);
  void backward(const Tape& tape, const std::vector<NodeId>& order,
                std::map<std::string, Tensor>& grads_out);

  const Graph& graph_;
  tee::MemoryEnv* env_;
  kernels::KernelContext kernel_ctx_;
  SessionOptions options_;
  std::map<std::string, Tensor> variables_;
  /// Per-parameter-node env regions (weights live in the EPC persistently).
  std::map<NodeId, std::uint64_t> param_regions_;
  /// Rotating activation arena region.
  std::uint64_t arena_region_ = 0;
  std::uint64_t arena_bytes_ = 0;
  std::uint64_t arena_cursor_ = 0;
  /// Packed arena for planned runs, sized to the exact plan peak.
  std::uint64_t plan_arena_region_ = 0;
  std::uint64_t plan_arena_bytes_ = 0;
  bool plan_arena_mapped_ = false;
  /// Plans keyed by (fetches, fed shapes) signature — a steady-state serving
  /// loop plans once and replays forever.
  std::map<std::string, MemoryPlan> plan_cache_;
  std::optional<PlanReport> last_plan_report_;
  /// Offload backend; non-null iff options_.gpu_offload. Active only during
  /// forward (tape-less) runs.
  std::unique_ptr<GpuOffloadEngine> gpu_engine_;
  bool gpu_offload_enabled_ = true;
  double last_run_flops_ = 0;
  float last_loss_ = 0;
};

}  // namespace stf::ml
