#include "ml/session.h"

#include <algorithm>
#include <stdexcept>

#include "ml/op_table.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"

namespace stf::ml {
namespace {

constexpr std::uint64_t kArenaInitialBytes = 1 << 20;

bool is_parameter(OpType t) {
  return t == OpType::Const || t == OpType::Variable;
}

// Records an ml.session.gemm span from `start_ns` to now. A 0-length
// interval means the environment has no clock; skip.
void record_gemm(const tee::MemoryEnv& env, std::uint64_t start_ns) {
  const std::uint64_t end_ns = env.now_ns();
  if (end_ns > start_ns) {
    obs::SpanTracer::global().record(
        obs::span_id<obs::names::kSpanSessionGemm>(), start_ns, end_ns);
  }
}

// grad_a = g [m,n] x b^T [n,k] -> [m,k]
Tensor matmul_nt(const kernels::KernelContext& ctx, const Tensor& g,
                 const Tensor& b, double& flops) {
  const std::int64_t m = g.dim(0), n = g.dim(1), k = b.dim(0);
  Tensor out({m, k});
  kernels::gemm_nt(ctx, m, n, k, g.data(), b.data(), out.data());
  flops += 2.0 * static_cast<double>(m) * n * k;
  return out;
}

// grad_b = a^T [k,m] x g [m,n] -> [k,n]
Tensor matmul_tn(const kernels::KernelContext& ctx, const Tensor& a,
                 const Tensor& g, double& flops) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = g.dim(1);
  Tensor out({k, n});
  kernels::gemm_tn(ctx, k, m, n, a.data(), g.data(), out.data());
  flops += 2.0 * static_cast<double>(m) * k * n;
  return out;
}

void accumulate(std::optional<Tensor>& into, Tensor value) {
  if (!into.has_value()) {
    into = std::move(value);
    return;
  }
  if (!into->same_shape(value)) {
    throw std::logic_error("gradient shape mismatch during accumulation");
  }
  for (std::int64_t i = 0; i < into->size(); ++i) into->at(i) += value.at(i);
}

}  // namespace

struct Session::Tape {
  struct Record {
    NodeId id;
    std::vector<Tensor> inputs;
    Tensor output;
  };
  std::map<NodeId, Record> records;
};

Session::Session(const Graph& graph, tee::MemoryEnv* env,
                 kernels::KernelContext kernel_ctx, SessionOptions options)
    : graph_(graph), env_(env), kernel_ctx_(kernel_ctx), options_(options) {
  for (const Node& n : graph_.nodes()) {
    if (n.type == OpType::Variable) {
      if (!n.value.has_value()) {
        throw std::invalid_argument("variable '" + n.name +
                                    "' has no initial value");
      }
      variables_[n.name] = *n.value;
    }
    if (env_ != nullptr && is_parameter(n.type) && n.value.has_value()) {
      param_regions_[n.id] = env_->alloc(n.name, n.value->byte_size());
    }
  }
  if (env_ != nullptr) {
    arena_bytes_ = kArenaInitialBytes;
    arena_region_ = env_->alloc("activation-arena", arena_bytes_);
  }
  if (options_.gpu_offload) {
    gpu_engine_ =
        std::make_unique<GpuOffloadEngine>(options_.slalom, env_, kernel_ctx_);
    // Parameters ship to the GPU once, at session build time.
    gpu_engine_->upload_weights(graph_.parameter_bytes());
  }
}

Session::~Session() {
  if (env_ != nullptr) {
    for (const auto& [id, region] : param_regions_) env_->release(region);
    env_->release(arena_region_);
    if (plan_arena_mapped_) env_->release(plan_arena_region_);
  }
}

void Session::charge(const Node& node, const std::vector<const Tensor*>& inputs,
                     const Tensor& output, double flops) {
  if (env_ == nullptr) return;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Node& in_node = graph_.node(node.inputs[i]);
    const std::uint64_t bytes = inputs[i]->byte_size();
    if (const auto it = param_regions_.find(in_node.id);
        it != param_regions_.end()) {
      env_->access(it->second, 0, bytes, /*write=*/false);
    } else if (bytes > 0) {
      // Activation read from the arena (position approximated by cursor
      // history; re-reads of recent outputs hit the same hot pages). Inputs
      // larger than the current arena (e.g. a big fed batch before any
      // output grew it) clamp to the arena window.
      const std::uint64_t len = std::min(bytes, arena_bytes_);
      const std::uint64_t offset =
          arena_cursor_ >= len ? arena_cursor_ - len : 0;
      env_->access(arena_region_, std::min(offset, arena_bytes_ - len), len,
                   false);
    }
  }
  // Output write into the arena at the bump cursor.
  const std::uint64_t out_bytes = output.byte_size();
  if (out_bytes > 0 && !is_parameter(node.type)) {
    if (out_bytes > arena_bytes_ ||
        arena_cursor_ + out_bytes > arena_bytes_) {
      // Grow (or wrap) the arena: model frameworks growing their activation
      // workspace to the pass's high-water mark.
      if (out_bytes > arena_bytes_) {
        env_->release(arena_region_);
        arena_bytes_ = std::max(out_bytes, arena_bytes_ * 2);
        arena_region_ = env_->alloc("activation-arena", arena_bytes_);
      }
      arena_cursor_ = 0;
    }
    env_->access(arena_region_, arena_cursor_, out_bytes, /*write=*/true);
    arena_cursor_ += out_bytes;
  }
  env_->compute(flops);
}

std::vector<Tensor> Session::run_internal(
    const std::vector<NodeId>& fetch_ids,
    const std::map<std::string, Tensor>& feeds, Tape* tape) {
  const auto order = graph_.topological_order(fetch_ids);
  // GPU offload and the planner cover forward passes only. Training keeps
  // every op in-enclave (SessionOptions::gpu_offload doc) and the legacy
  // arena: the tape pins every activation to the end of the pass, so there
  // is no lifetime sharing for the planner to exploit.
  GpuOffloadEngine* const gpu =
      tape == nullptr && gpu_offload_enabled() ? gpu_engine_.get() : nullptr;
  const bool planned =
      options_.use_memory_planner && env_ != nullptr && tape == nullptr;
  std::map<NodeId, Tensor> values;
  std::map<NodeId, double> node_flops;
  last_run_flops_ = 0;
  arena_cursor_ = 0;

  for (const NodeId id : order) {
    const Node& node = graph_.node(id);
    switch (node.type) {
      case OpType::Const:
        values[id] = *node.value;
        continue;
      case OpType::Variable:
        values[id] = variables_.at(node.name);
        continue;
      case OpType::Placeholder: {
        const auto it = feeds.find(node.name);
        if (it == feeds.end()) {
          throw std::invalid_argument("placeholder '" + node.name +
                                      "' was not fed");
        }
        values[id] = it->second;
        continue;
      }
      default:
        break;
    }
    std::vector<const Tensor*> inputs;
    std::vector<const Shape*> shapes;
    inputs.reserve(node.inputs.size());
    shapes.reserve(node.inputs.size());
    for (const NodeId in : node.inputs) {
      inputs.push_back(&values.at(in));
      shapes.push_back(&inputs.back()->shape());
    }
    // A planned run charges nothing here: the plan decides where every
    // access lands, and the replay after the pass charges it.
    const bool timed = !planned && env_ != nullptr &&
                       (node.type == OpType::MatMul ||
                        node.type == OpType::Conv2D);
    const std::uint64_t gemm_start = timed ? env_->now_ns() : 0;
    ops::OpResult r = run_float_op(
        node.type, node.attrs, output_shape(node.type, node.attrs, shapes),
        {[&](std::size_t i) -> const Tensor& { return *inputs[i]; }},
        {gpu, "sess:", id}, kernel_ctx_);
    if (planned) {
      node_flops[id] = r.flops;
    } else {
      charge(node, inputs, r.output, r.flops);
    }
    if (timed) record_gemm(*env_, gemm_start);
    last_run_flops_ += r.flops;
    if (tape != nullptr) {
      Tape::Record rec{.id = id, .inputs = {}, .output = r.output};
      for (const Tensor* t : inputs) rec.inputs.push_back(*t);
      tape->records.emplace(id, std::move(rec));
    }
    values[id] = std::move(r.output);
  }
  if (planned) replay_planned(order, fetch_ids, values, node_flops);

  std::vector<Tensor> out;
  out.reserve(fetch_ids.size());
  for (const NodeId id : fetch_ids) out.push_back(values.at(id));
  obs::counter<obs::names::kSessionRuns>().add();
  obs::counter<obs::names::kSessionFlops>().add(
      static_cast<std::uint64_t>(last_run_flops_));
  return out;
}

void Session::replay_planned(const std::vector<NodeId>& order,
                             const std::vector<NodeId>& fetch_ids,
                             const std::map<NodeId, Tensor>& values,
                             const std::map<NodeId, double>& node_flops) {
  std::map<NodeId, std::uint64_t> sizes;
  for (const NodeId id : order) sizes[id] = values.at(id).byte_size();

  // Look up / build the plan. The signature captures exactly what
  // placement depends on: which nodes stay live to the end (fetches) and
  // the fed tensor sizes (batch-size polymorphism).
  std::string key;
  for (const NodeId id : fetch_ids) key += std::to_string(id) + ",";
  key += '|';
  for (const NodeId id : order) {
    const Node& node = graph_.node(id);
    if (node.type == OpType::Placeholder) {
      key += node.name + ':' + std::to_string(sizes.at(id)) + ';';
    }
  }
  auto pit = plan_cache_.find(key);
  if (pit == plan_cache_.end()) {
    pit = plan_cache_
              .emplace(key, MemoryPlanner::plan(graph_, order, sizes, fetch_ids))
              .first;
    obs::counter<obs::names::kPlannerPlans>().add();
  }
  const MemoryPlan& plan = pit->second;
  const PlanReport& rep = plan.report();
  last_plan_report_ = rep;
  obs::gauge<obs::names::kPlannerPeakBytes>().set(rep.peak_bytes);
  obs::gauge<obs::names::kPlannerSavedBytes>().set(
      rep.bump_peak_bytes > rep.peak_bytes ? rep.bump_peak_bytes - rep.peak_bytes
                                           : 0);

  // The packed arena is sized to the exact peak (grow-only across plans).
  if (!plan_arena_mapped_ || plan_arena_bytes_ < rep.peak_bytes) {
    if (plan_arena_mapped_) env_->release(plan_arena_region_);
    plan_arena_bytes_ = std::max(plan_arena_bytes_, rep.peak_bytes);
    plan_arena_region_ = env_->alloc(
        "planned-arena", std::max<std::uint64_t>(plan_arena_bytes_, 1));
    plan_arena_mapped_ = true;
  }

  // Weight streaming over the ops of the pass, each reading its weight
  // regions whole; the first op's weights are prefetched up front,
  // overlapping feed ingestion.
  std::optional<WeightStreaming> streaming;
  if (options_.weight_streaming) {
    std::vector<std::vector<WeightStreaming::Window>> reads;
    for (const NodeId id : order) {
      const Node& node = graph_.node(id);
      if (is_parameter(node.type) || node.type == OpType::Placeholder) continue;
      auto& op_reads = reads.emplace_back();
      for (const NodeId in : node.inputs) {
        if (const auto it = param_regions_.find(in);
            it != param_regions_.end()) {
          op_reads.push_back({it->second, 0, sizes.at(in)});
        }
      }
    }
    streaming.emplace(std::move(reads));
    streaming->prefetch_first(*env_);
  }

  // Replay the pass against the plan. Every access is charged at its exact
  // [offset, offset+bytes) window — including fed batches, which the
  // legacy arena clamps to its size.
  std::size_t op_index = 0;
  for (const NodeId id : order) {
    const Node& node = graph_.node(id);
    if (is_parameter(node.type)) continue;
    if (node.type == OpType::Placeholder) {
      // Feeding copies the batch into enclave memory: a full write at the
      // tensor's planned slot.
      if (plan.has(id)) {
        env_->access(plan_arena_region_, plan.offset_of(id), sizes.at(id),
                     /*write=*/true);
      }
      continue;
    }
    if (streaming) streaming->before_op(*env_, op_index);
    const bool is_gemm =
        node.type == OpType::MatMul || node.type == OpType::Conv2D;
    const std::uint64_t gemm_start = is_gemm ? env_->now_ns() : 0;
    for (const NodeId in : node.inputs) {
      if (const auto it = param_regions_.find(in); it != param_regions_.end()) {
        env_->access(it->second, 0, sizes.at(in), /*write=*/false);
      } else if (plan.has(in)) {
        env_->access(plan_arena_region_, plan.offset_of(in), sizes.at(in),
                     /*write=*/false);
      }
    }
    if (plan.has(id)) {
      env_->access(plan_arena_region_, plan.offset_of(id), sizes.at(id),
                   /*write=*/true);
    }
    env_->compute(node_flops.at(id));
    if (is_gemm) record_gemm(*env_, gemm_start);
    ++op_index;
  }
}

std::vector<Tensor> Session::run(const std::vector<std::string>& fetches,
                                 const std::map<std::string, Tensor>& feeds) {
  std::vector<NodeId> ids;
  ids.reserve(fetches.size());
  for (const auto& name : fetches) ids.push_back(graph_.find(name));
  return run_internal(ids, feeds, nullptr);
}

Tensor Session::run1(const std::string& fetch,
                     const std::map<std::string, Tensor>& feeds) {
  return run({fetch}, feeds).front();
}

const Tensor& Session::variable(const std::string& name) const {
  const auto it = variables_.find(name);
  if (it == variables_.end()) {
    throw std::invalid_argument("no variable named '" + name + "'");
  }
  return it->second;
}

void Session::assign(const std::string& name, Tensor value) {
  auto it = variables_.find(name);
  if (it == variables_.end()) {
    throw std::invalid_argument("no variable named '" + name + "'");
  }
  if (!it->second.same_shape(value)) {
    throw std::invalid_argument("assign to '" + name + "': shape mismatch");
  }
  it->second = std::move(value);
}

std::map<std::string, Tensor> Session::variable_snapshot() const {
  return variables_;
}

void Session::restore_variables(const std::map<std::string, Tensor>& values) {
  for (const auto& [name, value] : values) assign(name, value);
}

void Session::backward(const Tape& tape, const std::vector<NodeId>& order,
                       std::map<std::string, Tensor>& grads_out) {
  std::map<NodeId, std::optional<Tensor>> grads;
  // Seed: d(loss)/d(loss) = 1.
  grads[order.back()] = Tensor({1}, {1.0f});

  double flops = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    const Node& node = graph_.node(id);
    auto git = grads.find(id);
    if (git == grads.end() || !git->second.has_value()) continue;
    const Tensor& g = *git->second;

    if (node.type == OpType::Variable) {
      auto& slot = grads_out[node.name];
      if (slot.size() == 0) {
        slot = g;
      } else {
        for (std::int64_t i = 0; i < slot.size(); ++i) slot.at(i) += g.at(i);
      }
      continue;
    }
    if (node.type == OpType::Const || node.type == OpType::Placeholder) {
      continue;
    }

    const auto& rec = tape.records.at(id);
    switch (node.type) {
      case OpType::SoftmaxCrossEntropy: {
        // d(mean xent)/d(logits) = (softmax - labels)/m, scaled by upstream.
        auto r = ops::softmax_cross_entropy_grad(rec.inputs[0], rec.inputs[1]);
        const float upstream = g.at(0);
        for (std::int64_t i = 0; i < r.output.size(); ++i) {
          r.output.at(i) *= upstream;
        }
        flops += r.flops;
        accumulate(grads[node.inputs[0]], std::move(r.output));
        break;
      }
      case OpType::MatMul: {
        accumulate(grads[node.inputs[0]],
                   matmul_nt(kernel_ctx_, g, rec.inputs[1], flops));
        accumulate(grads[node.inputs[1]],
                   matmul_tn(kernel_ctx_, rec.inputs[0], g, flops));
        break;
      }
      case OpType::Add: {
        accumulate(grads[node.inputs[0]], g);
        const Tensor& b = rec.inputs[1];
        if (b.same_shape(g)) {
          accumulate(grads[node.inputs[1]], g);
        } else {
          // Bias broadcast: sum the gradient over the broadcast rows.
          Tensor gb(b.shape());
          const std::int64_t n = b.dim(0);
          for (std::int64_t i = 0; i < g.size(); ++i) {
            gb.at(i % n) += g.at(i);
          }
          flops += static_cast<double>(g.size());
          accumulate(grads[node.inputs[1]], std::move(gb));
        }
        break;
      }
      case OpType::Relu: {
        Tensor gx = g;
        for (std::int64_t i = 0; i < gx.size(); ++i) {
          if (rec.inputs[0].at(i) <= 0.0f) gx.at(i) = 0.0f;
        }
        flops += static_cast<double>(gx.size());
        accumulate(grads[node.inputs[0]], std::move(gx));
        break;
      }
      case OpType::Sigmoid: {
        // d/dx sigmoid = s * (1 - s), with s the recorded output.
        Tensor gx = g;
        for (std::int64_t i = 0; i < gx.size(); ++i) {
          const float sv = rec.output.at(i);
          gx.at(i) *= sv * (1.0f - sv);
        }
        flops += 3.0 * static_cast<double>(gx.size());
        accumulate(grads[node.inputs[0]], std::move(gx));
        break;
      }
      case OpType::Tanh: {
        // d/dx tanh = 1 - t^2, with t the recorded output.
        Tensor gx = g;
        for (std::int64_t i = 0; i < gx.size(); ++i) {
          const float tv = rec.output.at(i);
          gx.at(i) *= 1.0f - tv * tv;
        }
        flops += 3.0 * static_cast<double>(gx.size());
        accumulate(grads[node.inputs[0]], std::move(gx));
        break;
      }
      case OpType::Reshape: {
        accumulate(grads[node.inputs[0]], g.reshaped(rec.inputs[0].shape()));
        break;
      }
      case OpType::Scale: {
        Tensor gx = g;
        for (std::int64_t i = 0; i < gx.size(); ++i) {
          gx.at(i) *= node.attrs.scalar;
        }
        flops += static_cast<double>(gx.size());
        accumulate(grads[node.inputs[0]], std::move(gx));
        break;
      }
      case OpType::Conv2D: {
        auto gi = ops::conv2d_grad_input(rec.inputs[0], rec.inputs[1], g,
                                         node.attrs.stride, kernel_ctx_);
        auto gf = ops::conv2d_grad_filter(rec.inputs[0], rec.inputs[1], g,
                                          node.attrs.stride, kernel_ctx_);
        flops += gi.flops + gf.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        accumulate(grads[node.inputs[1]], std::move(gf.output));
        break;
      }
      case OpType::MaxPool2D: {
        auto gi = ops::max_pool2d_grad(rec.inputs[0], g, node.attrs.window,
                                       node.attrs.stride, kernel_ctx_);
        flops += gi.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        break;
      }
      case OpType::AvgPool2D: {
        auto gi = ops::avg_pool2d_grad(rec.inputs[0], g, node.attrs.window,
                                       node.attrs.stride, kernel_ctx_);
        flops += gi.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        break;
      }
      case OpType::GlobalAvgPool: {
        auto gi = ops::global_avg_pool_grad(rec.inputs[0], g);
        flops += gi.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        break;
      }
      default:
        throw std::logic_error(std::string("backward not implemented for ") +
                               op_name(node.type) +
                               " (inference-only operation)");
    }
  }
  if (env_ != nullptr) env_->compute(flops);
  last_run_flops_ += flops;
  obs::counter<obs::names::kSessionFlops>().add(
      static_cast<std::uint64_t>(flops));
}

std::map<std::string, Tensor> Session::gradients(
    const std::string& loss, const std::map<std::string, Tensor>& feeds) {
  const NodeId loss_id = graph_.find(loss);
  const auto order = graph_.topological_order({loss_id});
  Tape tape;
  const auto loss_value = run_internal({loss_id}, feeds, &tape);
  last_loss_ = loss_value.front().size() > 0 ? loss_value.front().at(0) : 0.0f;
  const double forward_flops = last_run_flops_;

  std::map<std::string, Tensor> grads;
  backward(tape, order, grads);
  last_run_flops_ += forward_flops;  // report forward+backward total

  // Backward reads every stashed activation and weight once more; charge the
  // corresponding memory traffic (tape size) to the environment.
  if (env_ != nullptr) {
    std::uint64_t tape_bytes = 0;
    for (const auto& [id, rec] : tape.records) {
      tape_bytes += rec.output.byte_size();
    }
    if (tape_bytes > 0) {
      if (tape_bytes > arena_bytes_) {
        env_->release(arena_region_);
        arena_bytes_ = tape_bytes;
        arena_region_ = env_->alloc("activation-arena", arena_bytes_);
      }
      env_->access(arena_region_, 0, std::min(tape_bytes, arena_bytes_), false);
    }
  }
  return grads;
}

void Session::apply_gradients(const std::map<std::string, Tensor>& grads,
                              float learning_rate) {
  for (const auto& [name, grad] : grads) {
    auto it = variables_.find(name);
    if (it == variables_.end()) {
      throw std::invalid_argument("apply_gradients: unknown variable '" +
                                  name + "'");
    }
    Tensor& value = it->second;
    if (!value.same_shape(grad)) {
      throw std::invalid_argument("apply_gradients: shape mismatch on '" +
                                  name + "'");
    }
    for (std::int64_t i = 0; i < value.size(); ++i) {
      value.at(i) -= learning_rate * grad.at(i);
    }
    if (env_ != nullptr) {
      const NodeId id = graph_.find(name);
      env_->access(param_regions_.at(id), 0, value.byte_size(), true);
      env_->compute(2.0 * static_cast<double>(value.size()));
    }
  }
}

float Session::train_step(const std::string& loss,
                          const std::map<std::string, Tensor>& feeds,
                          float learning_rate) {
  const auto grads = gradients(loss, feeds);
  apply_gradients(grads, learning_rate);
  obs::counter<obs::names::kSessionTrainSteps>().add();
  return last_loss_;
}

}  // namespace stf::ml
