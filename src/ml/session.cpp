#include "ml/session.h"

#include <algorithm>
#include <stdexcept>

#include "ml/op_table.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"

namespace stf::ml {
namespace {

// Const, Variable and Placeholder: values the pass reads where they live.
bool is_source(OpType t) {
  return t == OpType::Const || t == OpType::Variable ||
         t == OpType::Placeholder;
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

// The variable `name`, when `value` may be assigned to it: throws
// std::invalid_argument for an unknown name or a different shape.
Tensor& assignable(std::map<std::string, Tensor>& variables,
                   const std::string& name, const Tensor& value) {
  const auto it = variables.find(name);
  if (it == variables.end()) {
    throw std::invalid_argument("no variable named '" + name + "'");
  }
  if (!it->second.same_shape(value)) {
    throw std::invalid_argument("assign to '" + name + "': shape mismatch");
  }
  return it->second;
}

}  // namespace

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
    if (env_ != nullptr && n.value.has_value() &&
        (n.type == OpType::Const || n.type == OpType::Variable)) {
      param_regions_[n.id] = env_->alloc(n.name, n.value->byte_size());
    }
  }
  if (env_ != nullptr) {
    arena_region_ = env_->alloc("activation-arena", arena_.bytes);
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

Session::Pass Session::run_internal(
    const std::vector<NodeId>& fetch_ids,
    const std::map<std::string, Tensor>& feeds, bool training) {
  Pass pass{.order = graph_.topological_order(fetch_ids),
            .value = std::vector<const Tensor*>(graph_.node_count()),
            .outputs = std::vector<Tensor>(graph_.node_count())};
  const std::vector<NodeId>& order = pass.order;

  // Shapes first: the one shape rule over every node, before any math or
  // charge. Sources take theirs from where their values live.
  std::vector<Shape> shapes(graph_.node_count());
  std::vector<std::uint64_t> sizes(graph_.node_count());
  for (const NodeId id : order) {
    const Node& node = graph_.node(id);
    const Tensor*& value = pass.value[id];
    if (node.type == OpType::Placeholder) {
      const auto it = feeds.find(node.name);
      if (it == feeds.end()) {
        throw std::invalid_argument("placeholder '" + node.name +
                                    "' was not fed");
      }
      value = &it->second;
    } else if (node.type == OpType::Variable) {
      value = &variables_.at(node.name);
    } else if (node.type == OpType::Const && node.value.has_value()) {
      value = &*node.value;  // without one, the shape rule refuses it
    }
    if (value != nullptr) {
      sizes[id] = value->byte_size();
      continue;
    }
    std::vector<const Shape*> in;
    in.reserve(node.inputs.size());
    for (const NodeId i : node.inputs) {
      in.push_back(pass.value[i] != nullptr ? &pass.value[i]->shape()
                                            : &shapes[i]);
    }
    shapes[id] = output_shape(node.type, node.attrs, in);
    sizes[id] = static_cast<std::uint64_t>(num_elements(shapes[id])) *
                sizeof(float);
  }

  // GPU offload and the planner cover forward passes only. Training keeps
  // every op in-enclave (SessionOptions::gpu_offload doc) and the bump
  // arena: the tape pins every activation to the end of the pass, so there
  // is no lifetime sharing for the planner to exploit.
  GpuOffloadEngine* gpu = training ? nullptr : gpu_engine_.get();
  if (gpu != nullptr && !gpu->active()) gpu = nullptr;
  const MemoryPlan* plan =
      options_.use_memory_planner && env_ != nullptr && !training
          ? &plan_arena(order, fetch_ids, sizes)
          : nullptr;
  // Weight streaming over the ops of the pass, each reading its weight
  // regions whole; the first op's weights are prefetched up front,
  // overlapping feed ingestion.
  std::optional<WeightStreaming> streaming;
  if (plan != nullptr && options_.weight_streaming) {
    std::vector<std::vector<WeightStreaming::Window>> reads;
    for (const NodeId id : order) {
      const Node& node = graph_.node(id);
      if (is_source(node.type)) continue;
      auto& op_reads = reads.emplace_back();
      for (const NodeId in : node.inputs) {
        if (const auto it = param_regions_.find(in);
            it != param_regions_.end()) {
          op_reads.push_back({it->second, 0, sizes[in]});
        }
      }
    }
    streaming.emplace(std::move(reads));
    streaming->prefetch_first(*env_);
  }

  // Where an activation access of node `t` lands: its planned window, or
  // the bump arena — a write at the cursor (growing or wrapping it), a
  // read at the cursor-history window.
  const auto land = [&](NodeId t, bool write) {
    if (plan != nullptr) {
      env_->access(plan_arena_region_, plan->offset_of(t), sizes[t], write);
    } else if (write) {
      const std::uint64_t was = arena_.bytes;
      const std::uint64_t offset = arena_.write(sizes[t]);
      if (arena_.bytes != was) {
        // Model frameworks growing their activation workspace to the
        // pass's high-water mark.
        env_->release(arena_region_);
        arena_region_ = env_->alloc("activation-arena", arena_.bytes);
      }
      env_->access(arena_region_, offset, sizes[t], true);
    } else {
      const auto [offset, len] = arena_.read(sizes[t]);
      env_->access(arena_region_, offset, len, false);
    }
  };

  last_run_flops_ = 0;
  arena_.cursor = 0;
  std::size_t op_index = 0;
  for (const NodeId id : order) {
    const Node& node = graph_.node(id);
    if (node.type == OpType::Placeholder && plan != nullptr && sizes[id] > 0) {
      // Feeding copies the batch into enclave memory: a full write at the
      // tensor's planned window. The bump arena never holds feeds.
      land(id, /*write=*/true);
    }
    if (is_source(node.type)) continue;
    if (streaming) streaming->before_op(*env_, op_index);
    const bool gemm = env_ != nullptr && (node.type == OpType::MatMul ||
                                          node.type == OpType::Conv2D);
    const std::uint64_t gemm_start = gemm ? env_->now_ns() : 0;
    ops::OpResult r = run_float_op(
        node.type, node.attrs, shapes[id],
        {[&](std::size_t i) -> const Tensor& {
          return *pass.value[node.inputs[i]];
        }},
        {gpu, "sess:", id}, kernel_ctx_);
    if (env_ != nullptr) {
      for (const NodeId in : node.inputs) {
        if (const auto it = param_regions_.find(in);
            it != param_regions_.end()) {
          env_->access(it->second, 0, sizes[in], /*write=*/false);
        } else if (sizes[in] > 0) {
          land(in, /*write=*/false);
        }
      }
      if (sizes[id] > 0) land(id, /*write=*/true);
      env_->compute(r.flops);
    }
    // An ml.session.gemm span; a 0-length one means the environment has
    // no clock.
    if (gemm && env_->now_ns() > gemm_start) {
      obs::SpanTracer::global().record(
          obs::span_id<obs::names::kSpanSessionGemm>(), gemm_start,
          env_->now_ns());
    }
    last_run_flops_ += r.flops;
    pass.outputs[id] = std::move(r.output);
    pass.value[id] = &pass.outputs[id];
    ++op_index;
  }
  obs::counter<obs::names::kSessionRuns>().add();
  obs::counter<obs::names::kSessionFlops>().add(
      static_cast<std::uint64_t>(last_run_flops_));
  return pass;
}

const MemoryPlan& Session::plan_arena(const std::vector<NodeId>& order,
                                      const std::vector<NodeId>& fetch_ids,
                                      const std::vector<std::uint64_t>& sizes) {
  // The signature captures exactly what placement depends on: which nodes
  // stay live to the end (fetches) and the fed tensor sizes (batch-size
  // polymorphism).
  std::string key;
  for (const NodeId id : fetch_ids) key += std::to_string(id) + ",";
  key += '|';
  for (const NodeId id : order) {
    const Node& node = graph_.node(id);
    if (node.type == OpType::Placeholder) {
      key += node.name + ':' + std::to_string(sizes[id]) + ';';
    }
  }
  auto pit = plan_cache_.find(key);
  if (pit == plan_cache_.end()) {
    pit = plan_cache_
              .emplace(key, MemoryPlanner::plan(graph_, order, sizes, fetch_ids))
              .first;
    obs::counter<obs::names::kPlannerPlans>().add();
  }
  const PlanReport& rep = pit->second.report();
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
  return pit->second;
}

std::vector<Tensor> Session::run(const std::vector<std::string>& fetches,
                                 const std::map<std::string, Tensor>& feeds) {
  std::vector<NodeId> ids;
  ids.reserve(fetches.size());
  for (const auto& name : fetches) ids.push_back(graph_.find(name));
  const Pass pass = run_internal(ids, feeds, /*training=*/false);
  std::vector<Tensor> out;
  out.reserve(ids.size());
  for (const NodeId id : ids) out.push_back(*pass.value[id]);
  return out;
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
  assignable(variables_, name, value) = std::move(value);
}

std::map<std::string, Tensor> Session::variable_snapshot() const {
  return variables_;
}

void Session::restore_variables(const std::map<std::string, Tensor>& values) {
  // Every name and shape first, so a bad entry leaves every variable as it
  // was.
  std::vector<Tensor*> targets;
  targets.reserve(values.size());
  for (const auto& [name, value] : values) {
    targets.push_back(&assignable(variables_, name, value));
  }
  auto target = targets.begin();
  for (const auto& entry : values) **target++ = entry.second;
}

void Session::backward(const Pass& tape,
                       std::map<std::string, Tensor>& grads_out) {
  const std::vector<NodeId>& order = tape.order;
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

    // The op's operands and output, as the forward pass left them.
    const auto in = [&](std::size_t i) -> const Tensor& {
      return *tape.value[node.inputs[i]];
    };
    const Tensor& out = tape.outputs[id];
    switch (node.type) {
      case OpType::SoftmaxCrossEntropy: {
        // d(mean xent)/d(logits) = (softmax - labels)/m, scaled by upstream.
        auto r = ops::softmax_cross_entropy_grad(in(0), in(1));
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
                   matmul_nt(kernel_ctx_, g, in(1), flops));
        accumulate(grads[node.inputs[1]],
                   matmul_tn(kernel_ctx_, in(0), g, flops));
        break;
      }
      case OpType::Add: {
        accumulate(grads[node.inputs[0]], g);
        const Tensor& b = in(1);
        if (b.same_shape(g)) {
          accumulate(grads[node.inputs[1]], g);
        } else {
          // Bias broadcast: sum the gradient over the broadcast rows, each
          // column's rows in ascending order (a flat walk with gb[i % n],
          // without a division per element).
          Tensor gb(b.shape());
          const std::int64_t cols = b.dim(0);
          for (std::int64_t r = 0; r < g.size() / cols; ++r) {
            const float* row = g.data() + r * cols;
            for (std::int64_t c = 0; c < cols; ++c) gb.data()[c] += row[c];
          }
          flops += static_cast<double>(g.size());
          accumulate(grads[node.inputs[1]], std::move(gb));
        }
        break;
      }
      case OpType::Relu: {
        Tensor gx = g;
        const Tensor& x = in(0);
        for (std::int64_t i = 0; i < gx.size(); ++i) {
          if (x.at(i) <= 0.0f) gx.at(i) = 0.0f;
        }
        flops += static_cast<double>(gx.size());
        accumulate(grads[node.inputs[0]], std::move(gx));
        break;
      }
      case OpType::Sigmoid: {
        // d/dx sigmoid = s * (1 - s), with s the recorded output.
        Tensor gx = g;
        for (std::int64_t i = 0; i < gx.size(); ++i) {
          const float sv = out.at(i);
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
          const float tv = out.at(i);
          gx.at(i) *= 1.0f - tv * tv;
        }
        flops += 3.0 * static_cast<double>(gx.size());
        accumulate(grads[node.inputs[0]], std::move(gx));
        break;
      }
      case OpType::Reshape: {
        accumulate(grads[node.inputs[0]], g.reshaped(in(0).shape()));
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
        auto gi = ops::conv2d_grad_input(in(0), in(1), g,
                                         node.attrs.stride, kernel_ctx_);
        auto gf = ops::conv2d_grad_filter(in(0), in(1), g,
                                          node.attrs.stride, kernel_ctx_);
        flops += gi.flops + gf.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        accumulate(grads[node.inputs[1]], std::move(gf.output));
        break;
      }
      case OpType::MaxPool2D: {
        auto gi = ops::max_pool2d_grad(in(0), g, node.attrs.window,
                                       node.attrs.stride, kernel_ctx_);
        flops += gi.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        break;
      }
      case OpType::AvgPool2D: {
        auto gi = ops::avg_pool2d_grad(in(0), g, node.attrs.window,
                                       node.attrs.stride, kernel_ctx_);
        flops += gi.flops;
        accumulate(grads[node.inputs[0]], std::move(gi.output));
        break;
      }
      case OpType::GlobalAvgPool: {
        auto gi = ops::global_avg_pool_grad(in(0), g);
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
  const Pass tape = run_internal({loss_id}, feeds, /*training=*/true);
  const Tensor& loss_value = *tape.value[loss_id];
  last_loss_ = loss_value.size() > 0 ? loss_value.at(0) : 0.0f;
  const double forward_flops = last_run_flops_;

  std::map<std::string, Tensor> grads;
  backward(tape, grads);
  last_run_flops_ += forward_flops;  // report forward+backward total

  // Backward reads every stashed op output once more; charge the
  // corresponding memory traffic (tape size) to the environment.
  if (env_ != nullptr) {
    std::uint64_t tape_bytes = 0;
    for (const Tensor& output : tape.outputs) tape_bytes += output.byte_size();
    if (tape_bytes > 0) {
      if (tape_bytes > arena_.bytes) {
        env_->release(arena_region_);
        arena_.bytes = tape_bytes;
        arena_region_ = env_->alloc("activation-arena", arena_.bytes);
      }
      env_->access(arena_region_, 0, std::min(tape_bytes, arena_.bytes), false);
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
