#include "ml/lite/flat_model.h"

#include <algorithm>
#include <stdexcept>

#include "ml/op_table.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"

namespace stf::ml::lite {
namespace {

// Where a weight tensor lies in the arena: byte offset and byte length.
std::pair<std::uint64_t, std::uint64_t> arena_span(const FlatModel& model,
                                                   const LiteTensorDesc& d) {
  const std::uint64_t elem_size = model.is_quantized() ? 1 : sizeof(float);
  return {static_cast<std::uint64_t>(d.weight_offset) * elem_size,
          static_cast<std::uint64_t>(num_elements(d.shape)) * elem_size};
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// Ops with an int8 kernel, which run on codes under int8_compute: MatMul
// and Conv2D with a weight operand, Add, Relu, MaxPool2D and Reshape.
bool runs_on_codes(const LiteOp& op, const std::vector<LiteTensorDesc>& t) {
  switch (op.type) {
    case OpType::MatMul:
    case OpType::Conv2D:
      return t[static_cast<std::size_t>(op.inputs[1])].is_weight();
    case OpType::Add:
    case OpType::Relu:
    case OpType::MaxPool2D:
    case OpType::Reshape:
      return true;
    default:
      return false;
  }
}

// Every tensor's shape for an input shaped `input`: weights keep theirs,
// each op's output comes from the one shape rule (ml/op_table.h), the int8
// kernels' only source of shapes. `batch` is the input's
// leading dimension (1 for single requests); a batched output keeps it.
std::vector<Shape> infer_shapes(const FlatModel& model, const Shape& input,
                                std::int64_t batch) {
  const auto& tensors = model.tensors();
  std::vector<Shape> shapes(tensors.size());
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    if (tensors[t].is_weight()) shapes[t] = tensors[t].shape;
  }
  shapes[static_cast<std::size_t>(model.input_tensor())] = input;
  // Every activation holds at least one element, so no kernel (nor GPU
  // offload's per-batch-row sampling) divides by an empty dimension.
  require(num_elements(input) > 0, "Lite interpreter: empty input");
  std::vector<const Shape*> in;
  for (const LiteOp& op : model.ops()) {
    in.clear();
    for (const std::int32_t idx : op.inputs) {
      in.push_back(&shapes[static_cast<std::size_t>(idx)]);
    }
    Shape& out = shapes[static_cast<std::size_t>(op.output)];
    out = output_shape(op.type, op.attrs, in, batch);
    require(num_elements(out) > 0, "Lite interpreter: empty activation");
  }
  const Shape& out = shapes[static_cast<std::size_t>(model.output_tensor())];
  require(batch == 1 || (!out.empty() && out[0] == batch),
          "invoke_batch: the model output has no batch dimension");
  return shapes;
}

// One input tensor for the pass: a single request's input as it is, or a
// batch's [1, ...] inputs stacked into one [n, ...] tensor. Each row keeps
// its original bytes, so the batched kernels see exactly the same per-row
// operands as n single invokes would.
Tensor stack(const std::vector<const Tensor*>& inputs) {
  const Tensor& first = *inputs.front();
  if (inputs.size() == 1) return first;
  Shape shape = first.shape();
  shape[0] = static_cast<std::int64_t>(inputs.size());
  Tensor batched(shape);
  float* row = batched.data();
  for (const Tensor* t : inputs) {
    row = std::copy(t->data(), t->data() + t->size(), row);
  }
  return batched;
}

// One output per request: a batch's output split back into [1, ...]
// tensors (the plan has checked that it keeps the batch dimension).
std::vector<Tensor> split(Tensor out, std::size_t requests) {
  std::vector<Tensor> results;
  results.reserve(requests);
  if (requests == 1) {
    results.push_back(std::move(out));
    return results;
  }
  Shape row_shape = out.shape();
  row_shape[0] = 1;
  const std::int64_t row = out.size() / static_cast<std::int64_t>(requests);
  for (std::size_t b = 0; b < requests; ++b) {
    const float* first = out.data() + static_cast<std::int64_t>(b) * row;
    results.emplace_back(row_shape, std::vector<float>(first, first + row));
  }
  return results;
}

// The values of one forward pass: one slot per tensor holding its floats,
// its int8 codes (in `scale`), or both once it has crossed domains, which
// it does on first use in the other domain; a slot is emptied after its
// last reader. It holds no env: the math step computes values and makes no
// charge. Weights are read where they lie in the arena (float MatMul
// weights in place, in panel order; int8 codes always).
class ForwardValues {
 public:
  ForwardValues(const FlatModel& model, const ChargePlan& plan,
                const kernels::KernelContext& ctx, const Observer* observer,
                Tensor input)
      : model_(model), plan_(plan), ctx_(ctx), observer_(observer),
        values_(model.tensors().size()),
        last_reader_(model.tensors().size(), model.ops().size()) {
    for (std::size_t j = 0; j < model_.ops().size(); ++j) {
      for (const std::int32_t idx : model_.ops()[j].inputs) {
        last_reader_[static_cast<std::size_t>(idx)] = j;
      }
    }
    const std::int32_t in = model_.input_tensor();
    if (plan_.int8) {
      quantize(in, input);
    } else {
      Value& v = slot(in);
      v.f = std::move(input);
      v.has_f = true;
      if (observer_ != nullptr) (*observer_)(in, v.f);
    }
  }

  /// Computes op j's output, its linear layers on `gpu` when non-null.
  /// Returns the flops the op's float kernel reports: for an offloaded
  /// layer, its in-enclave verification.
  double run(std::size_t j, GpuOffloadEngine* gpu) {
    const LiteOp& op = model_.ops()[j];
    double flops = 0;
    if (plan_.ops[j].on_codes) {
      run_on_codes(op);
    } else {
      flops = run_on_floats(j, op, gpu);
    }
    for (const std::int32_t idx : op.inputs) {
      if (last_reader_[static_cast<std::size_t>(idx)] == j &&
          idx != model_.output_tensor()) {
        slot(idx) = Value{};
      }
    }
    return flops;
  }

  /// The model output as floats.
  Tensor output() {
    const std::int32_t out = model_.output_tensor();
    (void)floats(out);
    return std::move(slot(out).f);
  }

 private:
  struct Value {
    Tensor f;
    std::vector<std::int8_t> q;
    float scale = 1.0f;
    bool has_f = false, has_q = false;
  };
  struct Codes {
    const std::int8_t* data;
    float scale;
  };

  double run_on_floats(std::size_t j, const LiteOp& op,
                       GpuOffloadEngine* gpu) {
    // A MatMul's float weight is lent in place, in panel order.
    const LiteTensorDesc* b = op.inputs.size() > 1 ? &desc(op.inputs[1])
                                                   : nullptr;
    ops::OpResult r = run_float_op(
        op.type, op.attrs, shape(op.output),
        {[&](std::size_t i) -> const Tensor& { return floats(op.inputs[i]); },
         b != nullptr && b->panels ? model_.weights().data() + b->weight_offset
                                   : nullptr},
        {gpu, "lite:op", static_cast<std::int64_t>(j)}, ctx_);
    Value& out = slot(op.output);
    out.f = std::move(r.output);
    out.has_f = true;
    if (observer_ != nullptr) (*observer_)(op.output, out.f);
    return r.flops;
  }

  Value& slot(std::int32_t idx) {
    return values_[static_cast<std::size_t>(idx)];
  }
  const LiteTensorDesc& desc(std::int32_t idx) const {
    return model_.tensors()[static_cast<std::size_t>(idx)];
  }
  const Shape& shape(std::int32_t idx) const {
    return plan_.shapes[static_cast<std::size_t>(idx)];
  }

  void quantize(std::int32_t idx, const Tensor& from) {
    Value& v = slot(idx);
    v.scale = desc(idx).act_scale();
    v.q.resize(static_cast<std::size_t>(from.size()));
    std::transform(from.data(), from.data() + from.size(), v.q.begin(),
                   [&](float x) { return kernels::quantize_one(x, v.scale); });
    v.has_q = true;
  }
  Codes codes(std::int32_t idx) {
    const LiteTensorDesc& d = desc(idx);
    if (d.is_weight()) {
      return {model_.qweights().data() + d.weight_offset, d.quant_scale};
    }
    Value& v = slot(idx);
    if (!v.has_q) quantize(idx, v.f);
    return {v.q.data(), v.scale};
  }
  const Tensor& floats(std::int32_t idx) {
    Value& v = slot(idx);
    if (v.has_f) return v.f;
    const LiteTensorDesc& d = desc(idx);
    const std::int64_t n = num_elements(shape(idx));
    std::vector<float> data(static_cast<std::size_t>(n));
    if (d.is_weight() && !model_.is_quantized()) {
      const float* w = model_.weights().data() + d.weight_offset;
      if (d.panels) {
        kernels::from_panels(d.shape[0], d.shape[1], w, data.data());
      } else {
        std::copy(w, w + n, data.begin());
      }
    } else {
      const Codes c = codes(idx);
      std::transform(c.data, c.data + n, data.begin(), [&](std::int8_t q) {
        return static_cast<float>(q) * c.scale;
      });
    }
    v.f = Tensor(shape(idx), std::move(data));
    v.has_f = true;
    return v.f;
  }

  // The op on int8 codes: int32 accumulation with requantization fused into
  // the output tensor's calibrated scale (docs/QUANTIZATION.md). Every
  // per-element map is exact and integer accumulation is exact, so row b of
  // a batched pass equals the single pass over input b bit for bit.
  void run_on_codes(const LiteOp& op) {
    const Codes a = codes(op.inputs[0]);
    const Shape& as = shape(op.inputs[0]);
    const Shape& out_shape = shape(op.output);
    const std::int64_t total = num_elements(out_shape);
    std::vector<std::int8_t> qout(static_cast<std::size_t>(total));
    float out_scale = desc(op.output).act_scale();
    std::int8_t* po = qout.data();
    // Elementwise: po[i] = the value fn(i), requantized.
    const auto map_codes = [&](const auto& fn) {
      kernels::parallel_for(ctx_, 0, total, 4096,
                            [&](std::int64_t i0, std::int64_t i1) {
                              for (std::int64_t i = i0; i < i1; ++i) {
                                po[i] = kernels::quantize_one(fn(i),
                                                              out_scale);
                              }
                            });
    };
    switch (op.type) {
      case OpType::MatMul: {
        const Codes w = codes(op.inputs[1]);
        kernels::gemm_s8(ctx_, as[0], as[1], out_shape[1], a.data, w.data,
                         a.scale * w.scale / out_scale, po);
        break;
      }
      case OpType::Conv2D: {
        const Codes w = codes(op.inputs[1]);
        const Shape& fs = shape(op.inputs[1]);  // HWIO
        const kernels::ConvShape cs = kernels::conv_shape(
            as[0], as[1], as[2], as[3], fs[0], fs[1], fs[3], op.attrs.stride);
        kernels::conv2d_forward_s8(ctx_, cs, a.data, w.data,
                                   a.scale * w.scale / out_scale, po);
        break;
      }
      case OpType::Add: {
        const Codes b = codes(op.inputs[1]);
        const std::int64_t bn = num_elements(shape(op.inputs[1]));
        const auto sum = [&](std::int64_t i, std::int64_t bi) {
          return static_cast<float>(a.data[i]) * a.scale +
                 static_cast<float>(b.data[bi]) * b.scale;
        };
        if (bn == total) {
          map_codes([&](std::int64_t i) { return sum(i, i); });
          break;
        }
        // A bias over the last dimension: rows x columns, no per-element
        // division.
        kernels::parallel_for(
            ctx_, 0, total / bn, std::max<std::int64_t>(1, 4096 / bn),
            [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t r = r0; r < r1; ++r) {
                for (std::int64_t c = 0; c < bn; ++c) {
                  po[r * bn + c] =
                      kernels::quantize_one(sum(r * bn + c, c), out_scale);
                }
              }
            });
        break;
      }
      case OpType::Relu:
        map_codes([&](std::int64_t i) {
          return static_cast<float>(std::max<std::int8_t>(a.data[i], 0)) *
                 a.scale;
        });
        break;
      case OpType::MaxPool2D: {
        // Max commutes with the positive per-tensor scale, so the window
        // max runs on raw codes.
        kernels::pool2d(
            ctx_,
            {as[0], as[1], as[2], as[3], out_shape[1], out_shape[2],
             op.attrs.window, op.attrs.stride},
            1, a.data, po, std::int8_t{-127},
            [](std::int8_t acc, std::int8_t v) { return std::max(acc, v); },
            [&](std::int8_t acc) {
              return kernels::quantize_one(static_cast<float>(acc) * a.scale,
                                           out_scale);
            });
        break;
      }
      case OpType::Reshape:  // a reshape never changes any value
        std::copy(a.data, a.data + total, po);
        out_scale = a.scale;
        break;
      default:
        break;
    }
    Value& out = slot(op.output);
    out.q = std::move(qout);
    out.scale = out_scale;
    out.has_q = true;
  }

  const FlatModel& model_;
  const ChargePlan& plan_;
  const kernels::KernelContext& ctx_;
  const Observer* observer_;
  std::vector<Value> values_;
  std::vector<std::size_t> last_reader_;  ///< per tensor; ops().size(): none
};

}  // namespace

LiteInterpreter::LiteInterpreter(const FlatModel& model, tee::MemoryEnv* env,
                                 kernels::KernelContext kernel_ctx,
                                 bool weight_streaming, bool int8_compute,
                                 bool gpu_offload, SlalomConfig slalom)
    : model_(model),
      env_(env),
      kernel_ctx_(kernel_ctx),
      int8_compute_(int8_compute) {
  if (int8_compute_ && (!model_.is_quantized() || !model_.is_calibrated())) {
    throw std::invalid_argument(
        "LiteInterpreter: int8_compute needs a calibrated int8 model "
        "(FlatModel::quantized(calibration))");
  }
  if (gpu_offload) {
    if (int8_compute_) {
      throw std::invalid_argument(
          "LiteInterpreter: gpu_offload is float-only (mutually exclusive "
          "with int8_compute)");
    }
    gpu_engine_ = std::make_unique<GpuOffloadEngine>(slalom, env_, kernel_ctx_);
    // Weights ship to the GPU once, at load time.
    gpu_engine_->upload_weights(model_.weight_bytes());
  }
  if (env_ != nullptr) {
    weights_region_ = env_->alloc("lite/weights", model_.weight_bytes());
    // int8 activations are a quarter the bytes, so the ping-pong floor
    // shrinks with them — fewer EPC pages re-faulted under weight thrash.
    activation_bytes_ = int8_compute_ ? 64 * 1024 : 256 * 1024;
    activation_region_ = env_->alloc("lite/activations", activation_bytes_);
  }
  if (env_ != nullptr && weight_streaming) {
    // Each op reads its weights where they lie in the arena.
    std::vector<std::vector<WeightStreaming::Window>> reads;
    for (const LiteOp& op : model_.ops()) {
      auto& op_reads = reads.emplace_back();
      for (const std::int32_t idx : op.inputs) {
        const auto& desc = model_.tensors()[static_cast<std::size_t>(idx)];
        if (!desc.is_weight()) continue;
        const auto [off, len] = arena_span(model_, desc);
        op_reads.push_back({weights_region_, off, len});
      }
    }
    streaming_.emplace(std::move(reads));
  }
}

LiteInterpreter::~LiteInterpreter() {
  if (env_ != nullptr) {
    env_->release(weights_region_);
    env_->release(activation_region_);
  }
}

Tensor LiteInterpreter::invoke(const Tensor& input) {
  return std::move(invoke_batch({&input}).front());
}

Tensor LiteInterpreter::invoke_observed(const Tensor& input,
                                        const Observer& observer) {
  if (int8_compute_) {
    throw std::logic_error(
        "invoke_observed: calibration runs on the float path");
  }
  observer_ = &observer;
  struct Reset {
    LiteInterpreter* self;
    ~Reset() { self->observer_ = nullptr; }
  } reset{this};
  return invoke(input);
}

std::vector<Tensor> LiteInterpreter::invoke_batch(
    const std::vector<const Tensor*>& inputs) {
  if (inputs.empty()) return {};
  return charge(plan(inputs), inputs).run();
}

ChargePlan LiteInterpreter::plan(
    const std::vector<const Tensor*>& inputs) const {
  const Tensor& first = *inputs.front();
  Shape input = first.shape();
  const auto batch = static_cast<std::int64_t>(inputs.size());
  if (batch > 1) {
    if (first.rank() == 0 || first.dim(0) != 1) {
      throw std::invalid_argument(
          "invoke_batch: inputs must have a leading batch dimension of 1");
    }
    for (const Tensor* t : inputs) {
      if (t == nullptr || !t->same_shape(first)) {
        throw std::invalid_argument("invoke_batch: input shapes must match");
      }
    }
    input[0] = batch;
  }

  ChargePlan plan;
  plan.shapes = infer_shapes(model_, input, batch);
  plan.int8 = int8_compute_;
  const std::vector<LiteTensorDesc>& tensors = model_.tensors();
  const auto desc_of = [&](std::int32_t idx) -> const LiteTensorDesc& {
    return tensors[static_cast<std::size_t>(idx)];
  };
  const auto shape_of = [&](std::int32_t idx) -> const Shape& {
    return plan.shapes[static_cast<std::size_t>(idx)];
  };
  const auto elements = [&](std::int32_t idx) {
    return static_cast<double>(num_elements(shape_of(idx)));
  };

  // The forms each value is held in as the pass goes: floats, int8 codes,
  // or both once it has crossed. The math step converts on first use in
  // the other domain; here each crossing is counted as int8 work, and each
  // quantized weight expanded to floats as float work.
  struct Held {
    bool f = false, q = false;
  };
  std::vector<Held> held(tensors.size());
  double crossings = 0;
  double weight_flops = 0;
  const auto to_codes = [&](std::int32_t idx) {
    Held& h = held[static_cast<std::size_t>(idx)];
    if (desc_of(idx).is_weight() || h.q) return;  // weight codes lie in place
    h.q = true;
    crossings += elements(idx);
    plan.requants += elements(idx);
  };
  const auto to_floats = [&](std::int32_t idx) {
    Held& h = held[static_cast<std::size_t>(idx)];
    if (h.f) return;
    h.f = true;
    if (!desc_of(idx).is_weight()) {
      crossings += elements(idx);
      plan.requants += elements(idx);
    } else if (model_.is_quantized()) {
      weight_flops += elements(idx);
    }
  };

  const std::int32_t in_idx = model_.input_tensor();
  if (int8_compute_) {
    held[static_cast<std::size_t>(in_idx)].q = true;
    plan.input_int8_ops = elements(in_idx);
    plan.requants += elements(in_idx);
  } else {
    held[static_cast<std::size_t>(in_idx)].f = true;
  }

  std::vector<const Shape*> in_shapes;
  for (const LiteOp& op : model_.ops()) {
    ChargePlan::Op& o = plan.ops.emplace_back();
    crossings = 0;
    weight_flops = 0;
    in_shapes.clear();
    for (std::size_t i = 0; i < op.inputs.size(); ++i) {
      const std::int32_t idx = op.inputs[i];
      in_shapes.push_back(&shape_of(idx));
      if (!desc_of(idx).is_weight()) {
        o.read_bytes[i] =
            static_cast<std::uint64_t>(num_elements(shape_of(idx))) *
            (held[static_cast<std::size_t>(idx)].q ? 1 : sizeof(float));
      }
    }
    const Shape& out = shape_of(op.output);
    const auto total = static_cast<double>(num_elements(out));
    o.on_codes = int8_compute_ && runs_on_codes(op, tensors);
    double op_ops = 0;  // int8 ops of the op proper (2*MACs + requants)
    if (o.on_codes) {
      for (const std::int32_t idx : op.inputs) to_codes(idx);
      const Shape& as = shape_of(op.inputs[0]);
      double op_macs = 0;
      switch (op.type) {
        case OpType::MatMul:
          op_macs = static_cast<double>(as[0]) * as[1] * out[1];
          op_ops = 2 * op_macs + total;
          break;
        case OpType::Conv2D: {
          const Shape& fs = shape_of(op.inputs[1]);  // HWIO
          const kernels::ConvShape cs = kernels::conv_shape(
              as[0], as[1], as[2], as[3], fs[0], fs[1], fs[3],
              op.attrs.stride);
          op_macs =
              static_cast<double>(cs.out_pixels()) * cs.patch_size() * cs.k;
          op_ops = 2 * op_macs + total;
          break;
        }
        case OpType::Add: op_ops = 2.0 * total; break;
        case OpType::Relu: op_ops = total; break;
        case OpType::MaxPool2D:
          op_ops = total * op.attrs.window * op.attrs.window;
          break;
        default:  // Reshape: a reshape never changes any value
          break;
      }
      plan.macs += op_macs;
      if (op.type != OpType::Reshape) plan.requants += total;
      held[static_cast<std::size_t>(op.output)].q = true;
      o.write_bytes = static_cast<std::uint64_t>(total);
    } else {
      for (const std::int32_t idx : op.inputs) to_floats(idx);
      o.flops = op_flops(op.type, op.attrs, in_shapes, out);
      held[static_cast<std::size_t>(op.output)].f = true;
      o.write_bytes = static_cast<std::uint64_t>(total) * sizeof(float);
    }
    o.weight_flops = weight_flops;
    o.int8_ops = op_ops + crossings;
  }

  // The public contract returns floats: codes left by the last op are
  // dequantized.
  crossings = 0;
  weight_flops = 0;
  to_floats(model_.output_tensor());
  plan.output_int8_ops = crossings;
  plan.output_weight_flops = weight_flops;
  return plan;
}

MathStep LiteInterpreter::charge(const ChargePlan& plan,
                                 const std::vector<const Tensor*>& inputs) {
  if (!offloading()) {
    charge_ops(plan, {});
    return MathStep(model_, kernel_ctx_, plan, inputs, observer_);
  }
  // The plan signature is batch-independent, so batched and single runs
  // share one set of precomputed verification randomness.
  ForwardValues values(model_, plan, kernel_ctx_, observer_, stack(inputs));
  charge_ops(plan, [&](std::size_t j) {
    return values.run(j, gpu_engine_.get());
  });
  return MathStep(split(values.output(), inputs.size()));
}

void LiteInterpreter::charge_ops(
    const ChargePlan& plan, const std::function<double(std::size_t)>& math) {
  const std::vector<LiteTensorDesc>& tensors = model_.tensors();
  const auto& ops = model_.ops();
  last_flops_ = 0;
  last_int8_ops_ = 0;
  if (int8_compute_) {
    if (env_ != nullptr) env_->compute_int8(plan.input_int8_ops);
    last_int8_ops_ += plan.input_int8_ops;
  }

  // Streaming starts with the first op's windows. Quantized arenas stream
  // 1-byte windows, 4x more layers per EPC window than their float
  // expansions would.
  if (streaming_) streaming_->prefetch_first(*env_);

  for (std::size_t j = 0; j < ops.size(); ++j) {
    const LiteOp& op = ops[j];
    const ChargePlan::Op& o = plan.ops[j];
    // Per-op causal leaf (docs/TRACING.md): the virtual time this op spent
    // in the env (paging + compute), recorded as an ml.lite.op span that
    // attaches to whatever trace context the caller installed. Gated on the
    // tracing switch so untraced runs record nothing.
    const bool trace_ops = env_ != nullptr && obs::tracing_enabled();
    const std::uint64_t op_start_ns = trace_ops ? env_->now_ns() : 0;

    if (streaming_) streaming_->before_op(*env_, j);

    // Weight reads hit the weights region at their true offset
    // (page-accurate for the EPC model); activations ping-pong, at the
    // bytes stored.
    if (env_ != nullptr) {
      for (std::size_t i = 0; i < op.inputs.size(); ++i) {
        const LiteTensorDesc& d =
            tensors[static_cast<std::size_t>(op.inputs[i])];
        if (d.is_weight()) {
          const auto [off, len] = arena_span(model_, d);
          env_->access(weights_region_, off, len, false);
        } else {
          env_->access(activation_region_, 0,
                       std::min(o.read_bytes[i], activation_bytes_), false);
        }
      }
    }

    const double flops = math ? math(j) : o.flops;
    last_flops_ += o.weight_flops;
    if (!o.on_codes) last_flops_ += flops;
    if (env_ != nullptr) {
      // Grow the ping-pong buffer pair to hold the largest activation.
      if (o.write_bytes * 2 > activation_bytes_) {
        env_->release(activation_region_);
        activation_bytes_ = o.write_bytes * 2;
        activation_region_ = env_->alloc("lite/activations", activation_bytes_);
      }
      env_->access(activation_region_, activation_bytes_ - o.write_bytes,
                   o.write_bytes, true);
      if (o.int8_ops > 0) env_->compute_int8(o.int8_ops);
      if (!o.on_codes) env_->compute(flops);
    }
    if (trace_ops) {
      const std::uint64_t op_end_ns = env_->now_ns();
      if (op_end_ns > op_start_ns) {
        obs::SpanTracer::global().record(
            obs::span_id<obs::names::kSpanLiteOp>(), op_start_ns, op_end_ns);
      }
    }
    last_int8_ops_ += o.int8_ops;
  }

  // Codes left by the last op are dequantized in a charging span of their
  // own.
  last_flops_ += plan.output_weight_flops;
  if (int8_compute_) {
    if (env_ != nullptr && plan.output_int8_ops > 0) {
      env_->compute_int8(plan.output_int8_ops);
    }
    last_int8_ops_ += plan.output_int8_ops;
    obs::counter<obs::names::kQuantInt8Invokes>().add();
    obs::counter<obs::names::kQuantInt8Macs>().add(
        static_cast<std::uint64_t>(plan.macs));
    obs::counter<obs::names::kQuantRequantizedElements>().add(
        static_cast<std::uint64_t>(plan.requants));
  }
}

bool MathStep::append(MathStep& next) {
  if (!pending() || !next.pending() || next.model_ != model_ ||
      next.plan_.int8 != plan_.int8 || next.observer_ != observer_) {
    return false;
  }
  const Tensor& first = *inputs_.front();
  if (first.rank() == 0 || first.dim(0) != 1 ||
      !next.inputs_.front()->same_shape(first)) {
    return false;
  }
  const auto rows =
      static_cast<std::int64_t>(inputs_.size() + next.inputs_.size());
  Shape input = first.shape();
  input[0] = rows;
  try {
    plan_.shapes = infer_shapes(*model_, input, rows);
  } catch (const std::invalid_argument&) {
    return false;  // e.g. an output without a batch dimension
  }
  inputs_.insert(inputs_.end(), next.inputs_.begin(), next.inputs_.end());
  next = MathStep();
  return true;
}

std::vector<Tensor> MathStep::run() {
  if (model_ != nullptr) {
    ForwardValues values(*model_, plan_, ctx_, observer_, stack(inputs_));
    for (std::size_t j = 0; j < plan_.ops.size(); ++j) {
      (void)values.run(j, nullptr);
    }
    outputs_ = split(values.output(), inputs_.size());
    model_ = nullptr;
  }
  return std::move(outputs_);
}

}  // namespace stf::ml::lite
