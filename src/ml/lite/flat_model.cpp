#include "ml/lite/flat_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/op_table.h"
#include "ml/wire.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"

namespace stf::ml::lite {
namespace {

constexpr std::uint32_t kLiteMagic = 0x5354464C;  // "STFL"
constexpr std::uint32_t kVersion = 2;
// Version 3 = version 2 plus per-tensor calibrated activation ranges
// (act_min/act_max after quant_scale). Only calibrated models write it;
// uncalibrated models keep producing byte-identical version-2 files, and
// deserialize() accepts both.
constexpr std::uint32_t kVersionCalibrated = 3;

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

}  // namespace

FlatModel FlatModel::from_frozen(const Graph& graph,
                                 const std::string& input_name,
                                 const std::string& output_name) {
  FlatModel model;
  const NodeId output_id = graph.find(output_name);
  const auto order = graph.topological_order({output_id});

  std::map<NodeId, std::int32_t> tensor_of;
  for (const NodeId id : order) {
    const Node& node = graph.node(id);
    switch (node.type) {
      case OpType::Variable:
        throw std::invalid_argument(
            "Lite converter: graph contains Variable '" + node.name +
            "' — freeze it first");
      case OpType::SoftmaxCrossEntropy:
        throw std::invalid_argument(
            "Lite converter: training op '" + node.name +
            "' not supported (Lite is forward-only)");
      case OpType::Placeholder: {
        if (node.name != input_name) {
          throw std::invalid_argument(
              "Lite converter: unexpected placeholder '" + node.name + "'");
        }
        const auto idx = static_cast<std::int32_t>(model.tensors_.size());
        model.tensors_.push_back({});
        model.input_ = idx;
        tensor_of[id] = idx;
        break;
      }
      case OpType::Const: {
        const Tensor& value = *node.value;
        LiteTensorDesc desc;
        desc.shape = value.shape();
        desc.weight_offset = static_cast<std::int64_t>(model.weights_.size());
        model.weights_.insert(model.weights_.end(), value.data(),
                              value.data() + value.size());
        const auto idx = static_cast<std::int32_t>(model.tensors_.size());
        model.tensors_.push_back(std::move(desc));
        tensor_of[id] = idx;
        break;
      }
      default: {
        LiteOp op;
        op.type = node.type;
        op.attrs = node.attrs;
        for (const NodeId in : node.inputs) op.inputs.push_back(tensor_of.at(in));
        const auto idx = static_cast<std::int32_t>(model.tensors_.size());
        model.tensors_.push_back({});
        op.output = idx;
        model.ops_.push_back(std::move(op));
        tensor_of[id] = idx;
        break;
      }
    }
  }
  if (model.input_ < 0) {
    throw std::invalid_argument("Lite converter: graph has no input '" +
                                input_name + "'");
  }
  model.output_ = tensor_of.at(output_id);
  return model;
}

crypto::Bytes FlatModel::serialize() const {
  wire::Writer w;
  w.u32(kLiteMagic);
  w.u32(calibrated_ ? kVersionCalibrated : kVersion);
  w.u8(quantized_ ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(tensors_.size()));
  for (const auto& t : tensors_) {
    w.shape(t.shape);
    w.i64(t.weight_offset);
    w.f32(t.quant_scale);
    if (calibrated_) {
      w.f32(t.act_min);
      w.f32(t.act_max);
    }
  }
  w.u32(static_cast<std::uint32_t>(ops_.size()));
  for (const auto& op : ops_) {
    w.u8(static_cast<std::uint8_t>(op.type));
    w.i64(op.attrs.stride);
    w.i64(op.attrs.window);
    w.f32(op.attrs.scalar);
    w.shape(op.attrs.target_shape);
    w.u32(static_cast<std::uint32_t>(op.inputs.size()));
    for (const auto in : op.inputs) w.u32(static_cast<std::uint32_t>(in));
    w.u32(static_cast<std::uint32_t>(op.output));
  }
  w.u32(static_cast<std::uint32_t>(input_));
  w.u32(static_cast<std::uint32_t>(output_));
  w.i64(static_cast<std::int64_t>(quantized_ ? qweights_.size()
                                             : weights_.size()));
  w.bytes(crypto::BytesView(
      quantized_ ? reinterpret_cast<const std::uint8_t*>(qweights_.data())
                 : reinterpret_cast<const std::uint8_t*>(weights_.data()),
      weight_bytes()));
  return w.take();
}

FlatModel FlatModel::deserialize(crypto::BytesView data) {
  // Model files come from outside the enclave. The wire cursor checks every
  // count against the bytes still unread before anything is sized from it,
  // and every weight tensor must lie inside the arena — the interpreter
  // reads weights in place, with no copy to catch a bad range.
  wire::Reader r(data, "FlatModel");
  if (r.u32() != kLiteMagic) r.fail("bad magic");
  const std::uint32_t version = r.u32();
  if (version != kVersion && version != kVersionCalibrated) {
    r.fail("bad version");
  }

  FlatModel model;
  model.calibrated_ = version == kVersionCalibrated;
  model.quantized_ = r.u8() != 0;
  const std::size_t elem_size = model.quantized_ ? 1 : sizeof(float);
  // rank + weight_offset + quant_scale (+ act_min/act_max when calibrated)
  const std::uint32_t n_tensors = r.count(model.calibrated_ ? 24 : 16);
  model.tensors_.reserve(n_tensors);
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    LiteTensorDesc desc;
    desc.shape = r.dims(elem_size);
    desc.weight_offset = r.i64();
    desc.quant_scale = r.f32();
    if (model.calibrated_) {
      desc.act_min = r.f32();
      desc.act_max = r.f32();
    }
    model.tensors_.push_back(std::move(desc));
  }
  // type + stride + window + scalar + target rank + n_inputs + output
  const std::uint32_t n_ops = r.count(33);
  model.ops_.reserve(n_ops);
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    LiteOp op;
    // Graph-only types (sources, the training loss) do not lower to Lite.
    op.type = static_cast<OpType>(r.u8());
    const std::uint32_t arity = op_arity(op.type);
    if (arity == 0 || op.type == OpType::SoftmaxCrossEntropy) {
      r.fail("unsupported op type");
    }
    op.attrs.stride = r.i64();
    op.attrs.window = r.i64();
    op.attrs.scalar = r.f32();
    op.attrs.target_shape = r.shape();
    if (r.u32() != arity) r.fail("wrong number of op inputs");
    for (std::uint32_t j = 0; j < arity; ++j) {
      op.inputs.push_back(static_cast<std::int32_t>(r.u32()));
    }
    op.output = static_cast<std::int32_t>(r.u32());
    model.ops_.push_back(std::move(op));
  }
  model.input_ = static_cast<std::int32_t>(r.u32());
  model.output_ = static_cast<std::int32_t>(r.u32());
  // The interpreter indexes tensors by these fields unchecked, so the
  // program must be well formed: indices in range, and every op input a
  // weight, the model input or an earlier op's output. Each activation is
  // produced once, and the model output is produced at all.
  const auto in_range = [&](std::int32_t idx) {
    return idx >= 0 && static_cast<std::size_t>(idx) < model.tensors_.size();
  };
  if (!in_range(model.input_) || !in_range(model.output_)) {
    r.fail("model input or output out of range");
  }
  std::vector<bool> defined(model.tensors_.size());
  for (std::size_t t = 0; t < defined.size(); ++t) {
    defined[t] = model.tensors_[t].is_weight();
  }
  const auto defined_at = [&](std::int32_t idx) {
    return defined[static_cast<std::size_t>(idx)];
  };
  if (defined_at(model.input_)) r.fail("model input is a weight");
  defined_at(model.input_) = true;
  for (const LiteOp& op : model.ops_) {
    for (const std::int32_t idx : op.inputs) {
      if (!in_range(idx)) r.fail("op input out of range");
      if (!defined_at(idx)) r.fail("op input used before production");
      // What no input can make runnable is rejected here, at load.
      const LiteTensorDesc& d = model.tensors_[static_cast<std::size_t>(idx)];
      if (!d.is_weight()) continue;
      if (num_elements(d.shape) == 0) r.fail("weight operand has no elements");
      if ((op.type == OpType::MatMul && d.shape.size() != 2) ||
          (op.type == OpType::Conv2D && d.shape.size() != 4)) {
        r.fail("MatMul weight or Conv2D filter of the wrong rank");
      }
    }
    if (!in_range(op.output)) r.fail("op output out of range");
    if (defined_at(op.output)) r.fail("op output produced twice");
    defined_at(op.output) = true;
    const bool pool =
        op.type == OpType::MaxPool2D || op.type == OpType::AvgPool2D;
    if ((pool || op.type == OpType::Conv2D) &&
        (op.attrs.stride < 1 || (pool && op.attrs.window < 1))) {
      r.fail("window or stride below 1");
    }
    if (op.type == OpType::Reshape) {
      const Shape& target = op.attrs.target_shape;
      if (std::count(target.begin(), target.end(), -1) > 1 ||
          std::any_of(target.begin(), target.end(),
                      [](std::int64_t d) { return d == 0 || d < -1; })) {
        r.fail("bad reshape target");
      }
    }
  }
  if (!defined_at(model.output_)) r.fail("model output never produced");
  const std::int64_t n_weights = r.i64();
  if (n_weights < 0) r.fail("negative weight count");
  const crypto::BytesView arena =
      r.bytes(static_cast<std::uint64_t>(n_weights), elem_size);
  for (const auto& desc : model.tensors_) {
    if (desc.is_weight() &&
        num_elements(desc.shape) > n_weights - desc.weight_offset) {
      r.fail("weight tensor outside the arena");
    }
  }
  if (model.quantized_) {
    model.qweights_.resize(static_cast<std::size_t>(n_weights));
    std::memcpy(model.qweights_.data(), arena.data(), arena.size());
  } else {
    model.weights_.resize(static_cast<std::size_t>(n_weights));
    std::memcpy(model.weights_.data(), arena.data(), arena.size());
  }
  if (!r.done()) r.fail("trailing bytes");
  return model;
}

FlatModel FlatModel::quantized() const {
  if (quantized_) return *this;
  FlatModel q;
  q.tensors_ = tensors_;
  q.ops_ = ops_;
  q.input_ = input_;
  q.output_ = output_;
  q.quantized_ = true;
  q.qweights_.reserve(weights_.size());
  for (auto& desc : q.tensors_) {
    if (!desc.is_weight()) continue;
    const std::int64_t n = num_elements(desc.shape);
    const float* w = weights_.data() + desc.weight_offset;
    float max_abs = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      max_abs = std::max(max_abs, std::abs(w[i]));
    }
    desc.quant_scale = max_abs > 0 ? max_abs / 127.0f : 1.0f;
    desc.weight_offset = static_cast<std::int64_t>(q.qweights_.size());
    for (std::int64_t i = 0; i < n; ++i) {
      q.qweights_.push_back(kernels::quantize_one(w[i], desc.quant_scale));
    }
  }
  return q;
}

FlatModel FlatModel::quantized(const std::vector<Tensor>& calibration) const {
  if (quantized_) {
    throw std::logic_error(
        "FlatModel: calibrate from the float model, not an int8 one");
  }
  if (calibration.empty()) {
    throw std::invalid_argument(
        "FlatModel: calibration needs at least one sample");
  }
  FlatModel q = quantized();
  // Min/max calibration: run the float interpreter over the sample set and
  // record the observed range of every activation tensor (including the
  // input). The int8 execution path requantizes into these ranges.
  std::vector<bool> seen(tensors_.size(), false);
  LiteInterpreter probe(*this);
  const auto record = std::function<void(std::int32_t, const Tensor&)>(
      [&](std::int32_t idx, const Tensor& t) {
        if (t.size() == 0) return;
        auto& desc = q.tensors_[static_cast<std::size_t>(idx)];
        float lo = seen[static_cast<std::size_t>(idx)]
                       ? desc.act_min
                       : t.at(0);
        float hi = seen[static_cast<std::size_t>(idx)]
                       ? desc.act_max
                       : t.at(0);
        for (std::int64_t i = 0; i < t.size(); ++i) {
          lo = std::min(lo, t.at(i));
          hi = std::max(hi, t.at(i));
        }
        desc.act_min = lo;
        desc.act_max = hi;
        seen[static_cast<std::size_t>(idx)] = true;
      });
  for (const Tensor& sample : calibration) {
    (void)probe.invoke_observed(sample, record);
  }
  obs::counter<obs::names::kQuantCalibrationRuns>().add(calibration.size());
  q.calibrated_ = true;
  return q;
}

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
    gpu_offload_active_ = true;
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
  return forward(input, 1);
}

Tensor LiteInterpreter::invoke_observed(
    const Tensor& input,
    const std::function<void(std::int32_t, const Tensor&)>& observer) {
  if (int8_compute_) {
    throw std::logic_error(
        "invoke_observed: calibration runs on the float path");
  }
  observer_ = &observer;
  struct Reset {
    LiteInterpreter* self;
    ~Reset() { self->observer_ = nullptr; }
  } reset{this};
  return forward(input, 1);
}

std::vector<Tensor> LiteInterpreter::invoke_batch(
    const std::vector<const Tensor*>& inputs) {
  if (inputs.empty()) return {};
  if (inputs.size() == 1) {
    std::vector<Tensor> out;
    out.push_back(invoke(*inputs.front()));
    return out;
  }
  const Tensor& first = *inputs.front();
  if (first.rank() == 0 || first.dim(0) != 1) {
    throw std::invalid_argument(
        "invoke_batch: inputs must have a leading batch dimension of 1");
  }
  for (const Tensor* t : inputs) {
    if (t == nullptr || !t->same_shape(first)) {
      throw std::invalid_argument("invoke_batch: input shapes must match");
    }
  }

  // Stack [1, ...] inputs into one [n, ...] tensor; each row keeps its
  // original bytes, so the batched kernels see exactly the same per-row
  // operands as n single invokes would.
  const auto batch = static_cast<std::int64_t>(inputs.size());
  Shape batched_shape = first.shape();
  batched_shape[0] = batch;
  Tensor batched(batched_shape);
  float* row = batched.data();
  for (const Tensor* t : inputs) {
    row = std::copy(t->data(), t->data() + t->size(), row);
  }

  // forward() has checked that the output keeps the batch dimension.
  Tensor out = forward(batched, batch);

  // Split the batched output back into per-request [1, ...] tensors.
  Shape out_shape = out.shape();
  out_shape[0] = 1;
  const std::int64_t out_row = out.size() / batch;
  std::vector<Tensor> results;
  results.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = out.data() + b * out_row;
    results.emplace_back(out_shape, std::vector<float>(row, row + out_row));
  }
  return results;
}

Tensor LiteInterpreter::forward(const Tensor& input, std::int64_t batch) {
  // Every shape first: an input or program some op cannot run is rejected
  // here, before the invoke charges anything.
  const std::vector<Shape> shapes = infer_shapes(model_, input.shape(), batch);
  const std::vector<LiteTensorDesc>& tensors = model_.tensors();
  const auto& ops = model_.ops();

  // One value slot per tensor: float values, int8 codes (in `scale`), or
  // both once a value has crossed domains.
  struct Value {
    Tensor f;
    std::vector<std::int8_t> q;
    float scale = 1.0f;
    bool has_f = false, has_q = false;
  };
  std::vector<Value> values(tensors.size());
  const auto slot = [&](std::int32_t idx) -> Value& {
    return values[static_cast<std::size_t>(idx)];
  };
  const auto desc_of = [&](std::int32_t idx) -> const LiteTensorDesc& {
    return tensors[static_cast<std::size_t>(idx)];
  };
  const auto shape_of = [&](std::int32_t idx) -> const Shape& {
    return shapes[static_cast<std::size_t>(idx)];
  };
  last_flops_ = 0;
  last_int8_ops_ = 0;
  double macs = 0;
  double requants = 0;
  double conversions = 0;  // int8 ops of domain conversions, per charging span

  // The accessors. Weights are read where they lie in the arena (float
  // MatMul weights in place, int8 codes always); a value crosses into the
  // other domain on first use there, and the crossing counts as int8 work.
  const auto quantize = [&](std::int32_t idx, const Tensor& from) {
    Value& v = slot(idx);
    v.scale = desc_of(idx).act_scale();
    v.q.resize(static_cast<std::size_t>(from.size()));
    std::transform(from.data(), from.data() + from.size(), v.q.begin(),
                   [&](float x) { return kernels::quantize_one(x, v.scale); });
    v.has_q = true;
    conversions += static_cast<double>(from.size());
    requants += static_cast<double>(from.size());
  };
  struct Codes {
    const std::int8_t* data;
    float scale;
  };
  const auto codes = [&](std::int32_t idx) -> Codes {
    const LiteTensorDesc& d = desc_of(idx);
    if (d.is_weight()) {
      return {model_.qweights().data() + d.weight_offset, d.quant_scale};
    }
    Value& v = slot(idx);
    if (!v.has_q) quantize(idx, v.f);
    return {v.q.data(), v.scale};
  };
  const auto floats = [&](std::int32_t idx) -> const Tensor& {
    Value& v = slot(idx);
    if (v.has_f) return v.f;
    const LiteTensorDesc& d = desc_of(idx);
    const std::int64_t n = num_elements(shape_of(idx));
    std::vector<float> data(static_cast<std::size_t>(n));
    if (d.is_weight() && !model_.is_quantized()) {
      const float* w = model_.weights().data() + d.weight_offset;
      std::copy(w, w + n, data.begin());
    } else {
      const Codes c = codes(idx);
      std::transform(c.data, c.data + n, data.begin(), [&](std::int8_t q) {
        return static_cast<float>(q) * c.scale;
      });
      // A dequantized weight is charged as float work (the int8-storage
      // path); an activation leaving the int8 domain as int8 work.
      if (d.is_weight()) {
        last_flops_ += static_cast<double>(n);
      } else {
        conversions += static_cast<double>(n);
        requants += static_cast<double>(n);
      }
    }
    v.f = Tensor(shape_of(idx), std::move(data));
    v.has_f = true;
    return v.f;
  };

  const std::int32_t in_idx = model_.input_tensor();
  if (int8_compute_) {
    quantize(in_idx, input);
    if (env_ != nullptr) env_->compute_int8(conversions);
    last_int8_ops_ += conversions;
  } else {
    slot(in_idx).f = input;
    slot(in_idx).has_f = true;
    if (observer_ != nullptr) (*observer_)(in_idx, input);
  }

  // Streaming starts with the first op's windows. Quantized arenas stream
  // 1-byte windows, 4x more layers per EPC window than their float
  // expansions would.
  if (streaming_) streaming_->prefetch_first(*env_);

  for (std::size_t j = 0; j < ops.size(); ++j) {
    const LiteOp& op = ops[j];
    conversions = 0;
    // Per-op causal leaf (docs/TRACING.md): the virtual time this op spent
    // in the env (paging + compute), recorded as an ml.lite.op span that
    // attaches to whatever trace context the caller installed. Gated on the
    // tracing switch so untraced runs record nothing.
    const bool trace_ops = env_ != nullptr && obs::tracing_enabled();
    const std::uint64_t op_start_ns = trace_ops ? env_->now_ns() : 0;

    if (streaming_) streaming_->before_op(*env_, j);

    // Cost accounting: weight reads hit the weights region at their true
    // offset (page-accurate for the EPC model); activations ping-pong, at
    // the bytes stored (1 per element as int8 codes).
    if (env_ != nullptr) {
      for (const std::int32_t idx : op.inputs) {
        if (desc_of(idx).is_weight()) {
          const auto [off, len] = arena_span(model_, desc_of(idx));
          env_->access(weights_region_, off, len, false);
        } else {
          const std::uint64_t bytes =
              static_cast<std::uint64_t>(num_elements(shape_of(idx))) *
              (slot(idx).has_q ? 1 : sizeof(float));
          env_->access(activation_region_, 0,
                       std::min(bytes, activation_bytes_), false);
        }
      }
    }

    // The math, in the op's domain. On int8 codes: int32 accumulation with
    // requantization fused into the output tensor's calibrated scale
    // (docs/QUANTIZATION.md). Every per-element map is exact and integer
    // accumulation is exact, so row b of a batched pass equals the single
    // pass over input b bit for bit.
    const bool int8_out = int8_compute_ && runs_on_codes(op, tensors);
    const Shape& out_shape = shape_of(op.output);
    const std::int64_t total = num_elements(out_shape);
    std::vector<std::int8_t> qout;
    float out_scale = desc_of(op.output).act_scale();
    double op_ops = 0;  // int8 ops of the op proper (2*MACs + requants)
    ops::OpResult r;
    if (int8_out) {
      const Codes a = codes(op.inputs[0]);
      const Shape& as = shape_of(op.inputs[0]);
      qout.resize(static_cast<std::size_t>(total));
      std::int8_t* po = qout.data();
      // Elementwise: po[i] = the value fn(i), requantized.
      const auto map_codes = [&](const auto& fn) {
        kernels::parallel_for(kernel_ctx_, 0, total, 4096,
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
          const std::int64_t m = as[0], k = as[1], n = out_shape[1];
          kernels::gemm_s8(kernel_ctx_, m, k, n, a.data, w.data,
                           a.scale * w.scale / out_scale, po);
          const double op_macs = static_cast<double>(m) * k * n;
          op_ops = 2 * op_macs + static_cast<double>(total);
          macs += op_macs;
          break;
        }
        case OpType::Conv2D: {
          const Codes w = codes(op.inputs[1]);
          const Shape& fs = shape_of(op.inputs[1]);  // HWIO
          const kernels::ConvShape cs = kernels::conv_shape(
              as[0], as[1], as[2], as[3], fs[0], fs[1], fs[3],
              op.attrs.stride);
          kernels::conv2d_forward_s8(kernel_ctx_, cs, a.data, w.data,
                                     a.scale * w.scale / out_scale, po);
          const double op_macs =
              static_cast<double>(cs.out_pixels()) * cs.patch_size() * cs.k;
          op_ops = 2 * op_macs + static_cast<double>(total);
          macs += op_macs;
          break;
        }
        case OpType::Add: {
          const Codes b = codes(op.inputs[1]);
          const std::int64_t bn = num_elements(shape_of(op.inputs[1]));
          map_codes([&](std::int64_t i) {
            return static_cast<float>(a.data[i]) * a.scale +
                   static_cast<float>(b.data[i % bn]) * b.scale;
          });
          op_ops = 2.0 * static_cast<double>(total);
          break;
        }
        case OpType::Relu:
          map_codes([&](std::int64_t i) {
            return static_cast<float>(std::max<std::int8_t>(a.data[i], 0)) *
                   a.scale;
          });
          op_ops = static_cast<double>(total);
          break;
        case OpType::MaxPool2D: {
          // Max commutes with the positive per-tensor scale, so the window
          // max runs on raw codes.
          const std::int64_t window = op.attrs.window;
          kernels::pool2d(
              kernel_ctx_,
              {as[0], as[1], as[2], as[3], out_shape[1], out_shape[2], window,
               op.attrs.stride},
              1, a.data, po, std::int8_t{-127},
              [](std::int8_t acc, std::int8_t v) { return std::max(acc, v); },
              [&](std::int8_t acc) {
                return kernels::quantize_one(static_cast<float>(acc) * a.scale,
                                             out_scale);
              });
          op_ops = static_cast<double>(total) * window * window;
          break;
        }
        case OpType::Reshape:  // a reshape never changes any value
          std::copy(a.data, a.data + total, po);
          out_scale = a.scale;
          break;
        default:
          break;
      }
      if (op.type != OpType::Reshape) requants += static_cast<double>(total);
    } else {
      // A float weight as operand 1 is lent in place. The plan signature
      // is batch-independent, so batched and single runs share one set of
      // precomputed verification randomness.
      const LiteTensorDesc* b =
          op.inputs.size() > 1 ? &desc_of(op.inputs[1]) : nullptr;
      r = run_float_op(
          op.type, op.attrs, out_shape,
          {[&](std::size_t i) -> const Tensor& { return floats(op.inputs[i]); },
           b != nullptr && b->is_weight() && !model_.is_quantized()
               ? model_.weights().data() + b->weight_offset
               : nullptr},
          {gpu_offload_enabled() ? gpu_engine_.get() : nullptr, "lite:op",
           static_cast<std::int64_t>(j)},
          kernel_ctx_);
      last_flops_ += r.flops;
    }

    const double op_int8 = op_ops + conversions;
    if (env_ != nullptr) {
      const std::uint64_t out_bytes =
          int8_out ? qout.size() : r.output.byte_size();
      // Grow the ping-pong buffer pair to hold the largest activation.
      if (out_bytes * 2 > activation_bytes_) {
        env_->release(activation_region_);
        activation_bytes_ = out_bytes * 2;
        activation_region_ = env_->alloc("lite/activations", activation_bytes_);
      }
      env_->access(activation_region_, activation_bytes_ - out_bytes,
                   out_bytes, true);
      if (op_int8 > 0) env_->compute_int8(op_int8);
      if (!int8_out) env_->compute(r.flops);
    }
    if (trace_ops) {
      const std::uint64_t op_end_ns = env_->now_ns();
      if (op_end_ns > op_start_ns) {
        obs::SpanTracer::global().record(
            obs::span_id<obs::names::kSpanLiteOp>(), op_start_ns, op_end_ns);
      }
    }
    last_int8_ops_ += op_int8;

    Value& out = slot(op.output);
    if (int8_out) {
      out.q = std::move(qout);
      out.scale = out_scale;
      out.has_q = true;
    } else {
      out.f = std::move(r.output);
      out.has_f = true;
      if (observer_ != nullptr) (*observer_)(op.output, out.f);
    }
  }

  // The public contract returns floats: codes left by the last op are
  // dequantized, in a charging span of their own.
  conversions = 0;
  const std::int32_t out_idx = model_.output_tensor();
  (void)floats(out_idx);
  if (int8_compute_) {
    if (env_ != nullptr && conversions > 0) env_->compute_int8(conversions);
    last_int8_ops_ += conversions;
    obs::counter<obs::names::kQuantInt8Invokes>().add();
    obs::counter<obs::names::kQuantInt8Macs>().add(
        static_cast<std::uint64_t>(macs));
    obs::counter<obs::names::kQuantRequantizedElements>().add(
        static_cast<std::uint64_t>(requants));
  }
  return std::move(slot(out_idx).f);
}

}  // namespace stf::ml::lite
