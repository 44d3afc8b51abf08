#include "ml/lite/flat_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "ml/ops.h"
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

// ml.quant.* series register lazily on first use of the int8/calibration
// path, so float-only runs keep their registry exports (and the committed
// BENCH baselines) byte-identical.
struct QuantObs {
  obs::Counter& invokes = obs::Registry::global().counter(
      obs::names::kQuantInt8Invokes, "int8_compute forward passes");
  obs::Counter& macs = obs::Registry::global().counter(
      obs::names::kQuantInt8Macs, "int8 multiply-accumulates in GEMM/conv");
  obs::Counter& requants = obs::Registry::global().counter(
      obs::names::kQuantRequantizedElements,
      "elements requantized or converted between int8 and float");
  obs::Counter& calibrations = obs::Registry::global().counter(
      obs::names::kQuantCalibrationRuns,
      "calibration forward passes over the sample set");
};

QuantObs& quant_obs() {
  static QuantObs* o = new QuantObs();
  return *o;
}

// Inputs an op of this type reads in the interpreter; 0 for a type byte the
// interpreter does not run (graph-only types and bytes past the enum).
std::uint32_t lite_arity(std::uint8_t type) {
  switch (static_cast<OpType>(type)) {
    case OpType::MatMul:
    case OpType::Add:
    case OpType::Conv2D:
      return 2;
    case OpType::Relu:
    case OpType::Softmax:
    case OpType::MaxPool2D:
    case OpType::AvgPool2D:
    case OpType::GlobalAvgPool:
    case OpType::Sigmoid:
    case OpType::Tanh:
    case OpType::Reshape:
    case OpType::ArgMax:
    case OpType::Scale:
      return 1;
    default:
      return 0;
  }
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
  crypto::Bytes out;
  auto u32 = [&out](std::uint32_t v) {
    std::uint8_t b[4];
    crypto::store_be32(b, v);
    crypto::append(out, crypto::BytesView(b, 4));
  };
  auto i64 = [&out](std::int64_t v) {
    std::uint8_t b[8];
    crypto::store_be64(b, static_cast<std::uint64_t>(v));
    crypto::append(out, crypto::BytesView(b, 8));
  };
  auto shape = [&](const Shape& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const auto d : s) i64(d);
  };

  u32(kLiteMagic);
  u32(calibrated_ ? kVersionCalibrated : kVersion);
  out.push_back(quantized_ ? 1 : 0);
  u32(static_cast<std::uint32_t>(tensors_.size()));
  for (const auto& t : tensors_) {
    shape(t.shape);
    i64(t.weight_offset);
    std::uint32_t scale_bits;
    std::memcpy(&scale_bits, &t.quant_scale, 4);
    u32(scale_bits);
    if (calibrated_) {
      std::uint32_t range_bits;
      std::memcpy(&range_bits, &t.act_min, 4);
      u32(range_bits);
      std::memcpy(&range_bits, &t.act_max, 4);
      u32(range_bits);
    }
  }
  u32(static_cast<std::uint32_t>(ops_.size()));
  for (const auto& op : ops_) {
    out.push_back(static_cast<std::uint8_t>(op.type));
    i64(op.attrs.stride);
    i64(op.attrs.window);
    std::uint32_t scalar_bits;
    std::memcpy(&scalar_bits, &op.attrs.scalar, 4);
    u32(scalar_bits);
    shape(op.attrs.target_shape);
    u32(static_cast<std::uint32_t>(op.inputs.size()));
    for (const auto in : op.inputs) u32(static_cast<std::uint32_t>(in));
    u32(static_cast<std::uint32_t>(op.output));
  }
  u32(static_cast<std::uint32_t>(input_));
  u32(static_cast<std::uint32_t>(output_));
  if (quantized_) {
    i64(static_cast<std::int64_t>(qweights_.size()));
    const auto* raw = reinterpret_cast<const std::uint8_t*>(qweights_.data());
    crypto::append(out, crypto::BytesView(raw, qweights_.size()));
  } else {
    i64(static_cast<std::int64_t>(weights_.size()));
    const auto* raw = reinterpret_cast<const std::uint8_t*>(weights_.data());
    crypto::append(out,
                   crypto::BytesView(raw, weights_.size() * sizeof(float)));
  }
  return out;
}

FlatModel FlatModel::deserialize(crypto::BytesView data) {
  // Model files come from outside the enclave. Every count is checked
  // against the bytes still unread before anything is sized from it, and
  // every weight tensor must lie inside the arena — the interpreter reads
  // float MatMul weights in place, with no copy to catch a bad range.
  std::size_t cursor = 0;
  auto need = [&](std::uint64_t n) {
    if (n > data.size() - cursor) {
      throw std::runtime_error("FlatModel: truncated model file");
    }
  };
  // `count` records of at least `min_bytes` each must fit in what is left.
  auto need_records = [&](std::uint64_t count, std::uint64_t min_bytes) {
    if (count > (data.size() - cursor) / min_bytes) {
      throw std::runtime_error("FlatModel: truncated model file");
    }
  };
  auto u32 = [&]() {
    need(4);
    const auto v = crypto::load_be32(data.data() + cursor);
    cursor += 4;
    return v;
  };
  auto i64 = [&]() {
    need(8);
    const auto v =
        static_cast<std::int64_t>(crypto::load_be64(data.data() + cursor));
    cursor += 8;
    return v;
  };
  auto shape = [&]() {
    const std::uint32_t rank = u32();
    if (rank > 16) throw std::runtime_error("FlatModel: implausible rank");
    Shape s(rank);
    for (auto& d : s) d = i64();
    return s;
  };
  // A tensor shape (unlike a Reshape target, where -1 means "infer") has
  // non-negative dims whose product fits in int64.
  auto tensor_shape = [&]() {
    Shape s = shape();
    std::int64_t elements = 1;
    for (const auto d : s) {
      if (d < 0) throw std::runtime_error("FlatModel: negative dimension");
      if (d != 0 && elements > std::numeric_limits<std::int64_t>::max() / d) {
        throw std::runtime_error("FlatModel: shape size overflows");
      }
      elements *= d;
    }
    return s;
  };

  if (u32() != kLiteMagic) throw std::runtime_error("FlatModel: bad magic");
  const std::uint32_t version = u32();
  if (version != kVersion && version != kVersionCalibrated) {
    throw std::runtime_error("FlatModel: bad version");
  }

  FlatModel model;
  model.calibrated_ = version == kVersionCalibrated;
  need(1);
  model.quantized_ = data[cursor++] != 0;
  const std::uint32_t n_tensors = u32();
  // rank + weight_offset + quant_scale (+ act_min/act_max when calibrated)
  need_records(n_tensors, model.calibrated_ ? 24 : 16);
  model.tensors_.reserve(n_tensors);
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    LiteTensorDesc desc;
    desc.shape = tensor_shape();
    desc.weight_offset = i64();
    const std::uint32_t scale_bits = u32();
    std::memcpy(&desc.quant_scale, &scale_bits, 4);
    if (model.calibrated_) {
      std::uint32_t range_bits = u32();
      std::memcpy(&desc.act_min, &range_bits, 4);
      range_bits = u32();
      std::memcpy(&desc.act_max, &range_bits, 4);
    }
    model.tensors_.push_back(std::move(desc));
  }
  const std::uint32_t n_ops = u32();
  // type + stride + window + scalar + target rank + n_inputs + output
  need_records(n_ops, 33);
  model.ops_.reserve(n_ops);
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    LiteOp op;
    need(1);
    const std::uint8_t type = data[cursor++];
    const std::uint32_t arity = lite_arity(type);
    if (arity == 0) throw std::runtime_error("FlatModel: unsupported op type");
    op.type = static_cast<OpType>(type);
    op.attrs.stride = i64();
    op.attrs.window = i64();
    const std::uint32_t scalar_bits = u32();
    std::memcpy(&op.attrs.scalar, &scalar_bits, 4);
    op.attrs.target_shape = shape();
    if (u32() != arity) {
      throw std::runtime_error("FlatModel: wrong number of op inputs");
    }
    for (std::uint32_t j = 0; j < arity; ++j) {
      op.inputs.push_back(static_cast<std::int32_t>(u32()));
    }
    op.output = static_cast<std::int32_t>(u32());
    model.ops_.push_back(std::move(op));
  }
  model.input_ = static_cast<std::int32_t>(u32());
  model.output_ = static_cast<std::int32_t>(u32());
  // The interpreter indexes tensors by these fields unchecked, so the
  // program must be well formed: indices in range, and every op input a
  // weight, the model input or an earlier op's output. Each activation is
  // produced once, and the model output is produced at all.
  const auto in_range = [&](std::int32_t idx) {
    return idx >= 0 && static_cast<std::size_t>(idx) < model.tensors_.size();
  };
  if (!in_range(model.input_) || !in_range(model.output_)) {
    throw std::runtime_error("FlatModel: model input or output out of range");
  }
  std::vector<bool> defined(model.tensors_.size());
  for (std::size_t t = 0; t < defined.size(); ++t) {
    defined[t] = model.tensors_[t].is_weight();
  }
  if (defined[static_cast<std::size_t>(model.input_)]) {
    throw std::runtime_error("FlatModel: model input is a weight");
  }
  defined[static_cast<std::size_t>(model.input_)] = true;
  for (const LiteOp& op : model.ops_) {
    for (const std::int32_t idx : op.inputs) {
      if (!in_range(idx)) {
        throw std::runtime_error("FlatModel: op input out of range");
      }
      if (!defined[static_cast<std::size_t>(idx)]) {
        throw std::runtime_error("FlatModel: op input used before production");
      }
    }
    if (!in_range(op.output)) {
      throw std::runtime_error("FlatModel: op output out of range");
    }
    if (defined[static_cast<std::size_t>(op.output)]) {
      throw std::runtime_error("FlatModel: op output produced twice");
    }
    defined[static_cast<std::size_t>(op.output)] = true;
  }
  if (!defined[static_cast<std::size_t>(model.output_)]) {
    throw std::runtime_error("FlatModel: model output never produced");
  }
  const std::int64_t n_weights = i64();
  if (n_weights < 0) {
    throw std::runtime_error("FlatModel: negative weight count");
  }
  const std::uint64_t elem_size = model.quantized_ ? 1 : sizeof(float);
  need_records(static_cast<std::uint64_t>(n_weights), elem_size);
  for (const auto& desc : model.tensors_) {
    if (desc.is_weight() &&
        num_elements(desc.shape) > n_weights - desc.weight_offset) {
      throw std::runtime_error("FlatModel: weight tensor outside the arena");
    }
  }
  const std::size_t weight_bytes =
      static_cast<std::size_t>(n_weights) * elem_size;
  if (model.quantized_) {
    model.qweights_.resize(static_cast<std::size_t>(n_weights));
    std::memcpy(model.qweights_.data(), data.data() + cursor, weight_bytes);
  } else {
    model.weights_.resize(static_cast<std::size_t>(n_weights));
    std::memcpy(model.weights_.data(), data.data() + cursor, weight_bytes);
  }
  cursor += weight_bytes;
  if (cursor != data.size()) {
    throw std::runtime_error("FlatModel: trailing bytes");
  }
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
      const float scaled = w[i] / desc.quant_scale;
      const int qv = static_cast<int>(scaled >= 0 ? scaled + 0.5f
                                                  : scaled - 0.5f);
      q.qweights_.push_back(static_cast<std::int8_t>(
          std::max(-127, std::min(127, qv))));
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
  quant_obs().calibrations.add(calibration.size());
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
      weight_streaming_(weight_streaming),
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
    gpu_engine_ = std::make_unique<GpuOffloadEngine>(slalom, env_, nullptr,
                                                     kernel_ctx_);
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
  if (env_ != nullptr && weight_streaming_) {
    // Streaming schedule over the linear program: for each op, the weight
    // windows it reads, plus the windows dead after it (their last reader).
    const std::uint64_t elem_size = model_.is_quantized() ? 1 : sizeof(float);
    const auto& ops = model_.ops();
    op_weight_spans_.resize(ops.size());
    op_dead_spans_.resize(ops.size());
    std::map<std::int32_t, std::size_t> last_use;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      for (const std::int32_t idx : ops[j].inputs) {
        const auto& desc = model_.tensors()[static_cast<std::size_t>(idx)];
        if (!desc.is_weight()) continue;
        op_weight_spans_[j].emplace_back(
            static_cast<std::uint64_t>(desc.weight_offset) * elem_size,
            static_cast<std::uint64_t>(num_elements(desc.shape)) * elem_size);
        last_use[idx] = j;
      }
    }
    for (std::size_t j = 0; j < ops.size(); ++j) {
      for (const std::int32_t idx : ops[j].inputs) {
        const auto& desc = model_.tensors()[static_cast<std::size_t>(idx)];
        if (!desc.is_weight() || last_use.at(idx) != j) continue;
        op_dead_spans_[j].emplace_back(
            static_cast<std::uint64_t>(desc.weight_offset) * elem_size,
            static_cast<std::uint64_t>(num_elements(desc.shape)) * elem_size);
      }
    }
  }
}

LiteInterpreter::~LiteInterpreter() {
  if (env_ != nullptr) {
    env_->release(weights_region_);
    env_->release(activation_region_);
  }
}

Tensor LiteInterpreter::invoke(const Tensor& input) {
  return int8_compute_ ? execute_int8(input, 1) : execute(input, 1);
}

Tensor LiteInterpreter::invoke_observed(
    const Tensor& input,
    const std::function<void(std::int32_t, const Tensor&)>& observer) {
  if (int8_compute_) {
    throw std::logic_error(
        "invoke_observed: calibration runs on the float path");
  }
  observer_ = &observer;
  try {
    Tensor out = execute(input, 1);
    observer_ = nullptr;
    return out;
  } catch (...) {
    observer_ = nullptr;
    throw;
  }
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
  const std::int64_t row = first.size();
  for (std::int64_t b = 0; b < batch; ++b) {
    std::copy(inputs[static_cast<std::size_t>(b)]->data(),
              inputs[static_cast<std::size_t>(b)]->data() + row,
              batched.data() + b * row);
  }

  Tensor out = int8_compute_ ? execute_int8(batched, batch)
                             : execute(batched, batch);
  if (out.rank() == 0 || out.dim(0) != batch) {
    throw std::logic_error("invoke_batch: output lost the batch dimension");
  }

  // Split the batched output back into per-request [1, ...] tensors.
  Shape out_shape = out.shape();
  out_shape[0] = 1;
  const std::int64_t out_row = out.size() / batch;
  std::vector<Tensor> results;
  results.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t b = 0; b < batch; ++b) {
    Tensor slice(out_shape);
    std::copy(out.data() + b * out_row, out.data() + (b + 1) * out_row,
              slice.data());
    results.push_back(std::move(slice));
  }
  return results;
}

Tensor LiteInterpreter::execute(const Tensor& input, std::int64_t batch) {
  std::vector<Tensor> values(model_.tensors().size());
  std::vector<bool> ready(model_.tensors().size(), false);
  values[static_cast<std::size_t>(model_.input_tensor())] = input;
  ready[static_cast<std::size_t>(model_.input_tensor())] = true;
  last_flops_ = 0;
  last_int8_ops_ = 0;
  if (observer_ != nullptr) (*observer_)(model_.input_tensor(), input);

  auto materialize = [&](std::int32_t idx) -> const Tensor& {
    auto& slot = values[static_cast<std::size_t>(idx)];
    if (!ready[static_cast<std::size_t>(idx)]) {
      const LiteTensorDesc& desc = model_.tensors()[static_cast<std::size_t>(idx)];
      if (!desc.is_weight()) {
        throw std::logic_error("Lite: activation used before production");
      }
      const std::int64_t n = num_elements(desc.shape);
      std::vector<float> data(static_cast<std::size_t>(n));
      if (model_.is_quantized()) {
        const std::int8_t* qw = model_.qweights().data() + desc.weight_offset;
        for (std::int64_t i = 0; i < n; ++i) {
          data[static_cast<std::size_t>(i)] =
              static_cast<float>(qw[i]) * desc.quant_scale;
        }
        last_flops_ += static_cast<double>(n);  // dequantization work
      } else {
        std::copy(model_.weights().begin() + desc.weight_offset,
                  model_.weights().begin() + desc.weight_offset + n,
                  data.begin());
      }
      slot = Tensor(desc.shape, std::move(data));
      ready[static_cast<std::size_t>(idx)] = true;
    }
    return slot;
  };
  // MatMul reads a float weight in place from the arena, the way
  // execute_int8 reads int8 codes through its weight_view; nullptr when
  // `idx` is not one. Copies stay only where they are the semantics or the
  // API: the dequantizing int8-storage path, GPU offload, and the small
  // bias and Conv2D filter tensors.
  const auto weight_view = [&](std::int32_t idx) -> const float* {
    const LiteTensorDesc& d = model_.tensors()[static_cast<std::size_t>(idx)];
    if (!d.is_weight() || model_.is_quantized()) return nullptr;
    return model_.weights().data() + d.weight_offset;
  };

  // The first op has no predecessor to prefetch it; issue its windows up
  // front so repeated invokes don't demand-fault what the previous invoke
  // streamed out.
  if (env_ != nullptr && weight_streaming_ && !op_weight_spans_.empty()) {
    for (const auto& [off, len] : op_weight_spans_.front()) {
      env_->prefetch(weights_region_, off, len);
    }
  }

  for (std::size_t j = 0; j < model_.ops().size(); ++j) {
    const LiteOp& op = model_.ops()[j];
    // Per-op causal leaf (docs/TRACING.md): the virtual time this op spent
    // in the env (paging + compute), recorded as an ml.lite.op span that
    // attaches to whatever trace context the caller installed. Gated on the
    // tracing switch so untraced runs record nothing.
    const bool trace_ops = env_ != nullptr && obs::tracing_enabled();
    const std::uint64_t op_start_ns = trace_ops ? env_->now_ns() : 0;

    if (env_ != nullptr && weight_streaming_) {
      // Retire the previous op's dead weight windows off the critical path,
      // then overlap the next op's fault-in with this op's compute.
      if (j >= 1) {
        for (const auto& [off, len] : op_dead_spans_[j - 1]) {
          env_->advise_evict(weights_region_, off, len);
        }
      }
      if (j + 1 < model_.ops().size()) {
        for (const auto& [off, len] : op_weight_spans_[j + 1]) {
          env_->prefetch(weights_region_, off, len);
        }
      }
    }

    // Cost accounting: weight reads hit the weights region at their true
    // offset (page-accurate for the EPC model); activations ping-pong.
    if (env_ != nullptr) {
      for (const std::int32_t idx : op.inputs) {
        const auto& desc = model_.tensors()[static_cast<std::size_t>(idx)];
        if (desc.is_weight()) {
          const std::uint64_t elem_size =
              model_.is_quantized() ? 1 : sizeof(float);
          env_->access(weights_region_,
                       static_cast<std::uint64_t>(desc.weight_offset) *
                           elem_size,
                       static_cast<std::uint64_t>(num_elements(desc.shape)) *
                           elem_size,
                       false);
        } else {
          env_->access(activation_region_, 0,
                       std::min<std::uint64_t>(
                           values[static_cast<std::size_t>(idx)].byte_size(),
                           activation_bytes_),
                       false);
        }
      }
    }

    ops::OpResult r;
    auto in = [&](std::size_t i) -> const Tensor& {
      return materialize(op.inputs.at(i));
    };
    // Linear layers go to the untrusted GPU when offload is active; r.flops
    // then carries the in-enclave verification arithmetic (charged below
    // exactly like any op's compute), while GPU flops and PCIe bytes were
    // already billed inside the engine under profile.gpu / profile.pcie.
    // The plan signature is batch-independent, so batched and single runs
    // share one set of precomputed verification randomness.
    const bool offload = gpu_offload_enabled();
    switch (op.type) {
      case OpType::MatMul:
        if (offload) {
          r = gpu_engine_->matmul(
              in(0), in(1),
              "lite:op" + std::to_string(j) + ":mm:" +
                  std::to_string(in(0).dim(1)) + "x" +
                  std::to_string(in(1).dim(1)));
        } else if (const float* w = weight_view(op.inputs.at(1))) {
          r = ops::matmul(
              in(0),
              model_.tensors()[static_cast<std::size_t>(op.inputs[1])].shape,
              w, kernel_ctx_);
        } else {
          r = ops::matmul(in(0), in(1), kernel_ctx_);
        }
        break;
      case OpType::Add: r = ops::add(in(0), in(1), kernel_ctx_); break;
      case OpType::Relu: r = ops::relu(in(0), kernel_ctx_); break;
      case OpType::Softmax: r = ops::softmax(in(0)); break;
      case OpType::Sigmoid: r = ops::sigmoid(in(0), kernel_ctx_); break;
      case OpType::Tanh: r = ops::tanh_op(in(0), kernel_ctx_); break;
      case OpType::Conv2D:
        if (offload) {
          r = gpu_engine_->conv2d(
              in(0), in(1), op.attrs.stride,
              "lite:op" + std::to_string(j) + ":conv:" +
                  std::to_string(in(0).dim(3)) + "to" +
                  std::to_string(in(1).dim(3)) + ":f" +
                  std::to_string(in(1).dim(0)) + "s" +
                  std::to_string(op.attrs.stride));
        } else {
          r = ops::conv2d(in(0), in(1), op.attrs.stride, kernel_ctx_);
        }
        break;
      case OpType::MaxPool2D:
        r = ops::max_pool2d(in(0), op.attrs.window, op.attrs.stride,
                            kernel_ctx_);
        break;
      case OpType::AvgPool2D:
        r = ops::avg_pool2d(in(0), op.attrs.window, op.attrs.stride,
                            kernel_ctx_);
        break;
      case OpType::GlobalAvgPool: r = ops::global_avg_pool(in(0)); break;
      case OpType::Reshape: {
        Shape target = op.attrs.target_shape;
        std::int64_t known = 1;
        int infer = -1;
        for (std::size_t i = 0; i < target.size(); ++i) {
          if (target[i] == -1) {
            infer = static_cast<int>(i);
          } else {
            known *= target[i];
          }
        }
        if (infer >= 0) {
          target[static_cast<std::size_t>(infer)] = in(0).size() / known;
        } else if (batch > 1 && known * batch == in(0).size() &&
                   !target.empty()) {
          // Fully specified target written for batch 1: scale the leading
          // dimension so the reshape stays element-count exact.
          target[0] *= batch;
        }
        r = {in(0).reshaped(std::move(target)), 0};
        break;
      }
      case OpType::ArgMax: r = ops::argmax(in(0)); break;
      case OpType::Scale:
        r = ops::scale(in(0), op.attrs.scalar, kernel_ctx_);
        break;
      default:
        throw std::logic_error("Lite interpreter: unsupported op");
    }
    last_flops_ += r.flops;

    if (env_ != nullptr) {
      const std::uint64_t out_bytes = r.output.byte_size();
      // Grow the ping-pong buffer pair to hold the largest activation.
      if (out_bytes * 2 > activation_bytes_) {
        env_->release(activation_region_);
        activation_bytes_ = out_bytes * 2;
        activation_region_ = env_->alloc("lite/activations", activation_bytes_);
      }
      env_->access(activation_region_, activation_bytes_ - out_bytes,
                   out_bytes, true);
      env_->compute(r.flops);
    }
    if (trace_ops) {
      static const std::uint32_t op_span =
          obs::SpanTracer::global().intern(obs::names::kSpanLiteOp);
      const std::uint64_t op_end_ns = env_->now_ns();
      if (op_end_ns > op_start_ns) {
        obs::SpanTracer::global().record(op_span, op_start_ns, op_end_ns);
      }
    }
    values[static_cast<std::size_t>(op.output)] = std::move(r.output);
    ready[static_cast<std::size_t>(op.output)] = true;
    if (observer_ != nullptr) {
      (*observer_)(op.output, values[static_cast<std::size_t>(op.output)]);
    }
  }
  return values[static_cast<std::size_t>(model_.output_tensor())];
}

Tensor LiteInterpreter::execute_int8(const Tensor& input, std::int64_t batch) {
  // Hybrid-domain execution over int8 codes (docs/QUANTIZATION.md):
  // MatMul / Conv2D / Add / Relu / MaxPool2D / Reshape run natively on int8
  // — int32 accumulation, fused requantization into each output tensor's
  // calibrated scale — while the remaining ops (Softmax, Sigmoid, Tanh,
  // AvgPool, ArgMax, Scale) dequantize to float and the next int8 consumer
  // requantizes. Weights are read zero-copy from the int8 arena: no float
  // dequantization pass and no per-element dequant charge. All per-element
  // maps are exact and the integer GEMM/conv accumulation is exact, so row
  // b of a batched pass equals the single-request pass for input b
  // bit-for-bit with no reduction-order caveat.
  struct QTensor {
    Shape shape;
    std::vector<std::int8_t> data;
    float scale = 1.0f;
  };
  const std::size_t n_tensors = model_.tensors().size();
  std::vector<Tensor> fvalues(n_tensors);
  std::vector<QTensor> qvalues(n_tensors);
  std::vector<std::uint8_t> f_ready(n_tensors, 0);
  std::vector<std::uint8_t> q_ready(n_tensors, 0);
  last_flops_ = 0;
  last_int8_ops_ = 0;
  double macs_total = 0;
  double requants_total = 0;
  double conv_ops = 0;  // int8 ops of domain conversions, per charging span

  const auto desc_of = [&](std::int32_t idx) -> const LiteTensorDesc& {
    return model_.tensors()[static_cast<std::size_t>(idx)];
  };
  const auto quantize_into = [&](const Tensor& t, float scale, QTensor& out) {
    out.shape = t.shape();
    out.scale = scale;
    out.data.resize(static_cast<std::size_t>(t.size()));
    const float* src = t.data();
    for (std::int64_t i = 0; i < t.size(); ++i) {
      out.data[static_cast<std::size_t>(i)] =
          kernels::quantize_one(src[i], scale);
    }
    conv_ops += static_cast<double>(t.size());
    requants_total += static_cast<double>(t.size());
  };
  const auto as_q = [&](std::int32_t idx) -> const QTensor& {
    const auto s = static_cast<std::size_t>(idx);
    if (!q_ready[s]) {
      if (!f_ready[s]) {
        throw std::logic_error("Lite: activation used before production");
      }
      quantize_into(fvalues[s], desc_of(idx).act_scale(), qvalues[s]);
      q_ready[s] = 1;
    }
    return qvalues[s];
  };
  const auto as_f = [&](std::int32_t idx) -> const Tensor& {
    const auto s = static_cast<std::size_t>(idx);
    if (!f_ready[s]) {
      if (!q_ready[s]) {
        throw std::logic_error("Lite: activation used before production");
      }
      const QTensor& q = qvalues[s];
      std::vector<float> data(q.data.size());
      for (std::size_t i = 0; i < q.data.size(); ++i) {
        data[i] = static_cast<float>(q.data[i]) * q.scale;
      }
      fvalues[s] = Tensor(q.shape, std::move(data));
      f_ready[s] = 1;
      conv_ops += static_cast<double>(q.data.size());
      requants_total += static_cast<double>(q.data.size());
    }
    return fvalues[s];
  };
  struct WView {
    const std::int8_t* data;
    float scale;
  };
  const auto weight_view = [&](std::int32_t idx) -> WView {
    const LiteTensorDesc& d = desc_of(idx);
    return {model_.qweights().data() + d.weight_offset, d.quant_scale};
  };

  const std::int32_t in_idx = model_.input_tensor();
  quantize_into(input, desc_of(in_idx).act_scale(),
                qvalues[static_cast<std::size_t>(in_idx)]);
  q_ready[static_cast<std::size_t>(in_idx)] = 1;
  if (env_ != nullptr) env_->compute_int8(conv_ops);
  last_int8_ops_ += conv_ops;

  // Streaming composes unchanged: the spans were built with 1-byte elements
  // for quantized arenas, and 1-byte weights stream 4x more layers per EPC
  // window than their float expansions would.
  if (env_ != nullptr && weight_streaming_ && !op_weight_spans_.empty()) {
    for (const auto& [off, len] : op_weight_spans_.front()) {
      env_->prefetch(weights_region_, off, len);
    }
  }

  for (std::size_t j = 0; j < model_.ops().size(); ++j) {
    const LiteOp& op = model_.ops()[j];
    conv_ops = 0;
    // Per-op causal leaf, mirroring the float path (docs/TRACING.md).
    const bool trace_ops = env_ != nullptr && obs::tracing_enabled();
    const std::uint64_t op_start_ns = trace_ops ? env_->now_ns() : 0;

    if (env_ != nullptr && weight_streaming_) {
      if (j >= 1) {
        for (const auto& [off, len] : op_dead_spans_[j - 1]) {
          env_->advise_evict(weights_region_, off, len);
        }
      }
      if (j + 1 < model_.ops().size()) {
        for (const auto& [off, len] : op_weight_spans_[j + 1]) {
          env_->prefetch(weights_region_, off, len);
        }
      }
    }

    // Cost accounting mirrors the float path; activation traffic is charged
    // at the bytes actually stored — 1 byte per element in the int8 domain.
    if (env_ != nullptr) {
      for (const std::int32_t idx : op.inputs) {
        const LiteTensorDesc& d = desc_of(idx);
        if (d.is_weight()) {
          env_->access(weights_region_,
                       static_cast<std::uint64_t>(d.weight_offset),
                       static_cast<std::uint64_t>(num_elements(d.shape)),
                       false);
        } else {
          const auto s = static_cast<std::size_t>(idx);
          const std::uint64_t bytes =
              q_ready[s] ? qvalues[s].data.size() : fvalues[s].byte_size();
          env_->access(activation_region_, 0,
                       std::min<std::uint64_t>(bytes, activation_bytes_),
                       false);
        }
      }
    }

    bool int8_out = false;
    QTensor qout;
    ops::OpResult r;
    double op_ops = 0;  // int8 ops of the op proper (2*MACs + requants)

    const auto in0 = [&]() { return op.inputs.at(0); };
    switch (op.type) {
      case OpType::MatMul: {
        if (!desc_of(op.inputs.at(1)).is_weight()) {
          r = ops::matmul(as_f(in0()), as_f(op.inputs[1]), kernel_ctx_);
          break;
        }
        const QTensor& qa = as_q(in0());
        const WView w = weight_view(op.inputs[1]);
        const std::int64_t m = qa.shape[0];
        const std::int64_t k = qa.shape[1];
        const std::int64_t n = desc_of(op.inputs[1]).shape[1];
        const float so = desc_of(op.output).act_scale();
        qout.shape = {m, n};
        qout.scale = so;
        qout.data.resize(static_cast<std::size_t>(m * n));
        kernels::gemm_s8(kernel_ctx_, m, k, n, qa.data.data(), w.data,
                         qa.scale * w.scale / so, qout.data.data());
        const double macs = static_cast<double>(m) * k * n;
        op_ops = 2 * macs + static_cast<double>(m) * n;
        macs_total += macs;
        requants_total += static_cast<double>(m) * n;
        int8_out = true;
        break;
      }
      case OpType::Conv2D: {
        if (!desc_of(op.inputs.at(1)).is_weight()) {
          r = ops::conv2d(as_f(in0()), as_f(op.inputs[1]), op.attrs.stride,
                          kernel_ctx_);
          break;
        }
        const QTensor& qa = as_q(in0());
        const WView w = weight_view(op.inputs[1]);
        const Shape& fs = desc_of(op.inputs[1]).shape;  // HWIO
        const kernels::ConvShape cs = kernels::conv_shape(
            qa.shape[0], qa.shape[1], qa.shape[2], qa.shape[3], fs[0], fs[1],
            fs[3], op.attrs.stride);
        const float so = desc_of(op.output).act_scale();
        qout.shape = {cs.n, cs.oh, cs.ow, cs.k};
        qout.scale = so;
        qout.data.resize(static_cast<std::size_t>(cs.out_pixels() * cs.k));
        kernels::conv2d_forward_s8(kernel_ctx_, cs, qa.data.data(), w.data,
                                   qa.scale * w.scale / so, qout.data.data());
        const double macs =
            static_cast<double>(cs.out_pixels()) * cs.patch_size() * cs.k;
        const double out_elems =
            static_cast<double>(cs.out_pixels()) * cs.k;
        op_ops = 2 * macs + out_elems;
        macs_total += macs;
        requants_total += out_elems;
        int8_out = true;
        break;
      }
      case OpType::Add: {
        const QTensor& qa = as_q(in0());
        const float so = desc_of(op.output).act_scale();
        qout.shape = qa.shape;
        qout.scale = so;
        qout.data.resize(qa.data.size());
        const float sa = qa.scale;
        const LiteTensorDesc& bd = desc_of(op.inputs.at(1));
        const std::int8_t* pb;
        float sb;
        std::int64_t bn;
        if (bd.is_weight()) {
          const WView w = weight_view(op.inputs[1]);
          pb = w.data;
          sb = w.scale;
          bn = num_elements(bd.shape);
        } else {
          const QTensor& qb = as_q(op.inputs[1]);
          pb = qb.data.data();
          sb = qb.scale;
          bn = static_cast<std::int64_t>(qb.data.size());
        }
        const std::int8_t* pa = qa.data.data();
        std::int8_t* po = qout.data.data();
        const auto total = static_cast<std::int64_t>(qa.data.size());
        kernels::parallel_for(
            kernel_ctx_, 0, total, 4096,
            [&](std::int64_t i0, std::int64_t i1) {
              for (std::int64_t i = i0; i < i1; ++i) {
                po[i] = kernels::quantize_one(
                    static_cast<float>(pa[i]) * sa +
                        static_cast<float>(pb[i % bn]) * sb,
                    so);
              }
            });
        op_ops = 2.0 * static_cast<double>(total);
        requants_total += static_cast<double>(total);
        int8_out = true;
        break;
      }
      case OpType::Relu: {
        const QTensor& qa = as_q(in0());
        const float so = desc_of(op.output).act_scale();
        qout.shape = qa.shape;
        qout.scale = so;
        qout.data.resize(qa.data.size());
        const float sa = qa.scale;
        const std::int8_t* pa = qa.data.data();
        std::int8_t* po = qout.data.data();
        const auto total = static_cast<std::int64_t>(qa.data.size());
        kernels::parallel_for(
            kernel_ctx_, 0, total, 4096,
            [&](std::int64_t i0, std::int64_t i1) {
              for (std::int64_t i = i0; i < i1; ++i) {
                const std::int8_t v = pa[i] > 0 ? pa[i] : std::int8_t{0};
                po[i] = kernels::quantize_one(static_cast<float>(v) * sa, so);
              }
            });
        op_ops = static_cast<double>(total);
        requants_total += static_cast<double>(total);
        int8_out = true;
        break;
      }
      case OpType::MaxPool2D: {
        // Same geometry as ops::pool2d; max commutes with the positive
        // per-tensor scale, so the window max runs on raw codes.
        const QTensor& qa = as_q(in0());
        const std::int64_t n = qa.shape[0], h = qa.shape[1], w = qa.shape[2],
                           c = qa.shape[3];
        const std::int64_t window = op.attrs.window,
                           stride = op.attrs.stride;
        const std::int64_t oh = (h - window) / stride + 1;
        const std::int64_t ow = (w - window) / stride + 1;
        const float so = desc_of(op.output).act_scale();
        qout.shape = {n, oh, ow, c};
        qout.scale = so;
        qout.data.resize(static_cast<std::size_t>(n * oh * ow * c));
        const float sa = qa.scale;
        const std::int8_t* pi = qa.data.data();
        std::int8_t* po = qout.data.data();
        kernels::parallel_for(
            kernel_ctx_, 0, n * oh, 1,
            [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t row = r0; row < r1; ++row) {
                const std::int64_t b = row / oh;
                const std::int64_t oy = row % oh;
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                  for (std::int64_t ci = 0; ci < c; ++ci) {
                    std::int8_t acc = -127;
                    for (std::int64_t fy = 0; fy < window; ++fy) {
                      for (std::int64_t fx = 0; fx < window; ++fx) {
                        const std::int64_t iy = oy * stride + fy;
                        const std::int64_t ix = ox * stride + fx;
                        const std::int8_t v =
                            pi[((b * h + iy) * w + ix) * c + ci];
                        if (v > acc) acc = v;
                      }
                    }
                    po[((b * oh + oy) * ow + ox) * c + ci] =
                        kernels::quantize_one(static_cast<float>(acc) * sa,
                                              so);
                  }
                }
              }
            });
        op_ops = static_cast<double>(n) * oh * ow * c * window * window;
        requants_total += static_cast<double>(n) * oh * ow * c;
        int8_out = true;
        break;
      }
      case OpType::Reshape: {
        const QTensor& qa = as_q(in0());
        const auto in_size = static_cast<std::int64_t>(qa.data.size());
        Shape target = op.attrs.target_shape;
        std::int64_t known = 1;
        int infer = -1;
        for (std::size_t i = 0; i < target.size(); ++i) {
          if (target[i] == -1) {
            infer = static_cast<int>(i);
          } else {
            known *= target[i];
          }
        }
        if (infer >= 0) {
          target[static_cast<std::size_t>(infer)] = in_size / known;
        } else if (batch > 1 && known * batch == in_size && !target.empty()) {
          target[0] *= batch;
        }
        qout.shape = std::move(target);
        qout.scale = qa.scale;  // a reshape never changes any value
        qout.data = qa.data;
        int8_out = true;
        break;
      }
      case OpType::Softmax: r = ops::softmax(as_f(in0())); break;
      case OpType::Sigmoid: r = ops::sigmoid(as_f(in0()), kernel_ctx_); break;
      case OpType::Tanh: r = ops::tanh_op(as_f(in0()), kernel_ctx_); break;
      case OpType::AvgPool2D:
        r = ops::avg_pool2d(as_f(in0()), op.attrs.window, op.attrs.stride,
                            kernel_ctx_);
        break;
      case OpType::GlobalAvgPool:
        r = ops::global_avg_pool(as_f(in0()));
        break;
      case OpType::ArgMax: r = ops::argmax(as_f(in0())); break;
      case OpType::Scale:
        r = ops::scale(as_f(in0()), op.attrs.scalar, kernel_ctx_);
        break;
      default:
        throw std::logic_error("Lite interpreter: unsupported op");
    }

    const double op_int8 = op_ops + conv_ops;
    if (!int8_out) last_flops_ += r.flops;
    if (env_ != nullptr) {
      const std::uint64_t out_bytes =
          int8_out ? qout.data.size() : r.output.byte_size();
      if (out_bytes * 2 > activation_bytes_) {
        env_->release(activation_region_);
        activation_bytes_ = out_bytes * 2;
        activation_region_ = env_->alloc("lite/activations",
                                         activation_bytes_);
      }
      env_->access(activation_region_, activation_bytes_ - out_bytes,
                   out_bytes, true);
      if (op_int8 > 0) env_->compute_int8(op_int8);
      if (!int8_out) env_->compute(r.flops);
    }
    if (trace_ops) {
      static const std::uint32_t op_span =
          obs::SpanTracer::global().intern(obs::names::kSpanLiteOp);
      const std::uint64_t op_end_ns = env_->now_ns();
      if (op_end_ns > op_start_ns) {
        obs::SpanTracer::global().record(op_span, op_start_ns, op_end_ns);
      }
    }
    last_int8_ops_ += op_int8;

    const auto out_slot = static_cast<std::size_t>(op.output);
    if (int8_out) {
      qvalues[out_slot] = std::move(qout);
      q_ready[out_slot] = 1;
    } else {
      fvalues[out_slot] = std::move(r.output);
      f_ready[out_slot] = 1;
    }
  }

  quant_obs().invokes.add();
  quant_obs().macs.add(static_cast<std::uint64_t>(macs_total));

  // The public contract returns float tensors; dequantize the output if the
  // final op stayed in the int8 domain.
  conv_ops = 0;
  const Tensor& out = as_f(model_.output_tensor());
  if (env_ != nullptr && conv_ops > 0) env_->compute_int8(conv_ops);
  last_int8_ops_ += conv_ops;
  quant_obs().requants.add(static_cast<std::uint64_t>(requants_total));
  return out;
}

}  // namespace stf::ml::lite
