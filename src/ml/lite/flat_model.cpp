#include "ml/lite/flat_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/op_table.h"
#include "ml/wire.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::ml::lite {
namespace {

constexpr std::uint32_t kLiteMagic = 0x5354464C;  // "STFL"
constexpr std::uint32_t kVersion = 2;
// Version 3 = version 2 plus per-tensor calibrated activation ranges
// (act_min/act_max after quant_scale). Only calibrated models write it;
// uncalibrated models keep producing byte-identical version-2 files, and
// deserialize() accepts both.
constexpr std::uint32_t kVersionCalibrated = 3;

// Marks every float weight some MatMul reads as operand B, which the arena
// holds in panel order. It follows from the ops alone, so a converted model
// and the file it was saved to agree on the layout.
void mark_panel_weights(std::vector<LiteTensorDesc>& tensors,
                        const std::vector<LiteOp>& ops) {
  for (const LiteOp& op : ops) {
    if (op.type != OpType::MatMul || op.inputs.size() != 2) continue;
    LiteTensorDesc& b = tensors[static_cast<std::size_t>(op.inputs[1])];
    if (b.is_weight() && b.shape.size() == 2) b.panels = true;
  }
}

// Walks a float arena of `size` elements front to back in runs: fn(offset,
// count, desc), where desc is the panel-order weight spanning [offset,
// offset + count), or nullptr for a run of row-major elements. Weights
// never share bytes, so the panel spans in offset order tile the arena with
// the runs between them.
template <typename Fn>
void for_each_arena_run(const std::vector<LiteTensorDesc>& tensors,
                        std::int64_t size, Fn&& fn) {
  std::vector<const LiteTensorDesc*> panels;
  for (const LiteTensorDesc& d : tensors) {
    if (d.panels) panels.push_back(&d);
  }
  std::sort(panels.begin(), panels.end(),
            [](const LiteTensorDesc* a, const LiteTensorDesc* b) {
              return a->weight_offset < b->weight_offset;
            });
  std::int64_t at = 0;
  for (const LiteTensorDesc* d : panels) {
    if (d->weight_offset > at) fn(at, d->weight_offset - at, nullptr);
    at = d->weight_offset + num_elements(d->shape);
    fn(d->weight_offset, at - d->weight_offset, d);
  }
  if (size > at) fn(at, size - at, nullptr);
}

// The capacity one insert of `count` elements at the end of a full vector
// of `size` elements grows it to (libstdc++: size + max(size, count)). A
// path that writes those elements piece by piece into that capacity makes
// exactly the allocations the insert would.
std::size_t insert_capacity(std::size_t size, std::size_t count) {
  return size + std::max(size, count);
}

// Room for `count` more bytes at the end of `out`, grown as one insert.
void reserve_as_insert(crypto::Bytes& out, std::size_t count) {
  if (out.capacity() - out.size() < count) {
    out.reserve(insert_capacity(out.size(), count));
  }
}

// Appends `count` unwritten floats to the arena, grown as one insert, and
// returns them. The floats already there move by memcpy: the vector's own
// growth would move them one by one, as it does under any allocator but
// std::allocator.
float* append_unwritten(FloatArena& arena, std::size_t count) {
  const std::size_t size = arena.size();
  if (arena.capacity() - size < count) {
    FloatArena grown;
    grown.reserve(insert_capacity(size, count));
    grown.resize(size);
    if (size > 0) std::memcpy(grown.data(), arena.data(), size * sizeof(float));
    arena.swap(grown);
  }
  arena.resize(size + count);
  return arena.data() + size;
}

}  // namespace

FlatModel FlatModel::from_frozen(const Graph& graph,
                                 const std::string& input_name,
                                 const std::string& output_name) {
  FlatModel model;
  const NodeId output_id = graph.find(output_name);
  const auto order = graph.topological_order({output_id});

  std::map<NodeId, std::int32_t> tensor_of;
  // Each Const's tensor and value, in the order the arena appends them.
  std::vector<std::pair<std::int32_t, const Tensor*>> consts;
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
        LiteTensorDesc desc;
        desc.shape = node.value->shape();
        desc.weight_offset = 0;  // placed once the layout is known
        const auto idx = static_cast<std::int32_t>(model.tensors_.size());
        model.tensors_.push_back(std::move(desc));
        consts.emplace_back(idx, &*node.value);
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

  // Each Const is written once, in the layout it keeps, and the arena goes
  // through the allocations a row-major append of each would make.
  mark_panel_weights(model.tensors_, model.ops_);
  for (const auto& [idx, value] : consts) {
    LiteTensorDesc& desc = model.tensors_[static_cast<std::size_t>(idx)];
    desc.weight_offset = static_cast<std::int64_t>(model.weights_.size());
    const auto count = static_cast<std::size_t>(value->size());
    float* dst = append_unwritten(model.weights_, count);
    if (desc.panels) {
      kernels::to_panels(desc.shape[0], desc.shape[1], value->data(), dst);
    } else if (count > 0) {
      std::memcpy(dst, value->data(), count * sizeof(float));
    }
  }
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
  if (quantized_) {
    w.bytes(crypto::BytesView(
        reinterpret_cast<const std::uint8_t*>(qweights_.data()),
        weight_bytes()));
    return w.take();
  }
  // The row-major bytes, written once: the buffer grows as appending the
  // whole arena at once would grow it, then each run is appended in turn.
  crypto::Bytes out = w.take();
  reserve_as_insert(out, weight_bytes());
  const auto put = [&](const float* first, std::int64_t count) {
    crypto::append(out, crypto::BytesView(
                            reinterpret_cast<const std::uint8_t*>(first),
                            static_cast<std::size_t>(count) * sizeof(float)));
  };
  for_each_arena_run(
      tensors_, static_cast<std::int64_t>(weights_.size()),
      [&](std::int64_t offset, std::int64_t count, const LiteTensorDesc* d) {
        const float* run = weights_.data() + offset;
        if (d == nullptr) return put(run, count);
        kernels::for_each_panel_run(
            d->shape[0], d->shape[1],
            [&](std::int64_t, std::int64_t p, std::int64_t n) {
              put(run + p, n);
            });
      });
  return out;
}

FlatModel FlatModel::deserialize(crypto::BytesView data) {
  // Model files come from outside the enclave. The wire cursor checks every
  // count against the bytes still unread before anything is sized from it,
  // and every weight tensor must lie inside the arena, apart from every
  // other — the interpreter reads weights in place, with no copy to catch a
  // bad range, and a MatMul weight is reordered inside its own span.
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
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;  // [begin, end)
  for (const auto& desc : model.tensors_) {
    if (!desc.is_weight()) continue;
    const std::int64_t n = num_elements(desc.shape);
    if (n > n_weights - desc.weight_offset) {
      r.fail("weight tensor outside the arena");
    }
    if (n > 0) spans.emplace_back(desc.weight_offset, desc.weight_offset + n);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first < spans[i - 1].second) r.fail("weights overlap");
  }
  if (model.quantized_) {
    model.qweights_.resize(static_cast<std::size_t>(n_weights));
    std::memcpy(model.qweights_.data(), arena.data(), arena.size());
  } else {
    // The arena's one copy out of the file, into unwritten floats, puts
    // each MatMul weight in panel order on the way.
    mark_panel_weights(model.tensors_, model.ops_);
    model.weights_.resize(static_cast<std::size_t>(n_weights));
    float* dst = model.weights_.data();
    for_each_arena_run(
        model.tensors_, n_weights,
        [&](std::int64_t offset, std::int64_t count, const LiteTensorDesc* d) {
          const std::uint8_t* src = arena.data() + offset * sizeof(float);
          if (d == nullptr) {
            std::memcpy(dst + offset, src,
                        static_cast<std::size_t>(count) * sizeof(float));
          } else {
            kernels::to_panels(d->shape[0], d->shape[1], src, dst + offset);
          }
        });
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
    // Codes are row-major whatever the float layout (gemm_s8 reads them so).
    const auto emit = [&](std::int64_t, std::int64_t p, std::int64_t count) {
      for (std::int64_t i = p; i < p + count; ++i) {
        q.qweights_.push_back(kernels::quantize_one(w[i], desc.quant_scale));
      }
    };
    if (desc.panels) {
      kernels::for_each_panel_run(desc.shape[0], desc.shape[1], emit);
    } else {
      emit(0, 0, n);
    }
    desc.panels = false;
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
  const auto record = Observer(
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

}  // namespace stf::ml::lite
