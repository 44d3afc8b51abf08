#include "ml/serialize.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace stf::ml {
namespace {

constexpr std::uint32_t kGraphMagic = 0x53544647;       // "STFG"
constexpr std::uint32_t kCheckpointMagic = 0x53544643;  // "STFC"
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    crypto::store_be32(b, v);
    crypto::append(out_, crypto::BytesView(b, 4));
  }
  void i64(std::int64_t v) {
    std::uint8_t b[8];
    crypto::store_be64(b, static_cast<std::uint64_t>(v));
    crypto::append(out_, crypto::BytesView(b, 8));
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    crypto::append(out_, crypto::to_bytes(s));
  }
  void shape(const Shape& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const auto d : s) i64(d);
  }
  void tensor(const Tensor& t) {
    shape(t.shape());
    const auto* raw = reinterpret_cast<const std::uint8_t*>(t.data());
    crypto::append(out_, crypto::BytesView(raw, t.byte_size()));
  }
  crypto::Bytes take() { return std::move(out_); }

 private:
  crypto::Bytes out_;
};

class Reader {
 public:
  explicit Reader(crypto::BytesView data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[cursor_++];
  }
  std::uint32_t u32() {
    need(4);
    const auto v = crypto::load_be32(data_.data() + cursor_);
    cursor_ += 4;
    return v;
  }
  std::int64_t i64() {
    need(8);
    const auto v = static_cast<std::int64_t>(
        crypto::load_be64(data_.data() + cursor_));
    cursor_ += 8;
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  /// A u32 count of records of at least `min_bytes` each, checked against
  /// the bytes left before anything is sized from it.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > (data_.size() - cursor_) / min_bytes) {
      throw std::runtime_error("deserialize: truncated input");
    }
    return n;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), len);
    cursor_ += len;
    return s;
  }
  Shape shape() {
    const std::uint32_t rank = u32();
    if (rank > 16) throw std::runtime_error("deserialize: implausible rank");
    Shape s(rank);
    for (auto& d : s) d = i64();
    return s;
  }
  // Non-negative dims whose element count fits in the bytes left, so the
  // value buffer is never sized beyond the input.
  Tensor tensor() {
    Shape s = shape();
    const std::uint64_t max_elements =
        (data_.size() - cursor_) / sizeof(float);
    std::uint64_t n = 1;  // saturates at max_elements + 1
    for (const auto d : s) {
      if (d < 0) throw std::runtime_error("deserialize: negative dimension");
      const auto dim = static_cast<std::uint64_t>(d);
      n = dim != 0 && n > max_elements / dim ? max_elements + 1 : n * dim;
    }
    if (n > max_elements) {
      throw std::runtime_error("deserialize: truncated input");
    }
    const std::size_t bytes = n * sizeof(float);
    std::vector<float> values(n);
    std::memcpy(values.data(), data_.data() + cursor_, bytes);
    cursor_ += bytes;
    return Tensor(std::move(s), std::move(values));
  }
  [[nodiscard]] bool done() const { return cursor_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (n > data_.size() - cursor_) {
      throw std::runtime_error("deserialize: truncated input");
    }
  }
  crypto::BytesView data_;
  std::size_t cursor_ = 0;
};

}  // namespace

crypto::Bytes serialize_graph(const Graph& graph) {
  Writer w;
  w.u32(kGraphMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(graph.node_count()));
  for (const Node& n : graph.nodes()) {
    w.u8(static_cast<std::uint8_t>(n.type));
    w.str(n.name);
    w.u32(static_cast<std::uint32_t>(n.inputs.size()));
    for (const NodeId in : n.inputs) w.u32(static_cast<std::uint32_t>(in));
    w.i64(n.attrs.stride);
    w.i64(n.attrs.window);
    w.f32(n.attrs.scalar);
    w.shape(n.attrs.target_shape);
    w.u8(n.value.has_value() ? 1 : 0);
    if (n.value.has_value()) w.tensor(*n.value);
  }
  return w.take();
}

Graph deserialize_graph(crypto::BytesView data) {
  Reader r(data);
  if (r.u32() != kGraphMagic) {
    throw std::runtime_error("deserialize_graph: bad magic");
  }
  if (r.u32() != kVersion) {
    throw std::runtime_error("deserialize_graph: unsupported version");
  }
  const std::uint32_t count = r.u32();
  Graph graph;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(kLastOpType)) {
      throw std::runtime_error("deserialize_graph: unknown op type");
    }
    std::string name = r.str();
    std::vector<NodeId> inputs(r.count(4));
    for (auto& in : inputs) in = static_cast<NodeId>(r.u32());
    NodeAttrs attrs;
    attrs.stride = r.i64();
    attrs.window = r.i64();
    attrs.scalar = r.f32();
    attrs.target_shape = r.shape();
    std::optional<Tensor> value;
    if (r.u8() != 0) value = r.tensor();
    try {
      graph.add_node(static_cast<OpType>(type), std::move(name),
                     std::move(inputs), std::move(attrs), std::move(value));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("deserialize_graph: ") + e.what());
    }
  }
  if (!r.done()) throw std::runtime_error("deserialize_graph: trailing bytes");
  return graph;
}

crypto::Bytes serialize_tensor_map(
    const std::map<std::string, Tensor>& tensors) {
  Writer w;
  w.u32(kCheckpointMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(tensors.size()));
  for (const auto& [name, value] : tensors) {
    w.str(name);
    w.tensor(value);
  }
  return w.take();
}

std::map<std::string, Tensor> deserialize_tensor_map(crypto::BytesView data) {
  Reader r(data);
  if (r.u32() != kCheckpointMagic) {
    throw std::runtime_error("deserialize_tensor_map: bad magic");
  }
  if (r.u32() != kVersion) {
    throw std::runtime_error("deserialize_tensor_map: unsupported version");
  }
  const std::uint32_t count = r.u32();
  std::map<std::string, Tensor> values;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    values.emplace(std::move(name), r.tensor());
  }
  if (!r.done()) {
    throw std::runtime_error("deserialize_tensor_map: trailing bytes");
  }
  return values;
}

crypto::Bytes serialize_checkpoint(const Session& session) {
  return serialize_tensor_map(session.variable_snapshot());
}

void restore_checkpoint(Session& session, crypto::BytesView data) {
  session.restore_variables(deserialize_tensor_map(data));
}

Graph freeze(const Graph& graph, const Session& session) {
  Graph frozen;
  for (const Node& n : graph.nodes()) {
    if (n.type == OpType::Variable) {
      frozen.add_node(OpType::Const, n.name, {}, n.attrs,
                      session.variable(n.name));
    } else {
      frozen.add_node(n.type, n.name, n.inputs, n.attrs, n.value);
    }
  }
  return frozen;
}

}  // namespace stf::ml
