#include "ml/serialize.h"

#include <stdexcept>
#include <string>

#include "ml/wire.h"

namespace stf::ml {
namespace {

constexpr std::uint32_t kGraphMagic = 0x53544647;       // "STFG"
constexpr std::uint32_t kCheckpointMagic = 0x53544643;  // "STFC"
constexpr std::uint32_t kVersion = 1;

}  // namespace

crypto::Bytes serialize_graph(const Graph& graph) {
  wire::Writer w;
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
  wire::Reader r(data, "deserialize");
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
  wire::Writer w;
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
  wire::Reader r(data, "deserialize");
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
