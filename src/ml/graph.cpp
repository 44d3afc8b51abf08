#include "ml/graph.h"

#include <algorithm>
#include <cmath>

namespace stf::ml {

const char* op_name(OpType type) {
  switch (type) {
    case OpType::Const: return "Const";
    case OpType::Placeholder: return "Placeholder";
    case OpType::Variable: return "Variable";
    case OpType::MatMul: return "MatMul";
    case OpType::Add: return "Add";
    case OpType::Relu: return "Relu";
    case OpType::Softmax: return "Softmax";
    case OpType::Sigmoid: return "Sigmoid";
    case OpType::Tanh: return "Tanh";
    case OpType::SoftmaxCrossEntropy: return "SoftmaxCrossEntropy";
    case OpType::Conv2D: return "Conv2D";
    case OpType::MaxPool2D: return "MaxPool2D";
    case OpType::AvgPool2D: return "AvgPool2D";
    case OpType::GlobalAvgPool: return "GlobalAvgPool";
    case OpType::Reshape: return "Reshape";
    case OpType::ArgMax: return "ArgMax";
    case OpType::Scale: return "Scale";
  }
  return "?";
}

NodeId Graph::add_node(OpType type, std::string name,
                       std::vector<NodeId> inputs, NodeAttrs attrs,
                       std::optional<Tensor> value) {
  if (name.empty()) throw std::invalid_argument("node name must not be empty");
  if (by_name_.contains(name)) {
    throw std::invalid_argument("duplicate node name: " + name);
  }
  for (const NodeId in : inputs) {
    if (in < 0 || static_cast<std::size_t>(in) >= nodes_.size()) {
      throw std::invalid_argument("node '" + name + "': unknown input id");
    }
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(name, id);
  nodes_.push_back(Node{.id = id,
                        .type = type,
                        .name = std::move(name),
                        .inputs = std::move(inputs),
                        .attrs = std::move(attrs),
                        .value = std::move(value)});
  return id;
}

const Node& Graph::node(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id));
}

Node& Graph::node(NodeId id) {
  return nodes_.at(static_cast<std::size_t>(id));
}

NodeId Graph::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::invalid_argument("no node named '" + name + "'");
  }
  return it->second;
}

std::vector<NodeId> Graph::variables() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.type == OpType::Variable) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Graph::topological_order(
    const std::vector<NodeId>& outputs) const {
  enum class Mark : std::uint8_t { None, InProgress, Done };
  std::vector<Mark> marks(nodes_.size(), Mark::None);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());

  // Iterative DFS to avoid recursion depth limits on deep graphs.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (const NodeId output : outputs) {
    if (output < 0 || static_cast<std::size_t>(output) >= nodes_.size()) {
      throw std::invalid_argument("topological_order: unknown output id");
    }
    if (marks[static_cast<std::size_t>(output)] == Mark::Done) continue;
    stack.emplace_back(output, 0);
    while (!stack.empty()) {
      auto& [id, next_input] = stack.back();
      const auto idx = static_cast<std::size_t>(id);
      if (marks[idx] == Mark::Done) {
        stack.pop_back();
        continue;
      }
      marks[idx] = Mark::InProgress;
      if (next_input < nodes_[idx].inputs.size()) {
        const NodeId child = nodes_[idx].inputs[next_input++];
        const auto cidx = static_cast<std::size_t>(child);
        if (marks[cidx] == Mark::InProgress) {
          throw std::logic_error("graph contains a cycle at node '" +
                                 nodes_[cidx].name + "'");
        }
        if (marks[cidx] == Mark::None) stack.emplace_back(child, 0);
      } else {
        marks[idx] = Mark::Done;
        order.push_back(id);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::uint64_t Graph::parameter_bytes() const {
  std::uint64_t bytes = 0;
  for (const Node& n : nodes_) {
    if ((n.type == OpType::Const || n.type == OpType::Variable) &&
        n.value.has_value()) {
      bytes += n.value->byte_size();
    }
  }
  return bytes;
}

NodeId GraphBuilder::dense(const std::string& name, NodeId x,
                           std::int64_t in_dim, std::int64_t out_dim,
                           bool with_relu, std::uint64_t seed) {
  // He initialization from a small deterministic LCG (no global RNG state,
  // so graph construction is reproducible everywhere).
  const float scale = std::sqrt(2.0f / static_cast<float>(in_dim));
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((state >> 33) & 0xffffff) /
               static_cast<float>(0xffffff) * 2.0f - 1.0f;
  };
  Tensor w({in_dim, out_dim});
  for (std::int64_t i = 0; i < w.size(); ++i) w.at(i) = next_unit() * scale;
  Tensor b({out_dim});

  const NodeId w_id = variable(name + "/W", std::move(w));
  const NodeId b_id = variable(name + "/b", std::move(b));
  const NodeId mm = matmul(name + "/matmul", x, w_id);
  const NodeId out = add(name + "/bias", mm, b_id);
  return with_relu ? relu(name + "/relu", out) : out;
}

}  // namespace stf::ml
