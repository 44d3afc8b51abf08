// Dataflow graph: the TensorFlow-style program representation (§2.1).
//
// A graph is a DAG of named, typed operation nodes. Users build it once
// (usually through GraphBuilder), then execute it with a Session — the same
// split TensorFlow makes between graph construction and `session.run`.
// Graphs serialize to a Protocol-Buffers-like binary format (serialize.h),
// can be *frozen* (variables folded to constants) and checkpointed, which is
// the workflow §4.1 describes for moving models between the Python-style
// definition step and the in-enclave execution step.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/tensor.h"

namespace stf::ml {

enum class OpType : std::uint8_t {
  Const,                ///< embedded tensor value
  Placeholder,          ///< fed at run time
  Variable,             ///< trainable state, lives in the Session
  MatMul,               ///< [m,k] x [k,n] -> [m,n]
  Add,                  ///< elementwise or row-broadcast (bias)
  Relu,
  Softmax,              ///< row-wise softmax on [batch, classes]
  SoftmaxCrossEntropy,  ///< inputs: logits, one-hot labels -> scalar mean loss
  Conv2D,               ///< NHWC, attrs: stride, same-padding; filter HWIO
  MaxPool2D,            ///< attrs: window, stride
  AvgPool2D,
  GlobalAvgPool,        ///< NHWC -> [N, C]
  Sigmoid,
  Tanh,
  Reshape,              ///< attrs carry the target shape
  ArgMax,               ///< row-wise argmax -> [batch] (as float indices)
  Scale,                ///< multiply by attr scalar (e.g. 1/255 normalize)
};

/// The highest OpType; loaders reject type bytes above it.
inline constexpr OpType kLastOpType = OpType::Scale;

[[nodiscard]] const char* op_name(OpType type);

/// Static attributes of a node (strides, target shapes, scalars).
struct NodeAttrs {
  std::int64_t stride = 1;
  std::int64_t window = 2;
  float scalar = 1.0f;
  Shape target_shape;
};

using NodeId = std::int32_t;

struct Node {
  NodeId id = -1;
  OpType type = OpType::Const;
  std::string name;
  std::vector<NodeId> inputs;
  NodeAttrs attrs;
  /// Const: the value. Variable: the initial value. Placeholder: unset.
  std::optional<Tensor> value;
};

class Graph {
 public:
  /// Adds a node; name must be unique and non-empty.
  NodeId add_node(OpType type, std::string name, std::vector<NodeId> inputs,
                  NodeAttrs attrs = {}, std::optional<Tensor> value = {});

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] NodeId find(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const {
    return by_name_.contains(name);
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// All Variable node ids (the trainable parameters).
  [[nodiscard]] std::vector<NodeId> variables() const;
  /// All Placeholder node ids (the feeds).
  [[nodiscard]] std::vector<NodeId> placeholders() const;

  /// Topological order ending at `outputs` (only reachable nodes).
  /// Throws std::logic_error on a cycle.
  [[nodiscard]] std::vector<NodeId> topological_order(
      const std::vector<NodeId>& outputs) const;

  /// Total bytes of Const/Variable payloads — the "model size" that decides
  /// the EPC story (42/91/163 MB in Figure 5).
  [[nodiscard]] std::uint64_t parameter_bytes() const;

 private:
  std::vector<Node> nodes_;
  std::map<std::string, NodeId> by_name_;
};

/// Fluent helper for assembling common layer patterns.
class GraphBuilder {
 public:
  explicit GraphBuilder(Graph& graph) : graph_(graph) {}

  NodeId placeholder(const std::string& name) {
    return graph_.add_node(OpType::Placeholder, name, {});
  }
  NodeId constant(const std::string& name, Tensor value) {
    return graph_.add_node(OpType::Const, name, {}, {}, std::move(value));
  }
  NodeId variable(const std::string& name, Tensor initial) {
    return graph_.add_node(OpType::Variable, name, {}, {}, std::move(initial));
  }
  NodeId matmul(const std::string& name, NodeId a, NodeId b) {
    return graph_.add_node(OpType::MatMul, name, {a, b});
  }
  NodeId add(const std::string& name, NodeId a, NodeId b) {
    return graph_.add_node(OpType::Add, name, {a, b});
  }
  NodeId relu(const std::string& name, NodeId x) {
    return graph_.add_node(OpType::Relu, name, {x});
  }
  NodeId softmax(const std::string& name, NodeId x) {
    return graph_.add_node(OpType::Softmax, name, {x});
  }
  NodeId sigmoid(const std::string& name, NodeId x) {
    return graph_.add_node(OpType::Sigmoid, name, {x});
  }
  NodeId tanh(const std::string& name, NodeId x) {
    return graph_.add_node(OpType::Tanh, name, {x});
  }
  NodeId softmax_cross_entropy(const std::string& name, NodeId logits,
                               NodeId labels) {
    return graph_.add_node(OpType::SoftmaxCrossEntropy, name,
                           {logits, labels});
  }
  NodeId conv2d(const std::string& name, NodeId input, NodeId filter,
                std::int64_t stride = 1) {
    return graph_.add_node(OpType::Conv2D, name, {input, filter},
                           {.stride = stride});
  }
  NodeId max_pool(const std::string& name, NodeId x, std::int64_t window = 2,
                  std::int64_t stride = 2) {
    return graph_.add_node(OpType::MaxPool2D, name, {x},
                           {.stride = stride, .window = window});
  }
  NodeId avg_pool(const std::string& name, NodeId x, std::int64_t window = 2,
                  std::int64_t stride = 2) {
    return graph_.add_node(OpType::AvgPool2D, name, {x},
                           {.stride = stride, .window = window});
  }
  NodeId global_avg_pool(const std::string& name, NodeId x) {
    return graph_.add_node(OpType::GlobalAvgPool, name, {x});
  }
  NodeId reshape(const std::string& name, NodeId x, Shape target) {
    return graph_.add_node(OpType::Reshape, name, {x},
                           {.target_shape = std::move(target)});
  }
  NodeId argmax(const std::string& name, NodeId x) {
    return graph_.add_node(OpType::ArgMax, name, {x});
  }
  NodeId scale(const std::string& name, NodeId x, float factor) {
    return graph_.add_node(OpType::Scale, name, {x}, {.scalar = factor});
  }

  /// Dense layer: relu(optional) (x @ W + b). Initializes W, b with a
  /// deterministic He-style scheme based on `seed`.
  NodeId dense(const std::string& name, NodeId x, std::int64_t in_dim,
               std::int64_t out_dim, bool with_relu, std::uint64_t seed);

 private:
  Graph& graph_;
};

}  // namespace stf::ml
