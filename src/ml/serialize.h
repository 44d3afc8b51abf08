// Graph and checkpoint serialization (§4.1's export/import workflow).
//
// Graph definitions and checkpoints use interchangeable binary formats (the
// stand-in for TensorFlow's Protocol Buffers exchange format): a model is
// defined with the builder API, exported, optionally *frozen* (variables
// folded into constants using a session's current values) and later imported
// for in-enclave execution — including from shielded files.
#pragma once

#include "crypto/bytes.h"
#include "ml/graph.h"
#include "ml/session.h"

namespace stf::ml {

/// Serializes a graph definition (including Const/initial Variable tensors).
[[nodiscard]] crypto::Bytes serialize_graph(const Graph& graph);

/// Parses a serialized graph. Throws std::runtime_error on malformed input.
[[nodiscard]] Graph deserialize_graph(crypto::BytesView data);

/// Serializes the session's variable values (a training checkpoint).
[[nodiscard]] crypto::Bytes serialize_checkpoint(const Session& session);

/// Named-tensor bundle (parameters and gradients on the wire).
[[nodiscard]] crypto::Bytes serialize_tensor_map(
    const std::map<std::string, Tensor>& tensors);
[[nodiscard]] std::map<std::string, Tensor> deserialize_tensor_map(
    crypto::BytesView data);

/// Restores variable values from a checkpoint into the session: every
/// variable it names, or none. Malformed bytes, an unknown name and a shape
/// mismatch each throw std::runtime_error.
void restore_checkpoint(Session& session, crypto::BytesView data);

/// Freezing: returns a copy of `graph` where every Variable is replaced by a
/// Const carrying the session's current value — the deployable inference
/// artifact that the Lite converter consumes.
[[nodiscard]] Graph freeze(const Graph& graph, const Session& session);

}  // namespace stf::ml
