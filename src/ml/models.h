// Model zoo for the evaluation workloads.
//
// Training: the MNIST classifier of Figure 8. Inference: synthetic stand-ins
// for the paper's three pre-trained models — Densenet (42 MB), Inception-v3
// (91 MB) and Inception-v4 (163 MB). The stand-ins are dense pyramids whose
// *parameter footprint* matches the named size; since the EPC effects in
// Figures 5-7 are driven by the bytes a forward pass touches (not by the
// exact topology), this preserves the behaviour under study (DESIGN.md §1).
//
// Naming conventions used throughout the repo:
//   placeholder "input"  — flattened image batch
//   placeholder "labels" — one-hot labels (training graphs only)
//   node "logits", "probs", "pred" — classifier outputs
//   node "loss"          — scalar training objective
#pragma once

#include <cstdint>
#include <string>

#include "ml/graph.h"

namespace stf::ml {

/// Two-layer MLP for the MNIST training experiments (Figure 8).
[[nodiscard]] Graph mnist_mlp(std::int64_t hidden = 128,
                              std::uint64_t seed = 1);

/// Small convolutional classifier (28x28x1 input) exercising the Conv2D /
/// pooling inference path.
[[nodiscard]] Graph mnist_convnet(std::uint64_t seed = 1);

/// Inference classifier with ~`target_weight_bytes` of parameters.
/// `input_dim` is the flattened image size (3072 for Cifar-10 bitmaps).
[[nodiscard]] Graph sized_classifier(const std::string& name,
                                     std::uint64_t target_weight_bytes,
                                     std::int64_t input_dim = 3072,
                                     std::int64_t classes = 10,
                                     std::uint64_t seed = 7);

}  // namespace stf::ml
