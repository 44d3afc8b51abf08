// The forward op table: one shape rule and one float-op switch for every
// forward executor.
//
// The Session (full TensorFlow) and the Lite interpreter run the same op
// vocabulary (§3.3.4). `output_shape` is the one rule for what an op accepts
// and produces; `run_float_op` is the one switch from an op to its float
// kernel, GPU offload of the linear layers included (docs/GPU_OFFLOAD.md).
// The executors differ only in how they hold operands and what they charge.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ml/graph.h"
#include "ml/ops.h"
#include "ml/slalom.h"

namespace stf::ml {

/// Inputs an op of this type reads; 0 for the source types (Const,
/// Variable, Placeholder) and for bytes past the enum.
[[nodiscard]] std::uint32_t op_arity(OpType type);

/// The shape an op produces from the shapes of its inputs, or
/// std::invalid_argument for anything it cannot run: the wrong number of
/// inputs, operand shapes its kernel rejects, or a Reshape target that is
/// malformed (a second -1, a negative dim, a 0 next to a -1) or does not
/// hold the input's elements. A Reshape's -1 is inferred; `batch` > 1
/// scales a fully specified target written for batch 1.
[[nodiscard]] Shape output_shape(OpType type, const NodeAttrs& attrs,
                                 const std::vector<const Shape*>& inputs,
                                 std::int64_t batch = 1);

/// An op's float operands as its executor holds them.
struct FloatOperands {
  /// Operand i as a tensor, materialised on first use if need be.
  std::function<const Tensor&(std::size_t)> get;
  /// Operand 1's elements where they lie (a float weight arena), or
  /// nullptr. A MatMul kept in the enclave reads B from here, with no
  /// Tensor copy.
  const float* b_in_place = nullptr;
};

/// Where the linear layers run: on `engine` (nullptr keeps them in the
/// enclave) under plan signatures that start `<kind><index>`, e.g.
/// "sess:<node id>" or "lite:op<j>". The signature seeds the verification
/// randomness, so it must name the op stably.
struct Offload {
  GpuOffloadEngine* engine = nullptr;
  const char* kind = "";
  std::int64_t index = 0;
};

/// Runs one forward op's float math. `out_shape` is output_shape()'s answer
/// for the operands. Offloaded MatMul/Conv2D bill GPU flops and PCIe bytes
/// inside the engine, and the returned flops are the in-enclave
/// verification, which the caller charges like any op's compute.
[[nodiscard]] ops::OpResult run_float_op(OpType type, const NodeAttrs& attrs,
                                         const Shape& out_shape,
                                         const FloatOperands& in,
                                         const Offload& gpu,
                                         const kernels::KernelContext& ctx);

}  // namespace stf::ml
