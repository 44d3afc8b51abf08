// Operation kernels: the real math behind each graph node.
//
// Each kernel returns the output tensor and reports its FLOP count so the
// executor can charge compute time into the TEE cost model. The FLOP count
// is a pure function of the op shape — the blocked/parallel implementations
// in ml/kernels.h change wall time only, never the virtual-time charge or
// (thanks to deterministic partitioning) the produced bits.
#pragma once

#include <cstdint>

#include "ml/kernels.h"
#include "ml/tensor.h"

namespace stf::ml::ops {

struct OpResult {
  Tensor output;
  double flops = 0;
};

/// [m,k] x [k,n] -> [m,n]
OpResult matmul(const Tensor& a, const Tensor& b,
                const kernels::KernelContext& ctx =
                    kernels::KernelContext::shared());

/// The same product with B read in place: `b` points at the row-major
/// elements of a tensor shaped `b_shape` (a Lite weight arena, say), so no
/// Tensor copy of B is made. Same checks, same flop charge, same bits.
OpResult matmul(const Tensor& a, const Shape& b_shape, const float* b,
                const kernels::KernelContext& ctx);

/// Elementwise add; also broadcasts a rank-1 bias over the last dimension.
OpResult add(const Tensor& a, const Tensor& b,
             const kernels::KernelContext& ctx =
                 kernels::KernelContext::shared());

OpResult relu(const Tensor& x, const kernels::KernelContext& ctx =
                                   kernels::KernelContext::shared());

/// Row-wise softmax over the last dimension of a rank-2 tensor.
OpResult softmax(const Tensor& logits);

OpResult sigmoid(const Tensor& x, const kernels::KernelContext& ctx =
                                      kernels::KernelContext::shared());
OpResult tanh_op(const Tensor& x, const kernels::KernelContext& ctx =
                                      kernels::KernelContext::shared());

/// Mean softmax cross-entropy: logits [m,n], one-hot labels [m,n] -> scalar.
OpResult softmax_cross_entropy(const Tensor& logits, const Tensor& labels);

/// Gradient of mean softmax cross-entropy w.r.t. logits: (softmax-labels)/m.
OpResult softmax_cross_entropy_grad(const Tensor& logits,
                                    const Tensor& labels);

/// NHWC input [n,h,w,c], HWIO filter [fh,fw,c,k], SAME padding.
OpResult conv2d(const Tensor& input, const Tensor& filter,
                std::int64_t stride,
                const kernels::KernelContext& ctx =
                    kernels::KernelContext::shared());

/// Gradients of conv2d w.r.t. its input and filter (same padding/stride
/// conventions as the forward pass).
OpResult conv2d_grad_input(const Tensor& input, const Tensor& filter,
                           const Tensor& grad_output, std::int64_t stride,
                           const kernels::KernelContext& ctx =
                               kernels::KernelContext::shared());
OpResult conv2d_grad_filter(const Tensor& input, const Tensor& filter,
                            const Tensor& grad_output, std::int64_t stride,
                            const kernels::KernelContext& ctx =
                                kernels::KernelContext::shared());

/// Pooling gradients. Max pooling routes each output gradient to the argmax
/// position of its window (recomputed from the recorded input).
OpResult max_pool2d_grad(const Tensor& input, const Tensor& grad_output,
                         std::int64_t window, std::int64_t stride,
                         const kernels::KernelContext& ctx =
                             kernels::KernelContext::shared());
OpResult avg_pool2d_grad(const Tensor& input, const Tensor& grad_output,
                         std::int64_t window, std::int64_t stride,
                         const kernels::KernelContext& ctx =
                             kernels::KernelContext::shared());
OpResult global_avg_pool_grad(const Tensor& input, const Tensor& grad_output);

OpResult max_pool2d(const Tensor& input, std::int64_t window,
                    std::int64_t stride,
                    const kernels::KernelContext& ctx =
                        kernels::KernelContext::shared());
OpResult avg_pool2d(const Tensor& input, std::int64_t window,
                    std::int64_t stride,
                    const kernels::KernelContext& ctx =
                        kernels::KernelContext::shared());

/// NHWC [n,h,w,c] -> [n,c]
OpResult global_avg_pool(const Tensor& input);

/// Row-wise argmax of a rank-2 tensor -> [rows] (indices stored as floats).
OpResult argmax(const Tensor& x);

OpResult scale(const Tensor& x, float factor,
               const kernels::KernelContext& ctx =
                   kernels::KernelContext::shared());

}  // namespace stf::ml::ops
