#include "ml/op_table.h"

#include <stdexcept>
#include <string>

namespace stf::ml {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

std::uint32_t op_arity(OpType type) {
  switch (type) {
    case OpType::MatMul:
    case OpType::Add:
    case OpType::SoftmaxCrossEntropy:
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

// It makes the checks ops:: makes, so no kernel sees an operand it would
// reject, and it is the only place a Reshape target is inferred.
Shape output_shape(OpType type, const NodeAttrs& attrs,
                   const std::vector<const Shape*>& inputs,
                   std::int64_t batch) {
  const std::uint32_t arity = op_arity(type);
  require(arity != 0 && inputs.size() == arity,
          "op: unsupported type or wrong number of inputs");
  const Shape& a = *inputs[0];
  const std::int64_t stride = attrs.stride, window = attrs.window;
  switch (type) {
    case OpType::MatMul: {
      const Shape& b = *inputs[1];
      require(a.size() == 2 && b.size() == 2,
              "matmul: rank-2 tensors required");
      require(b[0] == a[1], "matmul: inner dimensions do not match");
      return {a[0], b[1]};
    }
    case OpType::Add: {
      const Shape& b = *inputs[1];
      require(a == b || (b.size() == 1 && !a.empty() && a.back() == b[0]),
              "add: shapes neither equal nor bias-broadcastable");
      return a;
    }
    case OpType::SoftmaxCrossEntropy:
      require(a.size() == 2 && a == *inputs[1],
              "softmax_cross_entropy: logits/labels must be equal rank-2 "
              "shapes");
      return {1};
    case OpType::Softmax:
      require(a.size() == 2, "softmax: rank-2 tensor required");
      return a;
    case OpType::ArgMax:
      require(a.size() == 2, "argmax: rank-2 tensor required");
      return {a[0]};
    case OpType::GlobalAvgPool:
      require(a.size() == 4, "global_avg_pool: NHWC input required");
      return {a[0], a[3]};
    case OpType::Conv2D: {
      const Shape& f = *inputs[1];
      require(a.size() == 4 && f.size() == 4,
              "conv2d: NHWC input and HWIO filter required");
      require(stride >= 1, "conv2d: stride must be >= 1");
      require(f[2] == a[3], "conv2d: filter channel mismatch");
      const kernels::ConvShape s = kernels::conv_shape(
          a[0], a[1], a[2], a[3], f[0], f[1], f[3], stride);
      return {s.n, s.oh, s.ow, s.k};
    }
    case OpType::MaxPool2D:
    case OpType::AvgPool2D:
      require(a.size() == 4, "pool2d: NHWC input required");
      require(window >= 1 && stride >= 1, "pool2d: bad window/stride");
      require(a[1] >= window && a[2] >= window,
              "pool2d: window larger than input");
      return {a[0], (a[1] - window) / stride + 1,
              (a[2] - window) / stride + 1, a[3]};
    case OpType::Reshape: {
      const std::int64_t size = num_elements(a);
      Shape target = attrs.target_shape;
      std::int64_t known = 1;
      int infer = -1;
      for (std::size_t i = 0; i < target.size(); ++i) {
        if (target[i] == -1 && infer < 0) {
          infer = static_cast<int>(i);
          continue;
        }
        require(target[i] >= 0 && !__builtin_mul_overflow(known, target[i],
                                                          &known),
                "reshape: bad target shape");
      }
      if (infer >= 0) {
        require(known > 0, "reshape: bad target shape");
        target[static_cast<std::size_t>(infer)] = size / known;
      } else if (batch > 1 && !target.empty() && size % batch == 0 &&
                 known == size / batch) {
        // Fully specified target written for batch 1: scale the leading
        // dimension so the reshape stays element-count exact.
        target[0] *= batch;
      }
      require(num_elements(target) == size, "reshape: element count mismatch");
      return target;
    }
    default:  // Relu, Sigmoid, Tanh, Scale: elementwise
      return a;
  }
}

// The formulas ops:: reports, term for term (ml/ops.cpp).
double op_flops(OpType type, const NodeAttrs& attrs,
                const std::vector<const Shape*>& inputs, const Shape& out) {
  const Shape& a = *inputs[0];
  const auto size = static_cast<double>(num_elements(out));
  switch (type) {
    case OpType::MatMul:
      return 2.0 * static_cast<double>(a[0]) * a[1] * out[1];
    case OpType::Softmax:
      return 5.0 * static_cast<double>(a[0]) * a[1];
    case OpType::SoftmaxCrossEntropy:
      return 5.0 * static_cast<double>(a[0]) * a[1] +
             2.0 * static_cast<double>(a[0]) * a[1];
    case OpType::Sigmoid:
    case OpType::Tanh:
      return 4.0 * size;
    case OpType::Conv2D: {
      const Shape& f = *inputs[1];
      const kernels::ConvShape s = kernels::conv_shape(
          a[0], a[1], a[2], a[3], f[0], f[1], f[3], attrs.stride);
      return 2.0 * static_cast<double>(s.n) * s.oh * s.ow * s.fh * s.fw *
             s.c * s.k;
    }
    case OpType::MaxPool2D:
    case OpType::AvgPool2D:
      return size * attrs.window * attrs.window;
    case OpType::GlobalAvgPool:
    case OpType::ArgMax:
      return static_cast<double>(num_elements(a));
    case OpType::Reshape:
      return 0;
    default:  // Add, Relu, Scale: one flop per output element
      return size;
  }
}

ops::OpResult run_float_op(OpType type, const NodeAttrs& attrs,
                           const Shape& out_shape, const FloatOperands& in,
                           const Offload& gpu,
                           const kernels::KernelContext& ctx) {
  const auto sig = [&](const std::string& what) {
    return gpu.kind + std::to_string(gpu.index) + what;
  };
  const Tensor& a = in.get(0);
  switch (type) {
    case OpType::MatMul:
      if (gpu.engine != nullptr) {
        const Tensor& b = in.get(1);
        return gpu.engine->matmul(a, b,
                                  sig(":mm:" + std::to_string(a.dim(1)) +
                                      "x" + std::to_string(b.dim(1))));
      }
      if (in.b_panels != nullptr) {
        // B is [k, n] by the shape rule.
        return ops::matmul(a, {a.dim(1), out_shape[1]}, in.b_panels, ctx);
      }
      return ops::matmul(a, in.get(1), ctx);
    case OpType::Add: return ops::add(a, in.get(1), ctx);
    case OpType::Relu: return ops::relu(a, ctx);
    case OpType::Softmax: return ops::softmax(a);
    case OpType::Sigmoid: return ops::sigmoid(a, ctx);
    case OpType::Tanh: return ops::tanh_op(a, ctx);
    case OpType::SoftmaxCrossEntropy:
      return ops::softmax_cross_entropy(a, in.get(1));
    case OpType::Conv2D: {
      const Tensor& f = in.get(1);
      if (gpu.engine != nullptr) {
        return gpu.engine->conv2d(
            a, f, attrs.stride,
            sig(":conv:" + std::to_string(a.dim(3)) + "to" +
                std::to_string(f.dim(3)) + ":f" + std::to_string(f.dim(0)) +
                "s" + std::to_string(attrs.stride)));
      }
      return ops::conv2d(a, f, attrs.stride, ctx);
    }
    case OpType::MaxPool2D:
      return ops::max_pool2d(a, attrs.window, attrs.stride, ctx);
    case OpType::AvgPool2D:
      return ops::avg_pool2d(a, attrs.window, attrs.stride, ctx);
    case OpType::GlobalAvgPool: return ops::global_avg_pool(a);
    case OpType::Reshape: return {a.reshaped(out_shape), 0};
    case OpType::ArgMax: return ops::argmax(a);
    case OpType::Scale: return ops::scale(a, attrs.scalar, ctx);
    default:
      throw std::logic_error("run_float_op: not a forward op");
  }
}

}  // namespace stf::ml
