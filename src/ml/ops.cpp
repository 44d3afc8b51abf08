#include "ml/ops.h"

#include <algorithm>
#include <limits>
#include <cmath>
#include <stdexcept>

namespace stf::ml::ops {
namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

// Grain for elementwise maps: big enough that chunk-claim cost vanishes,
// small enough that mid-sized activations still spread across the pool.
constexpr std::int64_t kElementwiseGrain = 16384;

// Applies fn to every index of `out` on the context's pool. Each chunk owns
// a disjoint index range, so the result is thread-count independent.
template <typename Fn>
void elementwise(const kernels::KernelContext& ctx, Tensor& out, Fn&& fn) {
  float* p = out.data();
  kernels::parallel_for(ctx, 0, out.size(), kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) p[i] = fn(p[i], i);
                        });
}

kernels::ConvShape checked_conv_shape(const Tensor& input,
                                      const Tensor& filter,
                                      std::int64_t stride) {
  require(input.rank() == 4 && filter.rank() == 4,
          "conv2d: NHWC input and HWIO filter required");
  require(stride >= 1, "conv2d: stride must be >= 1");
  require(filter.dim(2) == input.dim(3), "conv2d: filter channel mismatch");
  return kernels::conv_shape(input.dim(0), input.dim(1), input.dim(2),
                             input.dim(3), filter.dim(0), filter.dim(1),
                             filter.dim(3), stride);
}

double conv_flops(const kernels::ConvShape& s) {
  return 2.0 * static_cast<double>(s.n) * s.oh * s.ow * s.fh * s.fw * s.c *
         s.k;
}

}  // namespace

OpResult matmul(const Tensor& a, const Tensor& b,
                const kernels::KernelContext& ctx) {
  return matmul(a, b.shape(), b.data(), ctx);
}

OpResult matmul(const Tensor& a, const Shape& b_shape, const float* b,
                const kernels::KernelContext& ctx) {
  require(a.rank() == 2 && b_shape.size() == 2,
          "matmul: rank-2 tensors required");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b_shape[1];
  require(b_shape[0] == k, "matmul: inner dimensions do not match");
  Tensor out({m, n});
  kernels::gemm(ctx, m, k, n, a.data(), b, out.data());
  return {std::move(out), 2.0 * static_cast<double>(m) * k * n};
}

OpResult add(const Tensor& a, const Tensor& b,
             const kernels::KernelContext& ctx) {
  if (a.same_shape(b)) {
    Tensor out = a;
    const float* pb = b.data();
    elementwise(ctx, out, [&](float v, std::int64_t i) { return v + pb[i]; });
    return {std::move(out), static_cast<double>(a.size())};
  }
  // Bias broadcast: b has rank 1 matching a's last dimension.
  require(b.rank() == 1 && !a.shape().empty() &&
              a.shape().back() == b.dim(0),
          "add: shapes neither equal nor bias-broadcastable");
  Tensor out = a;
  const float* pb = b.data();
  const std::int64_t n = b.dim(0);
  elementwise(ctx, out,
              [&](float v, std::int64_t i) { return v + pb[i % n]; });
  return {std::move(out), static_cast<double>(a.size())};
}

OpResult relu(const Tensor& x, const kernels::KernelContext& ctx) {
  Tensor out = x;
  elementwise(ctx, out,
              [](float v, std::int64_t) { return std::max(0.0f, v); });
  return {std::move(out), static_cast<double>(x.size())};
}

OpResult sigmoid(const Tensor& x, const kernels::KernelContext& ctx) {
  Tensor out = x;
  elementwise(ctx, out, [](float v, std::int64_t) {
    return 1.0f / (1.0f + std::exp(-v));
  });
  return {std::move(out), 4.0 * static_cast<double>(x.size())};
}

OpResult tanh_op(const Tensor& x, const kernels::KernelContext& ctx) {
  Tensor out = x;
  elementwise(ctx, out, [](float v, std::int64_t) { return std::tanh(v); });
  return {std::move(out), 4.0 * static_cast<double>(x.size())};
}

OpResult softmax(const Tensor& logits) {
  require(logits.rank() == 2, "softmax: rank-2 tensor required");
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  Tensor out({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    float max_v = logits.at2(i, 0);
    for (std::int64_t j = 1; j < n; ++j) max_v = std::max(max_v, logits.at2(i, j));
    float sum = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const float e = std::exp(logits.at2(i, j) - max_v);
      out.at2(i, j) = e;
      sum += e;
    }
    for (std::int64_t j = 0; j < n; ++j) out.at2(i, j) /= sum;
  }
  return {std::move(out), 5.0 * static_cast<double>(m) * n};
}

OpResult softmax_cross_entropy(const Tensor& logits, const Tensor& labels) {
  require(logits.rank() == 2 && logits.same_shape(labels),
          "softmax_cross_entropy: logits/labels must be equal rank-2 shapes");
  const auto probs = softmax(logits);
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  double loss = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float y = labels.at2(i, j);
      if (y > 0) {
        loss -= static_cast<double>(y) *
                std::log(std::max(probs.output.at2(i, j), 1e-12f));
      }
    }
  }
  Tensor out({1}, {static_cast<float>(loss / static_cast<double>(m))});
  return {std::move(out), probs.flops + 2.0 * static_cast<double>(m) * n};
}

OpResult softmax_cross_entropy_grad(const Tensor& logits,
                                    const Tensor& labels) {
  auto probs = softmax(logits);
  const std::int64_t m = logits.dim(0);
  Tensor grad = std::move(probs.output);
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    grad.at(i) = (grad.at(i) - labels.at(i)) * inv_m;
  }
  return {std::move(grad), probs.flops + 2.0 * static_cast<double>(grad.size())};
}

OpResult conv2d(const Tensor& input, const Tensor& filter,
                std::int64_t stride, const kernels::KernelContext& ctx) {
  const kernels::ConvShape s = checked_conv_shape(input, filter, stride);
  Tensor out({s.n, s.oh, s.ow, s.k});
  kernels::conv2d_forward(ctx, s, input.data(), filter.data(), out.data());
  return {std::move(out), conv_flops(s)};
}

OpResult conv2d_grad_input(const Tensor& input, const Tensor& filter,
                           const Tensor& grad_output, std::int64_t stride,
                           const kernels::KernelContext& ctx) {
  const kernels::ConvShape s = checked_conv_shape(input, filter, stride);
  Tensor gin(input.shape());
  kernels::conv2d_grad_input(ctx, s, filter.data(), grad_output.data(),
                             gin.data());
  return {std::move(gin), conv_flops(s)};
}

OpResult conv2d_grad_filter(const Tensor& input, const Tensor& filter,
                            const Tensor& grad_output, std::int64_t stride,
                            const kernels::KernelContext& ctx) {
  const kernels::ConvShape s = checked_conv_shape(input, filter, stride);
  Tensor gf(filter.shape());
  kernels::conv2d_grad_filter(ctx, s, input.data(), grad_output.data(),
                              gf.data());
  return {std::move(gf), conv_flops(s)};
}

namespace {
OpResult pool2d(const Tensor& input, std::int64_t window, std::int64_t stride,
                bool max_pool, const kernels::KernelContext& ctx) {
  require(input.rank() == 4, "pool2d: NHWC input required");
  require(window >= 1 && stride >= 1, "pool2d: bad window/stride");
  const std::int64_t n = input.dim(0), h = input.dim(1), w = input.dim(2),
                     c = input.dim(3);
  const std::int64_t oh = (h - window) / stride + 1;
  const std::int64_t ow = (w - window) / stride + 1;
  require(oh >= 1 && ow >= 1, "pool2d: window larger than input");
  Tensor out({n, oh, ow, c});
  const kernels::PoolShape s{n, h, w, c, oh, ow, window, stride};
  const std::int64_t grain =
      std::max<std::int64_t>(1, kElementwiseGrain / std::max<std::int64_t>(
                                                        1, ow * c));
  if (max_pool) {
    kernels::pool2d(
        ctx, s, grain, input.data(), out.data(),
        -std::numeric_limits<float>::infinity(),
        [](float acc, float v) { return std::max(acc, v); },
        [](float acc) { return acc; });
  } else {
    const auto area = static_cast<float>(window * window);
    kernels::pool2d(
        ctx, s, grain, input.data(), out.data(), 0.0f,
        [](float acc, float v) { return acc + v; },
        [area](float acc) { return acc / area; });
  }
  const double flops =
      static_cast<double>(n) * oh * ow * c * window * window;
  return {std::move(out), flops};
}
}  // namespace

OpResult max_pool2d(const Tensor& input, std::int64_t window,
                    std::int64_t stride, const kernels::KernelContext& ctx) {
  return pool2d(input, window, stride, /*max_pool=*/true, ctx);
}

OpResult avg_pool2d(const Tensor& input, std::int64_t window,
                    std::int64_t stride, const kernels::KernelContext& ctx) {
  return pool2d(input, window, stride, /*max_pool=*/false, ctx);
}

OpResult global_avg_pool(const Tensor& input) {
  require(input.rank() == 4, "global_avg_pool: NHWC input required");
  const std::int64_t n = input.dim(0), h = input.dim(1), w = input.dim(2),
                     c = input.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
          out.at(b * c + ci) += input.at(((b * h + y) * w + x) * c + ci);
        }
      }
    }
  }
  for (std::int64_t i = 0; i < out.size(); ++i) out.at(i) *= inv;
  return {std::move(out), static_cast<double>(input.size())};
}

OpResult argmax(const Tensor& x) {
  require(x.rank() == 2, "argmax: rank-2 tensor required");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  Tensor out({m});
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < n; ++j) {
      if (x.at2(i, j) > x.at2(i, best)) best = j;
    }
    out.at(i) = static_cast<float>(best);
  }
  return {std::move(out), static_cast<double>(x.size())};
}

OpResult scale(const Tensor& x, float factor,
               const kernels::KernelContext& ctx) {
  Tensor out = x;
  elementwise(ctx, out, [&](float v, std::int64_t) { return v * factor; });
  return {std::move(out), static_cast<double>(x.size())};
}

OpResult max_pool2d_grad(const Tensor& input, const Tensor& grad_output,
                         std::int64_t window, std::int64_t stride,
                         const kernels::KernelContext& ctx) {
  const std::int64_t n = input.dim(0), h = input.dim(1), w = input.dim(2),
                     c = input.dim(3);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  Tensor gin(input.shape());
  const float* pi = input.data();
  const float* pg = grad_output.data();
  float* po = gin.data();
  // Windows overlap when stride < window, so the scatter parallelizes over
  // whole images (disjoint gin slices), not output rows.
  kernels::parallel_for(ctx, 0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          for (std::int64_t ci = 0; ci < c; ++ci) {
            // Route to the window argmax (ties: first position, matching the
            // forward pass' max scan order).
            std::int64_t best_y = oy * stride, best_x = ox * stride;
            float best = pi[((b * h + best_y) * w + best_x) * c + ci];
            for (std::int64_t fy = 0; fy < window; ++fy) {
              for (std::int64_t fx = 0; fx < window; ++fx) {
                const std::int64_t iy = oy * stride + fy;
                const std::int64_t ix = ox * stride + fx;
                const float v = pi[((b * h + iy) * w + ix) * c + ci];
                if (v > best) {
                  best = v;
                  best_y = iy;
                  best_x = ix;
                }
              }
            }
            po[((b * h + best_y) * w + best_x) * c + ci] +=
                pg[((b * oh + oy) * ow + ox) * c + ci];
          }
        }
      }
    }
  });
  const double flops = static_cast<double>(n) * oh * ow * c * window * window;
  return {std::move(gin), flops};
}

OpResult avg_pool2d_grad(const Tensor& input, const Tensor& grad_output,
                         std::int64_t window, std::int64_t stride,
                         const kernels::KernelContext& ctx) {
  const std::int64_t n = input.dim(0), h = input.dim(1), w = input.dim(2),
                     c = input.dim(3);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  Tensor gin(input.shape());
  const float* pg = grad_output.data();
  float* po = gin.data();
  const float inv = 1.0f / static_cast<float>(window * window);
  kernels::parallel_for(ctx, 0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          for (std::int64_t ci = 0; ci < c; ++ci) {
            const float share =
                pg[((b * oh + oy) * ow + ox) * c + ci] * inv;
            for (std::int64_t fy = 0; fy < window; ++fy) {
              for (std::int64_t fx = 0; fx < window; ++fx) {
                const std::int64_t iy = oy * stride + fy;
                const std::int64_t ix = ox * stride + fx;
                po[((b * h + iy) * w + ix) * c + ci] += share;
              }
            }
          }
        }
      }
    }
  });
  const double flops = static_cast<double>(n) * oh * ow * c * window * window;
  return {std::move(gin), flops};
}

OpResult global_avg_pool_grad(const Tensor& input, const Tensor& grad_output) {
  const std::int64_t n = input.dim(0), h = input.dim(1), w = input.dim(2),
                     c = input.dim(3);
  Tensor gin(input.shape());
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
          gin.at(((b * h + y) * w + x) * c + ci) =
              grad_output.at(b * c + ci) * inv;
        }
      }
    }
  }
  return {std::move(gin), static_cast<double>(input.size())};
}

}  // namespace stf::ml::ops
