// Compute substrate for the stf::ml ops: cache-blocked GEMM and im2col
// convolution on a shared thread pool.
//
// Everything here affects *wall time only*. Virtual-time cost accounting
// (the numbers Figures 5-8 are made of) is charged from op shapes by the
// callers and never observes how the math was scheduled. Two invariants
// make that safe:
//
//  1. Determinism: parallel work is partitioned into fixed chunks that
//     depend only on the problem shape (see runtime::ThreadPool), and every
//     chunk owns a disjoint slice of the output, so results are
//     bit-identical at any thread count.
//  2. Accumulation order: within one output element the k-dimension is
//     always reduced in ascending order, panel by panel, so small problems
//     (k <= KC) reproduce the naive triple-loop bit-for-bit.
#pragma once

#include <cstdint>

#include "runtime/thread_pool.h"

namespace stf::ml::kernels {

/// How a kernel call may use the machine. A default-constructed context is
/// serial; shared() is the process-wide pool sized to hardware concurrency.
struct KernelContext {
  runtime::ThreadPool* pool = nullptr;  ///< nullptr → run on the caller only
  unsigned threads = 1;                 ///< advertised parallelism of `pool`

  static const KernelContext& shared();
};

/// Runs fn(chunk_begin, chunk_end) over [begin, end) in grain-sized chunks,
/// on the context's pool when it has one. The chunk decomposition is the
/// same with or without a pool.
void parallel_for(const KernelContext& ctx, std::int64_t begin,
                  std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

// --- GEMM ----------------------------------------------------------------
// All matrices are row-major and dense. `c` is overwritten with the
// product (the first k-panel stores, later panels accumulate — prior
// contents of `c` never contribute, and single-panel problems touch each
// output element exactly once). m/k/n are always the logical GEMM dims:
// c is [m,n], the reduction runs over k.
//
// Two schedules, picked from the shape alone (no option selects them):
//  - Small-batch, m <= 8 — every serving batch and unbatched classify.
//    The parallel chunks are fixed 256-column strips of C, so a few-row
//    product still runs on every pool thread. Within each 256-deep k-panel
//    a strip's accumulators sit in a chunk-local buffer and are carried
//    across 32-row sub-blocks of B, so B streams through the strip row by
//    row.
//  - Row-block, m > 8. The parallel chunks are 72-row blocks of C; each
//    runs every k-panel over 8x32 register tiles.
// Both reduce every output element the same way: acc = 0; acc += a*b with
// k ascending within the 256-deep panel; then c = acc after the first panel
// and c += acc after each later one (carrying acc through memory between
// sub-blocks is an exact float store and reload). So row i of an m-row
// product has the bits of the 1-row product of row i, whichever schedule,
// batch size or thread count computed it — what batched serving's "equal
// to N single invokes" rests on.
//
// A row-major B (gemm, gemm_tn) is read in place, with no copy and no
// packing pass; the small-batch schedule reads each of its bytes exactly
// once. Only a transposed B (gemm_nt) and the ragged last 32-column tile
// of any B are packed, into a thread-local buffer.

/// c[m,n] = a[m,k] · b[k,n]
void gemm(const KernelContext& ctx, std::int64_t m, std::int64_t k,
          std::int64_t n, const float* a, const float* b, float* c);

/// c[m,n] = a[m,k] · bᵀ, with b stored [n,k]
void gemm_nt(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const float* a, const float* b, float* c);

/// c[m,n] = aᵀ · b[k,n], with a stored [k,m]
void gemm_tn(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const float* a, const float* b, float* c);

// --- Convolution ---------------------------------------------------------
// NHWC input, HWIO filter, SAME padding; identical geometry to the
// historical naive kernels (output (h+s-1)/s, floor-div padding).

struct ConvShape {
  std::int64_t n, h, w, c, fh, fw, k, oh, ow, pad_h, pad_w, stride;

  [[nodiscard]] std::int64_t patch_size() const { return fh * fw * c; }
  [[nodiscard]] std::int64_t out_pixels() const { return n * oh * ow; }
};

ConvShape conv_shape(std::int64_t n, std::int64_t h, std::int64_t w,
                     std::int64_t c, std::int64_t fh, std::int64_t fw,
                     std::int64_t k, std::int64_t stride);

/// Window pooling geometry: NHWC [n,h,w,c] -> [n,oh,ow,c], no padding.
struct PoolShape {
  std::int64_t n, h, w, c, oh, ow, window, stride;
};

/// Each output element is finish(acc), acc folded with `fold` over its
/// window from `init`. One output row (b, oy) per index, rows disjoint. The
/// float pools and the int8 MaxPool share this loop.
template <typename T, typename U, typename Fold, typename Finish>
void pool2d(const KernelContext& ctx, const PoolShape& s, std::int64_t grain,
            const T* in, U* out, T init, Fold fold, Finish finish) {
  parallel_for(ctx, 0, s.n * s.oh, grain, [&](std::int64_t r0,
                                               std::int64_t r1) {
    for (std::int64_t row = r0; row < r1; ++row) {
      const std::int64_t b = row / s.oh;
      const std::int64_t oy = row % s.oh;
      for (std::int64_t ox = 0; ox < s.ow; ++ox) {
        for (std::int64_t ci = 0; ci < s.c; ++ci) {
          T acc = init;
          for (std::int64_t fy = 0; fy < s.window; ++fy) {
            for (std::int64_t fx = 0; fx < s.window; ++fx) {
              const std::int64_t iy = oy * s.stride + fy;
              const std::int64_t ix = ox * s.stride + fx;
              acc = fold(acc, in[((b * s.h + iy) * s.w + ix) * s.c + ci]);
            }
          }
          out[((b * s.oh + oy) * s.ow + ox) * s.c + ci] = finish(acc);
        }
      }
    }
  });
}

/// out[n*oh*ow, k] = im2col(input) · filter. The im2col scratch is
/// thread-local and reused across calls.
void conv2d_forward(const KernelContext& ctx, const ConvShape& s,
                    const float* input, const float* filter, float* out);

/// grad_input[n,h,w,c] += col2im(grad_output · filterᵀ); `grad_input`
/// must be zero-initialized (col2im is a scatter-add).
void conv2d_grad_input(const KernelContext& ctx, const ConvShape& s,
                       const float* filter, const float* grad_output,
                       float* grad_input);

/// grad_filter[fh*fw*c, k] = im2col(input)ᵀ · grad_output
void conv2d_grad_filter(const KernelContext& ctx, const ConvShape& s,
                        const float* input, const float* grad_output,
                        float* grad_filter);

// --- int8 execution path (docs/QUANTIZATION.md) --------------------------
// Symmetric per-tensor quantization: values are int8 codes q with one float
// scale per tensor (v ≈ q * scale), no zero point. The kernels below
// accumulate int8×int8 products in int32 — exact integer arithmetic — and
// fuse the requantization back to int8 codes into the store epilogue.
// Because integer accumulation is exact, batched == N singles holds
// bit-for-bit with no reduction-order caveat; the kernels still partition
// work into the same shape-only disjoint-output chunks as the float path
// and reduce k in ascending order.

/// Saturating round-half-away-from-zero requantization of one int32
/// accumulator: clamp(round(acc * multiplier), -127, 127), with
/// multiplier = (scale_a * scale_b) / scale_out.
std::int8_t requantize(std::int32_t acc, float multiplier);

/// Quantizes one float value to an int8 code: clamp(round(v / scale)).
std::int8_t quantize_one(float value, float scale);

/// c[m,n] = requantize(a[m,k] · b[k,n]). a/b/c are int8 codes; products
/// accumulate in int32, k ascending, and the fused epilogue requantizes
/// each finished output row.
void gemm_s8(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const std::int8_t* a, const std::int8_t* b,
             float multiplier, std::int8_t* c);

/// out[n*oh*ow, k] = requantize(im2col(input) · filter): int8 analogue of
/// conv2d_forward with identical im2col geometry (SAME padding fills the
/// code 0, which is exactly 0.0 under symmetric quantization).
void conv2d_forward_s8(const KernelContext& ctx, const ConvShape& s,
                       const std::int8_t* input, const std::int8_t* filter,
                       float multiplier, std::int8_t* out);

// --- Naive references ----------------------------------------------------
// The pre-blocking scalar kernels, kept as the oracle for the equivalence
// property tests and the before/after microbenchmarks. Not used on any hot
// path.
namespace reference {

void matmul(std::int64_t m, std::int64_t k, std::int64_t n, const float* a,
            const float* b, float* c);
void conv2d(const ConvShape& s, const float* input, const float* filter,
            float* out);
void conv2d_grad_input(const ConvShape& s, const float* filter,
                       const float* grad_output, float* grad_input);
void conv2d_grad_filter(const ConvShape& s, const float* input,
                        const float* grad_output, float* grad_filter);

}  // namespace reference

}  // namespace stf::ml::kernels
