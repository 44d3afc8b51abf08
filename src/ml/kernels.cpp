#include "ml/kernels.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::ml::kernels {
namespace {

// Blocking parameters. KC bounds the k-panel so one packed A block stays
// cache-resident; it also fixes the accumulation association: elements with
// k <= KC reduce in plain ascending order, matching the naive reference
// bit-for-bit. MR x NR is the register tile of the micro-kernel.
constexpr std::int64_t MR = 8;
constexpr std::int64_t VL = 16;      // floats per accumulator vector
constexpr std::int64_t NR = 2 * VL;  // micro-tile width: two vectors
constexpr std::int64_t KC = 256;
constexpr std::int64_t MC = 72;  // multiple of MR
// Small-batch schedule (m <= MR): NS columns of C per parallel strip, and
// the KB rows of B one micro-kernel pass covers before its accumulators go
// back to the strip buffer.
constexpr std::int64_t NS = 8 * NR;
constexpr std::int64_t KB = 32;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// One accumulator vector of the micro-tile. A GCC/Clang vector extension
// rather than intrinsics: it compiles for any -march (lowered to however
// many hardware lanes exist) yet pins the vector structure the
// auto-vectorizer kept missing — per-row accumulator vectors, unaligned
// loads of B, a scalar broadcast per row per k step. Element-wise
// semantics are plain IEEE mul/add, so per-element results match the
// scalar reference compiled in this same translation unit.
typedef float bvec __attribute__((vector_size(sizeof(float) * VL),
                                  aligned(alignof(float)), may_alias));

// Where the micro-kernel leaves its accumulators: kStore overwrites the
// output tile, kAdd adds to it, and kCarry continues the chains already in
// it (loads them first, then stores) — a float store and reload is exact,
// so a chain split across kCarry calls rounds exactly like an unbroken one.
enum class Epilogue { kStore, kAdd, kCarry };

// acc[R,NR] += A-tile[R,kc] x B-tile[kc,NR], kk ascending. Each of the 2*R
// accumulator vectors stays in a register across the whole k loop and is a
// single FMA chain, preserving the naive reference's per-element summation
// order; pairing two vectors per row amortizes the A broadcast over NR
// columns, which is what makes small-k (im2col conv) shapes pay off.
// A-tile element (r, kk) sits at ap[r*a_rs + kk*a_ks]: (1, MR) walks a
// packed panel, (row_stride, 1) reads an already column-contiguous operand
// in place with no packing pass. B-tile row kk starts at bp + kk*b_ks: NR
// walks a packed slot, the row stride of a row-major B reads it in place.
// `out_stride` lets a full interior tile accumulate straight into C
// (stride n) while edge tiles go through an NR-contiguous scratch buffer.
// R is a template parameter so every row count keeps its accumulators in
// registers; the row-block schedule always runs R = MR.
template <int R>
void micro_kernel(const float* __restrict__ ap, std::int64_t a_rs,
                  std::int64_t a_ks, const float* __restrict__ bp,
                  std::int64_t b_ks, std::int64_t kc,
                  float* __restrict__ out, std::int64_t out_stride,
                  Epilogue epilogue) {
  bvec acc0[R] = {};
  bvec acc1[R] = {};
  if (epilogue == Epilogue::kCarry) {
    for (int r = 0; r < R; ++r) {
      const float* row = out + r * out_stride;
      acc0[r] = *reinterpret_cast<const bvec*>(row);
      acc1[r] = *reinterpret_cast<const bvec*>(row + VL);
    }
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const bvec b0 = *reinterpret_cast<const bvec*>(bp + kk * b_ks);
    const bvec b1 = *reinterpret_cast<const bvec*>(bp + kk * b_ks + VL);
    const float* __restrict__ acol = ap + kk * a_ks;
    for (int r = 0; r < R; ++r) {
      const float av = acol[r * a_rs];
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  if (epilogue == Epilogue::kAdd) {
    for (int r = 0; r < R; ++r) {
      float* row = out + r * out_stride;
      *reinterpret_cast<bvec*>(row) += acc0[r];
      *reinterpret_cast<bvec*>(row + VL) += acc1[r];
    }
  } else {
    // kStore and kCarry end in a plain store. For kStore that skips the read
    // half of the read-modify-write, most of the C traffic when k <= KC.
    for (int r = 0; r < R; ++r) {
      float* row = out + r * out_stride;
      *reinterpret_cast<bvec*>(row) = acc0[r];
      *reinterpret_cast<bvec*>(row + VL) = acc1[r];
    }
  }
}

// micro_kernel<rows> for every row count of the small-batch schedule,
// indexed by rows - 1.
using MicroKernel = void (*)(const float*, std::int64_t, std::int64_t,
                             const float*, std::int64_t, std::int64_t,
                             float*, std::int64_t, Epilogue);
static_assert(MR == 8, "kRowKernels lists one micro-kernel per row count");
constexpr MicroKernel kRowKernels[MR] = {
    micro_kernel<1>, micro_kernel<2>, micro_kernel<3>, micro_kernel<4>,
    micro_kernel<5>, micro_kernel<6>, micro_kernel<7>, micro_kernel<8>};

// Generic strided GEMM core: c[m,n] = a'[m,k] x b'[k,n], where
// a'(i,kk) = a[i*a_rs + kk*a_cs] and b'(kk,j) = b[kk*b_rs + j*b_cs].
// Transposed operands are just different strides. The schedule follows
// from the shape alone (kernels.h): m <= MR runs the small-batch strips,
// larger m the MC-row blocks. Both reduce every output element the same
// way — acc = 0, acc += a*b with kk ascending within each KC panel, then
// c = acc on the first panel and c += acc after it — so a row of C has the
// same bits whichever schedule, batch size or thread count produced it.
void gemm_strided(const KernelContext& ctx, std::int64_t m, std::int64_t k,
                  std::int64_t n, const float* a, std::int64_t a_rs,
                  std::int64_t a_cs, const float* b, std::int64_t b_rs,
                  std::int64_t b_cs, float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  obs::counter<obs::names::kKernelGemmCalls>().add();
  const std::int64_t num_pc = ceil_div(k, KC);
  const std::int64_t num_jt = ceil_div(n, NR);

  // A row-major B (b_cs == 1) is read in place: each full NR-column tile is
  // already kc rows of NR contiguous floats at stride b_rs. Only tiles that
  // are not — the ragged last tile, and every tile of a transposed B — are
  // packed up front, into KC*NR slots whose padded columns are zero and
  // never stored back.
  const std::int64_t jt_direct = (b_cs == 1) ? n / NR : 0;
  thread_local std::vector<float> b_packed;
  b_packed.resize(static_cast<std::size_t>((num_jt - jt_direct) * num_pc) *
                  KC * NR);
  float* bp_base = b_packed.data();
  const auto packed_slot = [&](std::int64_t jt, std::int64_t pi) {
    return bp_base + ((jt - jt_direct) * num_pc + pi) * KC * NR;
  };
  parallel_for(ctx, jt_direct, num_jt, 4,
               [&](std::int64_t jt0, std::int64_t jt1) {
    for (std::int64_t jt = jt0; jt < jt1; ++jt) {
      const std::int64_t jc = jt * NR;
      const std::int64_t nr = std::min(NR, n - jc);
      for (std::int64_t pi = 0; pi < num_pc; ++pi) {
        const std::int64_t pc = pi * KC;
        const std::int64_t kc = std::min(KC, k - pc);
        float* dst = packed_slot(jt, pi);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          const float* src = b + (pc + kk) * b_rs + jc * b_cs;
          for (std::int64_t jj = 0; jj < nr; ++jj) {
            dst[kk * NR + jj] = src[jj * b_cs];
          }
          for (std::int64_t jj = nr; jj < NR; ++jj) dst[kk * NR + jj] = 0.0f;
        }
      }
    }
  });
  // B-tile (jt, pi) for the micro-kernel: its first row and its row stride.
  using BTile = std::pair<const float*, std::int64_t>;
  const auto b_tile = [&](std::int64_t jt, std::int64_t pi) -> BTile {
    if (jt < jt_direct) return {b + pi * KC * b_rs + jt * NR, b_rs};
    return {packed_slot(jt, pi), NR};
  };

  if (m <= MR) {
    // Small-batch schedule: NS-column strips of C are the parallel chunks,
    // so a few-row product still spreads over the pool. Within a KC panel
    // the strip's accumulators live in a chunk-local buffer and are carried
    // across KB-row sub-blocks of B, so B streams through the strip row by
    // row instead of tile by tile down the whole panel. A is read in place
    // at any strides (it is at most MR x KB per pass).
    const MicroKernel kernel = kRowKernels[m - 1];
    parallel_for(ctx, 0, ceil_div(n, NS), 1, [&](std::int64_t s0,
                                                  std::int64_t s1) {
      float acc[MR * NS];
      for (std::int64_t s = s0; s < s1; ++s) {
        const std::int64_t jc = s * NS;
        const std::int64_t width = std::min(NS, n - jc);
        const std::int64_t tiles = ceil_div(width, NR);
        for (std::int64_t pi = 0; pi < num_pc; ++pi) {
          const std::int64_t pc = pi * KC;
          const std::int64_t kc = std::min(KC, k - pc);
          for (std::int64_t kb = 0; kb < kc; kb += KB) {
            const Epilogue carry =
                kb == 0 ? Epilogue::kStore : Epilogue::kCarry;
            for (std::int64_t t = 0; t < tiles; ++t) {
              const auto [bp, b_ks] = b_tile(jc / NR + t, pi);
              kernel(a + (pc + kb) * a_cs, a_rs, a_cs, bp + kb * b_ks, b_ks,
                     std::min(KB, kc - kb), acc + t * NR, NS, carry);
            }
          }
          for (std::int64_t r = 0; r < m; ++r) {
            const float* arow = acc + r * NS;
            float* crow = c + r * n + jc;
            for (std::int64_t j = 0; j < width; ++j) {
              crow[j] = pi == 0 ? arow[j] : crow[j] + arow[j];
            }
          }
        }
      }
    });
    return;
  }

  // Row-block schedule: row blocks of MC rows are the parallel chunks; each
  // owns a disjoint slice of C and runs the full k-reduction in panel
  // order. When A's columns are contiguous (a_cs == 1 — plain gemm,
  // gemm_nt, and the conv col matrices) full tiles read A in place; only
  // edge tiles and the transposed case pay the packing pass.
  const bool direct_a = (a_cs == 1);
  parallel_for(ctx, 0, ceil_div(m, MC), 1, [&](std::int64_t rb0,
                                               std::int64_t rb1) {
    thread_local std::vector<float> a_packed;
    a_packed.resize(static_cast<std::size_t>(MC) * KC);
    for (std::int64_t rb = rb0; rb < rb1; ++rb) {
      const std::int64_t ic = rb * MC;
      const std::int64_t mc = std::min(MC, m - ic);
      const std::int64_t num_ir = ceil_div(mc, MR);
      for (std::int64_t pi = 0; pi < num_pc; ++pi) {
        const std::int64_t pc = pi * KC;
        const std::int64_t kc = std::min(KC, k - pc);
        for (std::int64_t ir = 0; ir < num_ir; ++ir) {
          const std::int64_t rows = std::min(MR, mc - ir * MR);
          if (direct_a && rows == MR) continue;  // read in place below
          float* dst = a_packed.data() + ir * KC * MR;
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            const float* src = a + (ic + ir * MR) * a_rs + (pc + kk) * a_cs;
            for (std::int64_t rr = 0; rr < rows; ++rr) {
              dst[kk * MR + rr] = src[rr * a_rs];
            }
            for (std::int64_t rr = rows; rr < MR; ++rr) {
              dst[kk * MR + rr] = 0.0f;
            }
          }
        }
        const Epilogue panel = pi == 0 ? Epilogue::kStore : Epilogue::kAdd;
        for (std::int64_t jt = 0; jt < num_jt; ++jt) {
          const std::int64_t jc = jt * NR;
          const std::int64_t nr = std::min(NR, n - jc);
          const auto [bp, b_ks] = b_tile(jt, pi);
          for (std::int64_t ir = 0; ir < num_ir; ++ir) {
            const std::int64_t rows = std::min(MR, mc - ir * MR);
            const bool in_place = direct_a && rows == MR;
            const float* ap = in_place
                                  ? a + (ic + ir * MR) * a_rs + pc
                                  : a_packed.data() + ir * KC * MR;
            const std::int64_t ap_rs = in_place ? a_rs : 1;
            const std::int64_t ap_ks = in_place ? 1 : MR;
            float* ctile = c + (ic + ir * MR) * n + jc;
            if (rows == MR && nr == NR) {
              // Full interior tile: store/accumulate straight into C.
              micro_kernel<MR>(ap, ap_rs, ap_ks, bp, b_ks, kc, ctile, n,
                               panel);
              continue;
            }
            float acc[MR * NR];
            micro_kernel<MR>(ap, ap_rs, ap_ks, bp, b_ks, kc, acc, NR,
                             Epilogue::kStore);
            for (std::int64_t rr = 0; rr < rows; ++rr) {
              const float* arow = acc + rr * NR;
              for (std::int64_t jj = 0; jj < nr; ++jj) {
                if (pi == 0) {
                  ctile[rr * n + jj] = arow[jj];
                } else {
                  ctile[rr * n + jj] += arow[jj];
                }
              }
            }
          }
        }
      }
    }
  });
}

// im2col: col[(b*oh+oy)*ow+ox, (fy*fw+fx)*c+ci], SAME padding as zeros.
// Iterates (image-row, fy) so the interior of every output row copies one
// contiguous fw*c span per tap row instead of fw separate c-element pieces;
// every col element is written exactly once, so the loop order is free and
// the parallel decomposition over (b, oy) rows cannot change results.
// Templated over the element type: the float and int8 conv paths share one
// geometry (padding is T(0): 0.0f, or the int8 code for 0.0 under
// symmetric quantization).
template <typename T>
void im2col(const KernelContext& ctx, const ConvShape& s, const T* input,
            T* col) {
  const std::int64_t patch = s.patch_size();
  const std::int64_t span = s.fw * s.c;
  const std::int64_t grain =
      std::max<std::int64_t>(1, 8192 / std::max<std::int64_t>(1, s.ow));
  parallel_for(ctx, 0, s.n * s.oh, grain,
               [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t b = t / s.oh;
      const std::int64_t oy = t % s.oh;
      T* colrow = col + t * s.ow * patch;
      for (std::int64_t fy = 0; fy < s.fh; ++fy) {
        const std::int64_t iy = oy * s.stride + fy - s.pad_h;
        if (iy < 0 || iy >= s.h) {
          for (std::int64_t ox = 0; ox < s.ow; ++ox) {
            T* dst = colrow + ox * patch + fy * span;
            std::fill(dst, dst + span, T(0));
          }
          continue;
        }
        const T* in_row = input + (b * s.h + iy) * s.w * s.c;
        for (std::int64_t ox = 0; ox < s.ow; ++ox) {
          T* dst = colrow + ox * patch + fy * span;
          const std::int64_t ix0 = ox * s.stride - s.pad_w;
          if (ix0 >= 0 && ix0 + s.fw <= s.w) {
            const T* src = in_row + ix0 * s.c;
            for (std::int64_t i = 0; i < span; ++i) dst[i] = src[i];
          } else {
            for (std::int64_t fx = 0; fx < s.fw; ++fx) {
              const std::int64_t ix = ix0 + fx;
              if (ix < 0 || ix >= s.w) {
                std::fill(dst + fx * s.c, dst + (fx + 1) * s.c, T(0));
              } else {
                const T* src = in_row + ix * s.c;
                std::copy(src, src + s.c, dst + fx * s.c);
              }
            }
          }
        }
      }
    }
  });
}

// The im2col scratch of the current calling thread, reused across calls.
std::vector<float>& col_scratch(std::int64_t elements) {
  thread_local std::vector<float> scratch;
  if (static_cast<std::int64_t>(scratch.size()) < elements) {
    scratch.resize(static_cast<std::size_t>(elements));
  }
  return scratch;
}

std::vector<std::int8_t>& col_scratch_s8(std::int64_t elements) {
  thread_local std::vector<std::int8_t> scratch;
  if (static_cast<std::int64_t>(scratch.size()) < elements) {
    scratch.resize(static_cast<std::size_t>(elements));
  }
  return scratch;
}

}  // namespace

const KernelContext& KernelContext::shared() {
  static const KernelContext ctx{&runtime::ThreadPool::shared(),
                                 runtime::ThreadPool::shared().thread_count()};
  return ctx;
}

void parallel_for(const KernelContext& ctx, std::int64_t begin,
                  std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (ctx.pool != nullptr && ctx.threads > 1) {
    ctx.pool->parallel_for(begin, end, grain, fn);
    return;
  }
  grain = std::max<std::int64_t>(1, grain);
  for (std::int64_t cb = begin; cb < end; cb += grain) {
    fn(cb, std::min(end, cb + grain));
  }
}

void gemm(const KernelContext& ctx, std::int64_t m, std::int64_t k,
          std::int64_t n, const float* a, const float* b, float* c) {
  gemm_strided(ctx, m, k, n, a, k, 1, b, n, 1, c);
}

void gemm_nt(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const float* a, const float* b, float* c) {
  gemm_strided(ctx, m, k, n, a, k, 1, b, 1, k, c);
}

void gemm_tn(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const float* a, const float* b, float* c) {
  gemm_strided(ctx, m, k, n, a, 1, m, b, n, 1, c);
}

ConvShape conv_shape(std::int64_t n, std::int64_t h, std::int64_t w,
                     std::int64_t c, std::int64_t fh, std::int64_t fw,
                     std::int64_t k, std::int64_t stride) {
  ConvShape s;
  s.n = n;
  s.h = h;
  s.w = w;
  s.c = c;
  s.fh = fh;
  s.fw = fw;
  s.k = k;
  s.stride = stride;
  s.oh = (h + stride - 1) / stride;
  s.ow = (w + stride - 1) / stride;
  s.pad_h = std::max<std::int64_t>(0, ((s.oh - 1) * stride + fh - h) / 2);
  s.pad_w = std::max<std::int64_t>(0, ((s.ow - 1) * stride + fw - w) / 2);
  return s;
}

void conv2d_forward(const KernelContext& ctx, const ConvShape& s,
                    const float* input, const float* filter, float* out) {
  obs::counter<obs::names::kKernelConvCalls>().add();
  auto& col = col_scratch(s.out_pixels() * s.patch_size());
  im2col(ctx, s, input, col.data());
  // HWIO filter memory is already the [fh*fw*c, k] GEMM operand.
  gemm(ctx, s.out_pixels(), s.patch_size(), s.k, col.data(), filter, out);
}

void conv2d_grad_input(const KernelContext& ctx, const ConvShape& s,
                       const float* filter, const float* grad_output,
                       float* grad_input) {
  obs::counter<obs::names::kKernelConvCalls>().add();
  const std::int64_t rows = s.out_pixels();
  const std::int64_t patch = s.patch_size();
  auto& col_grad = col_scratch(rows * patch);
  // col_grad[rows, patch] = grad_output[rows, k] x filterᵀ[k, patch].
  gemm_strided(ctx, rows, s.k, patch, grad_output, s.k, 1, filter, 1, s.k,
               col_grad.data());
  // col2im scatter-add: windows overlap inside one image, so images are the
  // parallel unit (each owns a disjoint grad_input slice) and the scatter
  // order within an image matches the naive kernel's (oy, ox, fy, fx) walk.
  parallel_for(ctx, 0, s.n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t oy = 0; oy < s.oh; ++oy) {
        for (std::int64_t ox = 0; ox < s.ow; ++ox) {
          const float* src =
              col_grad.data() + (((b * s.oh + oy) * s.ow) + ox) * patch;
          for (std::int64_t fy = 0; fy < s.fh; ++fy) {
            const std::int64_t iy = oy * s.stride + fy - s.pad_h;
            if (iy < 0 || iy >= s.h) continue;
            for (std::int64_t fx = 0; fx < s.fw; ++fx) {
              const std::int64_t ix = ox * s.stride + fx - s.pad_w;
              if (ix < 0 || ix >= s.w) continue;
              float* dst = grad_input + ((b * s.h + iy) * s.w + ix) * s.c;
              const float* patch_src = src + (fy * s.fw + fx) * s.c;
              for (std::int64_t ci = 0; ci < s.c; ++ci) {
                dst[ci] += patch_src[ci];
              }
            }
          }
        }
      }
    }
  });
}

void conv2d_grad_filter(const KernelContext& ctx, const ConvShape& s,
                        const float* input, const float* grad_output,
                        float* grad_filter) {
  obs::counter<obs::names::kKernelConvCalls>().add();
  const std::int64_t rows = s.out_pixels();
  const std::int64_t patch = s.patch_size();
  auto& col = col_scratch(rows * patch);
  im2col(ctx, s, input, col.data());
  // grad_filter[patch, k] += colᵀ[patch, rows] x grad_output[rows, k].
  gemm_strided(ctx, patch, rows, s.k, col.data(), 1, patch, grad_output, s.k,
               1, grad_filter);
}

std::int8_t requantize(std::int32_t acc, float multiplier) {
  const float scaled = static_cast<float>(acc) * multiplier;
  const int q =
      static_cast<int>(scaled >= 0 ? scaled + 0.5f : scaled - 0.5f);
  return static_cast<std::int8_t>(std::max(-127, std::min(127, q)));
}

std::int8_t quantize_one(float value, float scale) {
  const float scaled = value / scale;
  const int q =
      static_cast<int>(scaled >= 0 ? scaled + 0.5f : scaled - 0.5f);
  return static_cast<std::int8_t>(std::max(-127, std::min(127, q)));
}

void gemm_s8(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const std::int8_t* a, const std::int8_t* b,
             float multiplier, std::int8_t* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  obs::counter<obs::names::kQuantGemmCalls>().add();
  // MR-row blocks are the parallel chunks — shape-only, each owning a
  // disjoint slice of c. Within a row the k reduction walks KC panels in
  // ascending order like the float core; with exact int32 accumulation the
  // association cannot change the bits, the fixed order keeps the structure
  // (and the batched == N singles argument) aligned with the float path.
  parallel_for(ctx, 0, m, MR, [&](std::int64_t i0, std::int64_t i1) {
    thread_local std::vector<std::int32_t> acc;
    acc.resize(static_cast<std::size_t>(n));
    for (std::int64_t i = i0; i < i1; ++i) {
      std::fill(acc.begin(), acc.begin() + n, 0);
      const std::int8_t* arow = a + i * k;
      for (std::int64_t pc = 0; pc < k; pc += KC) {
        const std::int64_t kc = std::min(KC, k - pc);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          const std::int32_t av = arow[pc + kk];
          const std::int8_t* brow = b + (pc + kk) * n;
          for (std::int64_t j = 0; j < n; ++j) {
            acc[static_cast<std::size_t>(j)] += av * brow[j];
          }
        }
      }
      // Fused requantization epilogue: the int32 row never leaves the
      // kernel; c stores int8 codes in the output tensor's scale.
      std::int8_t* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = requantize(acc[static_cast<std::size_t>(j)], multiplier);
      }
    }
  });
}

void conv2d_forward_s8(const KernelContext& ctx, const ConvShape& s,
                       const std::int8_t* input, const std::int8_t* filter,
                       float multiplier, std::int8_t* out) {
  obs::counter<obs::names::kQuantConvCalls>().add();
  auto& col = col_scratch_s8(s.out_pixels() * s.patch_size());
  im2col(ctx, s, input, col.data());
  // HWIO filter memory is already the [fh*fw*c, k] GEMM operand.
  gemm_s8(ctx, s.out_pixels(), s.patch_size(), s.k, col.data(), filter,
          multiplier, out);
}

namespace reference {

void matmul(std::int64_t m, std::int64_t k, std::int64_t n, const float* a,
            const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void conv2d(const ConvShape& s, const float* input, const float* filter,
            float* out) {
  for (std::int64_t b = 0; b < s.n; ++b) {
    for (std::int64_t oy = 0; oy < s.oh; ++oy) {
      for (std::int64_t ox = 0; ox < s.ow; ++ox) {
        float* out_px = out + ((b * s.oh + oy) * s.ow + ox) * s.k;
        for (std::int64_t fy = 0; fy < s.fh; ++fy) {
          const std::int64_t iy = oy * s.stride + fy - s.pad_h;
          if (iy < 0 || iy >= s.h) continue;
          for (std::int64_t fx = 0; fx < s.fw; ++fx) {
            const std::int64_t ix = ox * s.stride + fx - s.pad_w;
            if (ix < 0 || ix >= s.w) continue;
            const float* in_px = input + ((b * s.h + iy) * s.w + ix) * s.c;
            const float* f_px = filter + (fy * s.fw + fx) * s.c * s.k;
            for (std::int64_t ci = 0; ci < s.c; ++ci) {
              const float iv = in_px[ci];
              const float* f_row = f_px + ci * s.k;
              for (std::int64_t ko = 0; ko < s.k; ++ko) {
                out_px[ko] += iv * f_row[ko];
              }
            }
          }
        }
      }
    }
  }
}

void conv2d_grad_input(const ConvShape& s, const float* filter,
                       const float* grad_output, float* grad_input) {
  for (std::int64_t b = 0; b < s.n; ++b) {
    for (std::int64_t oy = 0; oy < s.oh; ++oy) {
      for (std::int64_t ox = 0; ox < s.ow; ++ox) {
        const float* g_px =
            grad_output + ((b * s.oh + oy) * s.ow + ox) * s.k;
        for (std::int64_t fy = 0; fy < s.fh; ++fy) {
          const std::int64_t iy = oy * s.stride + fy - s.pad_h;
          if (iy < 0 || iy >= s.h) continue;
          for (std::int64_t fx = 0; fx < s.fw; ++fx) {
            const std::int64_t ix = ox * s.stride + fx - s.pad_w;
            if (ix < 0 || ix >= s.w) continue;
            float* in_px = grad_input + ((b * s.h + iy) * s.w + ix) * s.c;
            const float* f_px = filter + (fy * s.fw + fx) * s.c * s.k;
            for (std::int64_t ci = 0; ci < s.c; ++ci) {
              const float* f_row = f_px + ci * s.k;
              float acc = 0;
              for (std::int64_t ko = 0; ko < s.k; ++ko) {
                acc += g_px[ko] * f_row[ko];
              }
              in_px[ci] += acc;
            }
          }
        }
      }
    }
  }
}

void conv2d_grad_filter(const ConvShape& s, const float* input,
                        const float* grad_output, float* grad_filter) {
  for (std::int64_t b = 0; b < s.n; ++b) {
    for (std::int64_t oy = 0; oy < s.oh; ++oy) {
      for (std::int64_t ox = 0; ox < s.ow; ++ox) {
        const float* g_px =
            grad_output + ((b * s.oh + oy) * s.ow + ox) * s.k;
        for (std::int64_t fy = 0; fy < s.fh; ++fy) {
          const std::int64_t iy = oy * s.stride + fy - s.pad_h;
          if (iy < 0 || iy >= s.h) continue;
          for (std::int64_t fx = 0; fx < s.fw; ++fx) {
            const std::int64_t ix = ox * s.stride + fx - s.pad_w;
            if (ix < 0 || ix >= s.w) continue;
            const float* in_px = input + ((b * s.h + iy) * s.w + ix) * s.c;
            float* f_px = grad_filter + (fy * s.fw + fx) * s.c * s.k;
            for (std::int64_t ci = 0; ci < s.c; ++ci) {
              const float iv = in_px[ci];
              float* f_row = f_px + ci * s.k;
              for (std::int64_t ko = 0; ko < s.k; ++ko) {
                f_row[ko] += iv * g_px[ko];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace reference

}  // namespace stf::ml::kernels
