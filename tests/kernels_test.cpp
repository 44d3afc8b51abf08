// Tests for the blocked GEMM / im2col convolution substrate: equivalence
// against the naive reference kernels over randomized awkward shapes, NaN
// propagation (the old kernels' zero-skip broke it), and bit-identical
// results at every thread-pool size and for every layout of B (the
// determinism contract that keeps "Lite matches the Session bit-for-bit"
// true on a parallel host).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "crypto/drbg.h"
#include "ml/kernels.h"
#include "ml/ops.h"
#include "runtime/thread_pool.h"

// This binary's global operator new counts its calls, so a test can pin a
// path that must not allocate.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() meet a pointer from new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace stf::ml {
namespace {

using kernels::KernelContext;

float random_float(crypto::HmacDrbg& rng) {
  // Uniform in roughly [-1, 1), deterministic across runs.
  return static_cast<float>(rng.uniform(20001)) / 10000.0f - 1.0f;
}

Tensor random_tensor(crypto::HmacDrbg& rng, Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) t.at(i) = random_float(rng);
  return t;
}

// Same value grid as random_tensor, from a splitmix64 hash of (salt, index)
// instead of one DRBG draw per element, which would dominate the run time
// of the tests that sweep megabyte-sized operands.
Tensor hashed_tensor(std::uint64_t salt, Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    std::uint64_t z =
        salt + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    t.at(i) = static_cast<float>(z % 20001) / 10000.0f - 1.0f;
  }
  return t;
}

void expect_near(const Tensor& actual, const std::vector<float>& expected,
                 const char* what) {
  ASSERT_EQ(actual.size(), static_cast<std::int64_t>(expected.size()));
  for (std::int64_t i = 0; i < actual.size(); ++i) {
    const float e = expected[static_cast<std::size_t>(i)];
    const float tol = 1e-4f * std::max(1.0f, std::abs(e));
    EXPECT_NEAR(actual.at(i), e, tol) << what << " element " << i;
  }
}

TEST(BlockedGemm, MatchesNaiveOnRandomOddShapes) {
  crypto::HmacDrbg rng(crypto::to_bytes("gemm-equivalence"));
  // Odd sizes exercise every edge tile; k=300 spans two KC panels.
  const std::int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {13, 9, 31},
                                    {65, 17, 5}, {77, 300, 23}, {6, 256, 8},
                                    {73, 129, 65}};
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = random_tensor(rng, {m, k});
    const Tensor b = random_tensor(rng, {k, n});
    std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
    kernels::reference::matmul(m, k, n, a.data(), b.data(), want.data());
    const auto got = ops::matmul(a, b, KernelContext{});
    expect_near(got.output, want, "matmul");
    EXPECT_DOUBLE_EQ(got.flops, 2.0 * static_cast<double>(m) * k * n);
  }
}

TEST(BlockedGemm, TransposedVariantsMatchNaive) {
  crypto::HmacDrbg rng(crypto::to_bytes("gemm-transpose"));
  const std::int64_t m = 19, k = 45, n = 11;
  const Tensor a = random_tensor(rng, {m, k});
  const Tensor bt = random_tensor(rng, {n, k});  // logical B = btᵀ
  const Tensor at = random_tensor(rng, {k, m});  // logical A = atᵀ
  const Tensor b = random_tensor(rng, {k, n});

  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) {
        want[static_cast<std::size_t>(i * n + j)] +=
            a.at(i * k + kk) * bt.at(j * k + kk);
      }
    }
  }
  Tensor got({m, n});
  kernels::gemm_nt(KernelContext{}, m, k, n, a.data(), bt.data(), got.data());
  expect_near(got, want, "gemm_nt");

  std::fill(want.begin(), want.end(), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) {
        want[static_cast<std::size_t>(i * n + j)] +=
            at.at(kk * m + i) * b.at(kk * n + j);
      }
    }
  }
  Tensor got_tn({m, n});
  kernels::gemm_tn(KernelContext{}, m, k, n, at.data(), b.data(),
                   got_tn.data());
  expect_near(got_tn, want, "gemm_tn");
}

TEST(Im2colConv, ForwardMatchesNaiveOnRandomShapes) {
  crypto::HmacDrbg rng(crypto::to_bytes("conv-equivalence"));
  struct Case {
    std::int64_t n, h, w, c, fh, fw, k, stride;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 1, 1, 1, 1}, {1, 7, 5, 3, 3, 3, 5, 1},
      {2, 9, 9, 1, 5, 5, 7, 2}, {3, 13, 11, 5, 3, 3, 9, 3},
      {1, 8, 8, 4, 1, 1, 6, 1}, {2, 11, 17, 3, 5, 3, 4, 2},
  };
  for (const auto& tc : cases) {
    const Tensor input = random_tensor(rng, {tc.n, tc.h, tc.w, tc.c});
    const Tensor filter = random_tensor(rng, {tc.fh, tc.fw, tc.c, tc.k});
    const auto s = kernels::conv_shape(tc.n, tc.h, tc.w, tc.c, tc.fh, tc.fw,
                                       tc.k, tc.stride);
    std::vector<float> want(
        static_cast<std::size_t>(s.out_pixels() * s.k), 0.0f);
    kernels::reference::conv2d(s, input.data(), filter.data(), want.data());
    const auto got = ops::conv2d(input, filter, tc.stride, KernelContext{});
    ASSERT_EQ(got.output.shape(), (Shape{tc.n, s.oh, s.ow, tc.k}));
    expect_near(got.output, want, "conv2d");
  }
}

TEST(Im2colConv, GradientsMatchNaiveOnRandomShapes) {
  crypto::HmacDrbg rng(crypto::to_bytes("conv-grad-equivalence"));
  struct Case {
    std::int64_t n, h, w, c, fh, fw, k, stride;
  };
  const Case cases[] = {
      {1, 7, 5, 3, 3, 3, 5, 1},
      {2, 9, 9, 2, 5, 5, 3, 2},
      {2, 13, 11, 5, 3, 3, 9, 3},
  };
  for (const auto& tc : cases) {
    const Tensor input = random_tensor(rng, {tc.n, tc.h, tc.w, tc.c});
    const Tensor filter = random_tensor(rng, {tc.fh, tc.fw, tc.c, tc.k});
    const auto s = kernels::conv_shape(tc.n, tc.h, tc.w, tc.c, tc.fh, tc.fw,
                                       tc.k, tc.stride);
    const Tensor grad_out = random_tensor(rng, {tc.n, s.oh, s.ow, tc.k});

    std::vector<float> want_gi(static_cast<std::size_t>(input.size()), 0.0f);
    kernels::reference::conv2d_grad_input(s, filter.data(), grad_out.data(),
                                          want_gi.data());
    const auto gi = ops::conv2d_grad_input(input, filter, grad_out, tc.stride,
                                           KernelContext{});
    expect_near(gi.output, want_gi, "conv2d_grad_input");

    std::vector<float> want_gf(static_cast<std::size_t>(filter.size()), 0.0f);
    kernels::reference::conv2d_grad_filter(s, input.data(), grad_out.data(),
                                           want_gf.data());
    const auto gf = ops::conv2d_grad_filter(input, filter, grad_out,
                                            tc.stride, KernelContext{});
    expect_near(gf.output, want_gf, "conv2d_grad_filter");
  }
}

// The old kernels skipped multiplication when one operand was exactly zero,
// so 0 * NaN never poisoned the output. IEEE says it must.
TEST(KernelNumerics, NanPropagatesThroughZeroOperands) {
  Tensor a({1, 2}, {0.0f, 1.0f});
  Tensor b({2, 2}, {std::nanf(""), 2.0f, 3.0f, 4.0f});
  const auto r = ops::matmul(a, b, KernelContext{});
  EXPECT_TRUE(std::isnan(r.output.at(0)));  // 0*NaN + 1*3
  EXPECT_FLOAT_EQ(r.output.at(1), 4.0f);    // 0*2 + 1*4

  // Conv: a zero input pixel against a NaN filter tap.
  Tensor input({1, 1, 1, 1}, {0.0f});
  Tensor filter({1, 1, 1, 1}, {std::nanf("")});
  const auto c = ops::conv2d(input, filter, 1, KernelContext{});
  EXPECT_TRUE(std::isnan(c.output.at(0)));
}

TEST(KernelDeterminism, BitIdenticalAcrossPoolSizes) {
  crypto::HmacDrbg rng(crypto::to_bytes("determinism"));
  const Tensor a = random_tensor(rng, {150, 300});
  const Tensor b = random_tensor(rng, {300, 70});
  const Tensor input = random_tensor(rng, {2, 17, 13, 5});
  const Tensor filter = random_tensor(rng, {3, 3, 5, 9});
  const auto s = kernels::conv_shape(2, 17, 13, 5, 3, 3, 9, 2);
  const Tensor grad_out = random_tensor(rng, {2, s.oh, s.ow, 9});

  // Few-row products take the small-batch schedule (column strips as the
  // parallel chunks); n = 1024 spans several strips, n = 70 ends ragged.
  std::vector<std::pair<Tensor, Tensor>> small;
  for (const std::int64_t m : {1, 3, 8}) {
    for (const std::int64_t n : {70, 1024}) {
      small.emplace_back(hashed_tensor(small.size(), {m, 300}),
                         hashed_tensor(small.size() + 100, {300, n}));
    }
  }

  const auto mm_serial = ops::matmul(a, b, KernelContext{});
  std::vector<Tensor> small_serial;
  for (const auto& [sa, sb] : small) {
    small_serial.push_back(ops::matmul(sa, sb, KernelContext{}).output);
  }
  const auto conv_serial = ops::conv2d(input, filter, 2, KernelContext{});
  const auto gi_serial =
      ops::conv2d_grad_input(input, filter, grad_out, 2, KernelContext{});
  const auto gf_serial =
      ops::conv2d_grad_filter(input, filter, grad_out, 2, KernelContext{});

  for (const unsigned threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(threads);
    const KernelContext ctx{&pool, pool.thread_count()};
    EXPECT_EQ(ops::matmul(a, b, ctx).output, mm_serial.output)
        << threads << " threads";
    for (std::size_t i = 0; i < small.size(); ++i) {
      EXPECT_EQ(ops::matmul(small[i].first, small[i].second, ctx).output,
                small_serial[i])
          << threads << " threads, m = " << small[i].first.dim(0)
          << ", n = " << small[i].second.dim(1);
    }
    EXPECT_EQ(ops::conv2d(input, filter, 2, ctx).output, conv_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::conv2d_grad_input(input, filter, grad_out, 2, ctx).output,
              gi_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::conv2d_grad_filter(input, filter, grad_out, 2, ctx).output,
              gf_serial.output)
        << threads << " threads";
  }
}

// Small problems (k <= KC) must reproduce the naive reference *bit for
// bit*: the blocked kernel reduces k in the same ascending order, so the
// historical ml_test expectations keep holding exactly.
// m <= 8 runs the small-batch schedule, whose accumulators are stored and
// reloaded between B sub-blocks; that must not change a bit either.
TEST(KernelDeterminism, SmallShapesAreBitExactAgainstNaive) {
  crypto::HmacDrbg rng(crypto::to_bytes("bit-exact"));
  const std::int64_t shapes[][3] = {
      {33, 129, 18}, {1, 256, 1024}, {5, 129, 70}, {8, 17, 33}, {1, 1, 1}};
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = random_tensor(rng, {m, k});
    const Tensor b = hashed_tensor(static_cast<std::uint64_t>(k * n), {k, n});
    std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
    kernels::reference::matmul(m, k, n, a.data(), b.data(), want.data());
    const auto got = ops::matmul(a, b, KernelContext{});
    for (std::int64_t i = 0; i < got.output.size(); ++i) {
      EXPECT_EQ(got.output.at(i), want[static_cast<std::size_t>(i)])
          << m << "x" << k << "x" << n << " element " << i;
    }
  }
}

// Row i of an m-row product equals the 1-row product of row i bit for bit:
// m > 8 runs the row-block schedule, one row the small-batch one, so this
// pins the two to the same per-element reduction (k spans 1..4 KC panels,
// n every edge-tile case). m covers one and two row blocks, every ragged
// last row group and a block split into column strips (fewer row blocks
// than pool threads), on a row-major, a panel-order and a transposed B, at
// pool sizes 1, 2 and 4. gemm_tn reads A transposed in both schedules.
TEST(KernelDeterminism, RowsMatchSingleRowProductsAcrossSchedules) {
  runtime::ThreadPool pool1(1), pool2(2), pool4(4);
  const KernelContext contexts[] = {{&pool1, pool1.thread_count()},
                                    {&pool2, pool2.thread_count()},
                                    {&pool4, pool4.thread_count()}};
  const auto same_rows = [](const std::vector<float>& got,
                            const std::vector<float>& want) {
    return std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) ==
           0;
  };
  // Each product starts from NaNs, so an element no chunk wrote shows.
  const auto fresh = [](std::vector<float>& c) {
    std::fill(c.begin(), c.end(), std::nanf(""));
    return c.data();
  };
  std::uint64_t salt = 0;
  for (const std::int64_t k : {1, 255, 256, 257, 1024}) {
    for (const std::int64_t n : {1, 10, 31, 32, 33, 1024}) {
      const Tensor b = hashed_tensor(++salt, {k, n});
      std::vector<float> panels(static_cast<std::size_t>(k * n));
      kernels::to_panels(k, n, b.data(), panels.data());
      std::vector<float> bt(panels.size());  // B stored [n,k]
      for (std::int64_t kk = 0; kk < k; ++kk) {
        for (std::int64_t j = 0; j < n; ++j) {
          bt[static_cast<std::size_t>(j * k + kk)] = b.at(kk * n + j);
        }
      }
      for (const std::int64_t m : {9, 15, 16, 17, 24, 31, 32, 33, 64, 72, 73}) {
        const Tensor a = hashed_tensor(++salt, {m, k});
        std::vector<float> want(static_cast<std::size_t>(m * n));
        for (std::int64_t i = 0; i < m; ++i) {
          kernels::gemm(KernelContext{}, 1, k, n, a.data() + i * k, b.data(),
                        want.data() + i * n);
        }
        std::vector<float> got(want.size());
        for (const KernelContext& ctx : contexts) {
          const auto where = [&](const char* layout) {
            return std::to_string(m) + "x" + std::to_string(k) + "x" +
                   std::to_string(n) + ", " + layout + " B, " +
                   std::to_string(ctx.threads) + " threads";
          };
          kernels::gemm(ctx, m, k, n, a.data(), b.data(), fresh(got));
          ASSERT_TRUE(same_rows(got, want)) << where("row-major");
          kernels::gemm_panels(ctx, m, k, n, a.data(), panels.data(),
                               fresh(got));
          ASSERT_TRUE(same_rows(got, want)) << where("panel-order");
          kernels::gemm_nt(ctx, m, k, n, a.data(), bt.data(), fresh(got));
          ASSERT_TRUE(same_rows(got, want)) << where("transposed");
        }
      }
    }
  }
  for (const std::int64_t n : {70, 600}) {
    const std::int64_t k = 300;
    const Tensor b = hashed_tensor(++salt, {k, n});
    for (const std::int64_t m : {3, 8, 16, 33, 73}) {
      const Tensor at = hashed_tensor(++salt, {k, m});  // logical A = atᵀ
      std::vector<float> a_row(static_cast<std::size_t>(k));
      std::vector<float> want(static_cast<std::size_t>(m * n));
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          a_row[static_cast<std::size_t>(kk)] = at.at(kk * m + i);
        }
        kernels::gemm(KernelContext{}, 1, k, n, a_row.data(), b.data(),
                      want.data() + i * n);
      }
      std::vector<float> got(want.size());
      for (const KernelContext& ctx : contexts) {
        kernels::gemm_tn(ctx, m, k, n, at.data(), b.data(), fresh(got));
        ASSERT_TRUE(same_rows(got, want))
            << "gemm_tn " << m << "x" << k << "x" << n << ", " << ctx.threads
            << " threads";
      }
    }
  }
}

// A panel-order B (kernels.h) gives the bits the row-major B gives, whichever
// schedule runs the product (m <= 8 strips, m > 8 row blocks), over 1..4
// k-panels, every tail width and pool sizes 1, 2 and 4. The two copies
// between the layouts are inverse, the layout is the documented one, and up
// to 32 columns it is row-major order byte for byte.
TEST(KernelDeterminism, PanelOrderMatchesRowMajor) {
  runtime::ThreadPool pool1(1), pool2(2), pool4(4);
  const KernelContext contexts[] = {{&pool1, pool1.thread_count()},
                                    {&pool2, pool2.thread_count()},
                                    {&pool4, pool4.thread_count()}};
  const auto same_bytes = [](const float* x, const float* y,
                             std::int64_t count) {
    return std::memcmp(x, y, static_cast<std::size_t>(count) *
                                 sizeof(float)) == 0;
  };
  std::uint64_t salt = 1000;
  for (const std::int64_t k : {1, 255, 256, 257, 1024}) {
    for (const std::int64_t n : {1, 10, 31, 32, 33, 64, 100, 1024}) {
      const Tensor b = hashed_tensor(++salt, {k, n});
      std::vector<float> panels(static_cast<std::size_t>(b.size()));
      kernels::to_panels(k, n, b.data(), panels.data());
      std::vector<float> back(panels.size());
      kernels::from_panels(k, n, panels.data(), back.data());
      ASSERT_TRUE(same_bytes(back.data(), b.data(), b.size()))
          << k << "x" << n << " round trip";
      if (n <= kernels::kPanelWidth) {
        ASSERT_TRUE(same_bytes(panels.data(), b.data(), b.size()))
            << k << "x" << n << " is row-major";
      }
      for (const std::int64_t m : {1, 3, 8, 9, 16, 73}) {
        const Tensor a = hashed_tensor(++salt, {m, k});
        std::vector<float> want(static_cast<std::size_t>(m * n));
        kernels::gemm(KernelContext{}, m, k, n, a.data(), b.data(),
                      want.data());
        for (const KernelContext& ctx : contexts) {
          std::vector<float> got(want.size());
          kernels::gemm_panels(ctx, m, k, n, a.data(), panels.data(),
                               got.data());
          ASSERT_TRUE(same_bytes(got.data(), want.data(), m * n))
              << m << "x" << k << "x" << n << ", " << ctx.threads
              << " threads";
        }
      }
    }
  }
  // Element (kk, j) of a [k,n] matrix lies in panel p = j / 32, of width
  // w = min(32, n - 32p), at 32p·k + kk·w + j mod 32.
  const std::int64_t k = 3, n = 70;
  const Tensor b = hashed_tensor(++salt, {k, n});
  std::vector<float> panels(static_cast<std::size_t>(b.size()));
  kernels::to_panels(k, n, b.data(), panels.data());
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t jc = j / 32 * 32;
      const std::int64_t w = std::min<std::int64_t>(32, n - jc);
      EXPECT_EQ(panels[static_cast<std::size_t>(jc * k + kk * w + j - jc)],
                b.at(kk * n + j))
          << "row " << kk << " col " << j;
    }
  }
}

// parallel_for binds its chunk body by reference: a closure that captures
// six references, more than a std::function holds inline, reaches every
// chunk with no heap allocation, on the caller alone or on a pool.
TEST(KernelParallelFor, BindsTheClosureWithoutAllocating) {
  runtime::ThreadPool pool(2);
  const KernelContext contexts[] = {{}, {&pool, 2}};
  std::vector<std::int64_t> sums(64, 0);
  std::int64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  for (const KernelContext& ctx : contexts) {
    // Starts the pool's worker, which allocates its thread.
    kernels::parallel_for(ctx, 0, 64, 8, [](std::int64_t, std::int64_t) {});
    const std::size_t before = g_allocations.load();
    kernels::parallel_for(ctx, 0, 64, 8, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        sums[static_cast<std::size_t>(i)] += a + b + c + d + e;
      }
    });
    EXPECT_EQ(g_allocations.load() - before, 0u);
  }
  for (const std::int64_t s : sums) EXPECT_EQ(s, 30);
}

}  // namespace
}  // namespace stf::ml
