// google-benchmark microbenchmarks of the real primitives (wall time).
//
// Everything else in bench/ measures *virtual* time from the cost model;
// this binary measures the actual host-side implementations: the from-
// scratch crypto that the shields run for real, the EPC manager's
// bookkeeping overhead, and the ML kernels.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "ml/kernels.h"
#include "ml/ops.h"
#include "runtime/thread_pool.h"
#include "tee/epc.h"

namespace {

using namespace stf;

void BM_Sha256(benchmark::State& state) {
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

// 32 bytes is the HMAC-DRBG's message size (its V).
void BM_HmacSha256(benchmark::State& state) {
  const auto key = crypto::to_bytes("benchmark-key");
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0x7f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(4096);

void BM_AesGcmSeal(benchmark::State& state) {
  const auto key = crypto::HmacDrbg(crypto::to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  const crypto::Bytes nonce(12, 0x01);
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, {}, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(256)->Arg(4096)->Arg(65536);

void BM_AesGcmOpen(benchmark::State& state) {
  const auto key = crypto::HmacDrbg(crypto::to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  const crypto::Bytes nonce(12, 0x01);
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  const auto sealed = gcm.seal(nonce, {}, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, {}, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(4096)->Arg(65536);

void BM_X25519Handshake(benchmark::State& state) {
  crypto::HmacDrbg rng(crypto::to_bytes("x"));
  crypto::X25519::Key a{}, b{};
  rng.fill(a.data(), a.size());
  rng.fill(b.data(), b.size());
  const auto pub_b = crypto::X25519::public_from_secret(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519::scalarmult(a, pub_b));
  }
}
BENCHMARK(BM_X25519Handshake);

void BM_DrbgGenerate(benchmark::State& state) {
  crypto::HmacDrbg drbg(crypto::to_bytes("seed"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.generate(1024));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DrbgGenerate);

// One draw the way the load generator makes them: 8 bytes plus the state
// update, so three HMACs and one rekey.
void BM_DrbgUniform(benchmark::State& state) {
  crypto::HmacDrbg drbg(crypto::to_bytes("seed"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.uniform(std::uint64_t{1} << 53));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DrbgUniform);

void BM_EpcResidentAccess(benchmark::State& state) {
  tee::CostModel model;
  tee::EpcManager epc(model, /*limited=*/true);
  tee::SimClock clock;
  const auto region = epc.map_region("r", 64ull << 20);
  epc.access_all(region, false, clock);  // warm
  for (auto _ : state) {
    epc.access(region, 0, 64ull << 20, false, clock);
  }
  state.SetBytesProcessed(state.iterations() * (64ll << 20));
}
BENCHMARK(BM_EpcResidentAccess);

void BM_EpcThrash(benchmark::State& state) {
  tee::CostModel model;
  model.epc_bytes = 8ull << 20;
  tee::EpcManager epc(model, true);
  tee::SimClock clock;
  const auto region = epc.map_region("r", 32ull << 20);
  for (auto _ : state) {
    epc.access_all(region, false, clock);  // 100%-ish miss sweep
  }
  state.counters["faults/sweep"] = benchmark::Counter(
      static_cast<double>(epc.stats().faults) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EpcThrash);

void BM_MatMulKernel(benchmark::State& state) {
  const auto n = state.range(0);
  ml::Tensor a({n, n}), b({n, n});
  for (std::int64_t i = 0; i < a.size(); ++i) {
    a.at(i) = static_cast<float>(i % 7) * 0.1f;
    b.at(i) = static_cast<float>(i % 5) * 0.2f;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::ops::matmul(a, b));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatMulKernel)->Arg(64)->Arg(256);

void BM_Conv2DKernel(benchmark::State& state) {
  ml::Tensor input({1, 28, 28, 8});
  ml::Tensor filter({3, 3, 8, 16});
  for (std::int64_t i = 0; i < input.size(); ++i) {
    input.at(i) = static_cast<float>(i % 11) * 0.05f;
  }
  for (std::int64_t i = 0; i < filter.size(); ++i) {
    filter.at(i) = static_cast<float>(i % 3) * 0.1f;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::ops::conv2d(input, filter, 1));
  }
}
BENCHMARK(BM_Conv2DKernel);

// --- Kernel substrate: naive vs blocked, serial vs pooled (wall time) ---
//
// Reference shape from the perf-opt acceptance bar: batch-8 32x32x3 input
// against a 3x3x3x64 filter. BM_Conv2DNaive runs the pre-im2col triple
// loop kept as the test oracle; BM_Conv2DBlocked runs the shipping
// im2col+GEMM path on a serial context, so the ratio isolates the
// single-thread algorithmic speedup.

ml::Tensor filled(ml::Shape shape, int seed) {
  ml::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>((i + seed) % 13) * 0.07f - 0.4f;
  }
  return t;
}

void BM_Conv2DNaive(benchmark::State& state) {
  const ml::Tensor input = filled({8, 32, 32, 3}, 1);
  const ml::Tensor filter = filled({3, 3, 3, 64}, 2);
  const auto s = ml::kernels::conv_shape(8, 32, 32, 3, 3, 3, 64, 1);
  std::vector<float> out(static_cast<std::size_t>(s.out_pixels() * s.k));
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    ml::kernels::reference::conv2d(s, input.data(), filter.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv2DNaive)->Unit(benchmark::kMillisecond);

void BM_Conv2DBlocked(benchmark::State& state) {
  const ml::Tensor input = filled({8, 32, 32, 3}, 1);
  const ml::Tensor filter = filled({3, 3, 3, 64}, 2);
  const ml::kernels::KernelContext serial{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::ops::conv2d(input, filter, 1, serial));
  }
}
BENCHMARK(BM_Conv2DBlocked)->Unit(benchmark::kMillisecond);

// GEMM thread scaling: arg = pool threads (0 = hardware concurrency).
// Bit-identical output at every arg; only wall time moves.
void BM_GemmThreads(benchmark::State& state) {
  const std::int64_t n = 384;
  const ml::Tensor a = filled({n, n}, 3);
  const ml::Tensor b = filled({n, n}, 4);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  runtime::ThreadPool pool(threads);
  const ml::kernels::KernelContext ctx{&pool, pool.thread_count()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::ops::matmul(a, b, ctx));
  }
  state.counters["threads"] = static_cast<double>(pool.thread_count());
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// The serving GEMM: m rows (1 = an unbatched classify, 8 = a full batch)
// against a 1024x1024 weight matrix, on a pool of 1 or 2 threads. Four
// distinct B matrices (16 MB) are cycled so B is not cache-hot, as a served
// model's layers are not; bytes/s counts B, the operand that streams, per
// second of wall time (the pool's workers are not on the main thread's
// CPU clock).
void BM_GemmSmallBatch(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t k = 1024, n = 1024;
  const ml::Tensor a = filled({m, k}, 5);
  std::vector<ml::Tensor> bs;
  for (int i = 0; i < 4; ++i) bs.push_back(filled({k, n}, 6 + i));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  runtime::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  const ml::kernels::KernelContext ctx{&pool, pool.thread_count()};
  std::size_t next = 0;
  for (auto _ : state) {
    ml::kernels::gemm(ctx, m, k, n, a.data(), bs[next].data(), c.data());
    benchmark::DoNotOptimize(c.data());
    next = (next + 1) % bs.size();
  }
  state.SetBytesProcessed(state.iterations() * k * n *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_GemmSmallBatch)
    ->ArgNames({"m", "threads"})
    ->Args({1, 1})->Args({1, 2})->Args({8, 1})->Args({8, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
