#include "ml/slalom.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "crypto/bytes.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::ml {

void GpuOffloadEngine::note_fallback() {
  ++stats_.fallbacks;
  obs::counter<obs::names::kSlalomFallbacks>().add();
}

GpuOffloadEngine::GpuOffloadEngine(SlalomConfig config, tee::MemoryEnv* env,
                                   kernels::KernelContext ctx)
    : config_(config), env_(env), ctx_(ctx) {}

void GpuOffloadEngine::charge_gpu(double flops) {
  stats_.gpu_flops += flops;
  obs::counter<obs::names::kSlalomGpuFlops>().add(
      static_cast<std::uint64_t>(flops));
  if (env_ != nullptr) env_->gpu_compute(flops);
}

void GpuOffloadEngine::charge_pcie(std::uint64_t bytes) {
  stats_.pcie_bytes += bytes;
  obs::counter<obs::names::kSlalomPcieBytes>().add(bytes);
  if (env_ != nullptr) env_->pcie_transfer(bytes);
}

void GpuOffloadEngine::upload_weights(std::uint64_t bytes) {
  charge_pcie(bytes);
}

const GpuOffloadEngine::PlanRandomness& GpuOffloadEngine::plan(
    const std::string& sig,
    const std::function<void(crypto::HmacDrbg&, PlanRandomness&)>& gen) {
  auto it = plans_.find(sig);
  if (it != plans_.end()) return it->second;
  // Derived from (seed, signature) alone: independent of execution order,
  // shared between batched and single runs, bit-stable across reruns. The
  // derivation draws no simulated time — it happens off the critical path,
  // amortized over every request that reuses the plan.
  crypto::HmacDrbg drbg(crypto::to_bytes(
      "slalom/" + std::to_string(config_.verify_seed) + "/" + sig));
  PlanRandomness& p = plans_[sig];
  gen(drbg, p);
  return p;
}

ops::OpResult GpuOffloadEngine::matmul(const Tensor& a, const Tensor& b,
                                       const std::string& plan_sig) {
  // The "GPU" computes C = A x B with the same blocked kernels the enclave
  // path uses: the values a correct device would return, bit-identical to
  // the offload-off execution.
  auto result = ops::matmul(a, b, ctx_);
  Tensor c = std::move(result.output);
  if (corruption_) corruption_(env_ != nullptr ? env_->now_ns() : 0, c);
  ++stats_.offloaded_ops;
  obs::counter<obs::names::kSlalomOffloadedOps>().add();
  charge_gpu(result.flops);
  charge_pcie(a.byte_size() + c.byte_size());

  // Freivalds' check over the whole (possibly batch-stacked) product:
  // A(BR) == CR for a random R[n, rounds]. Each round is O(mk + kn + mn)
  // instead of the O(mkn) recompute and halves the false-accept
  // probability; one batched check amortizes the batch-independent k*n
  // term that B per-request checks would each pay (docs/GPU_OFFLOAD.md).
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const std::int64_t rounds = config_.freivalds_rounds;
  const PlanRandomness& rand =
      plan(plan_sig, [n, rounds](crypto::HmacDrbg& drbg, PlanRandomness& p) {
        p.r.resize(static_cast<std::size_t>(n * rounds));
        for (float& v : p.r) {
          v = static_cast<float>(1 + drbg.uniform(16));
        }
      });

  // Three thin GEMMs on the blocked kernels (thread-pool parallel, counted
  // in ml.kernels.*): br = B·R [k,rounds], abr = A·br [m,rounds],
  // cr = C·R [m,rounds].
  std::vector<float> br(static_cast<std::size_t>(k * rounds));
  std::vector<float> abr(static_cast<std::size_t>(m * rounds));
  std::vector<float> cr(static_cast<std::size_t>(m * rounds));
  kernels::gemm(ctx_, k, n, rounds, b.data(), rand.r.data(), br.data());
  kernels::gemm(ctx_, m, k, rounds, a.data(), br.data(), abr.data());
  kernels::gemm(ctx_, m, n, rounds, c.data(), rand.r.data(), cr.data());

  for (std::int64_t i = 0; i < m * rounds; ++i) {
    const float lhs = abr[static_cast<std::size_t>(i)];
    const float rhs = cr[static_cast<std::size_t>(i)];
    const float scale = std::max({1.0f, std::abs(lhs), std::abs(rhs)});
    if (std::abs(lhs - rhs) > config_.tolerance * scale) {
      throw VerificationError("matmul row " + std::to_string(i / rounds) +
                              " failed Freivalds' check [" + plan_sig + "]");
    }
  }

  const double verify_flops = 2.0 * static_cast<double>(rounds) *
                              static_cast<double>(k * n + m * k + m * n);
  stats_.verification_flops += verify_flops;
  ++stats_.verifications;
  obs::counter<obs::names::kSlalomVerifications>().add();
  return {std::move(c), verify_flops};
}

ops::OpResult GpuOffloadEngine::conv2d(const Tensor& input,
                                       const Tensor& filter,
                                       std::int64_t stride,
                                       const std::string& plan_sig) {
  auto result = ops::conv2d(input, filter, stride, ctx_);
  Tensor out = std::move(result.output);
  if (corruption_) corruption_(env_ != nullptr ? env_->now_ns() : 0, out);
  ++stats_.offloaded_ops;
  obs::counter<obs::names::kSlalomOffloadedOps>().add();
  charge_gpu(result.flops);
  charge_pcie(input.byte_size() + out.byte_size());
  // An output with no rows has nothing to spot-check (and the sample-to-row
  // map below would divide by the empty batch).
  if (out.size() == 0) return {std::move(out), 0};

  // Spot-check: recompute random output elements in-enclave. The sample
  // coordinates are per-plan (batch-independent); sample i lands on batch
  // row i % n, so one sample set covers the whole batch and a batched conv
  // pays the same verification cost as a single request.
  const std::int64_t n = input.dim(0), h = input.dim(1), w = input.dim(2),
                     c = input.dim(3);
  const std::int64_t fh = filter.dim(0), fw = filter.dim(1),
                     k = filter.dim(3);
  const std::int64_t oh = out.dim(1), ow = out.dim(2);
  const std::int64_t pad_h =
      std::max<std::int64_t>(0, ((oh - 1) * stride + fh - h) / 2);
  const std::int64_t pad_w =
      std::max<std::int64_t>(0, ((ow - 1) * stride + fw - w) / 2);

  const int samples = config_.conv_samples;
  const PlanRandomness& rand = plan(
      plan_sig,
      [samples, oh, ow, k](crypto::HmacDrbg& drbg, PlanRandomness& p) {
        p.samples.reserve(static_cast<std::size_t>(samples) * 3);
        for (int i = 0; i < samples; ++i) {
          p.samples.push_back(static_cast<std::int64_t>(
              drbg.uniform(static_cast<std::uint64_t>(oh))));
          p.samples.push_back(static_cast<std::int64_t>(
              drbg.uniform(static_cast<std::uint64_t>(ow))));
          p.samples.push_back(static_cast<std::int64_t>(
              drbg.uniform(static_cast<std::uint64_t>(k))));
        }
      });

  // Recompute on the kernel thread pool: chunks write disjoint slots of
  // `bad`, so the outcome is identical at any thread count.
  std::vector<unsigned char> bad(static_cast<std::size_t>(samples), 0);
  const float* in_data = input.data();
  const float* f_data = filter.data();
  const float* out_data = out.data();
  kernels::parallel_for(
      ctx_, 0, samples, 4, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t s = begin; s < end; ++s) {
          const std::int64_t b = s % n;
          const std::int64_t oy = rand.samples[static_cast<std::size_t>(3 * s)];
          const std::int64_t ox =
              rand.samples[static_cast<std::size_t>(3 * s + 1)];
          const std::int64_t ko =
              rand.samples[static_cast<std::size_t>(3 * s + 2)];
          float expected = 0;
          for (std::int64_t fy = 0; fy < fh; ++fy) {
            const std::int64_t iy = oy * stride + fy - pad_h;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t fx = 0; fx < fw; ++fx) {
              const std::int64_t ix = ox * stride + fx - pad_w;
              if (ix < 0 || ix >= w) continue;
              for (std::int64_t ci = 0; ci < c; ++ci) {
                expected += in_data[((b * h + iy) * w + ix) * c + ci] *
                            f_data[((fy * fw + fx) * c + ci) * k + ko];
              }
            }
          }
          const float got = out_data[((b * oh + oy) * ow + ox) * k + ko];
          const float scale =
              std::max({1.0f, std::abs(expected), std::abs(got)});
          if (std::abs(expected - got) > config_.tolerance * scale) {
            bad[static_cast<std::size_t>(s)] = 1;
          }
        }
      });
  for (int s = 0; s < samples; ++s) {
    if (bad[static_cast<std::size_t>(s)] != 0) {
      throw VerificationError(
          "conv2d sample (" +
          std::to_string(rand.samples[static_cast<std::size_t>(3 * s)]) + "," +
          std::to_string(rand.samples[static_cast<std::size_t>(3 * s + 1)]) +
          ") mismatch [" + plan_sig + "]");
    }
  }

  const double verify_flops = 2.0 * static_cast<double>(samples) *
                              static_cast<double>(fh * fw * c);
  stats_.verification_flops += verify_flops;
  ++stats_.verifications;
  obs::counter<obs::names::kSlalomVerifications>().add();
  return {std::move(out), verify_flops};
}

}  // namespace stf::ml
