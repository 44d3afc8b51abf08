// Slalom-style GPU offloading with in-enclave verification (§7.4).
//
// The paper's GPU discussion: trusted GPUs don't exist commercially, so
// offloading requires either weakening the threat model or verifying what
// the untrusted GPU returns. Slalom (Tramèr & Boneh, cited as [89]) does the
// latter for linear layers; this module reproduces the scheme as a
// production serving backend (docs/GPU_OFFLOAD.md):
//
//   * linear operations (MatMul, Conv2D) run on an *untrusted* GPU — fast,
//     but the adversary may return anything;
//   * the enclave verifies each result probabilistically: Freivalds' check
//     for matrix products (A(BR) == CR for a random R — O(n^2) per round
//     instead of the O(n^3) recompute, false-accept probability (1/2)^k for
//     k rounds) and random output-sample recomputation for convolutions;
//   * verification is *batched*: one Freivalds check covers the stacked
//     [B, ...] result of a whole batch, and one set of conv samples is
//     shared across the batch's rows, so the O(n^2) check amortizes the way
//     invoke_batch already amortizes weight paging;
//   * verification randomness (the R vectors, the conv sample coordinates)
//     is derived per plan signature off the critical path — no DRBG draw
//     and no clock charge on the request path;
//   * non-linear operations (relu, softmax, pooling, bias) stay inside the
//     enclave.
//
// The GPU itself is simulated: its arithmetic is performed on the host with
// the same blocked kernels the enclave path uses (the values a correct GPU
// would return, bit-identical), its time is charged at the cost model's GPU
// rate under profile.gpu and its transfers under profile.pcie, and fault
// injection (faults::FaultPlane::schedule_gpu_corruption) corrupts its
// outputs to show verification catches tampering.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "ml/kernels.h"
#include "ml/ops.h"
#include "tee/memory_env.h"

namespace stf::ml {

/// Thrown when an offloaded result fails its in-enclave verification: the
/// GPU (or the host driving it) returned a wrong result.
class VerificationError : public std::runtime_error {
 public:
  explicit VerificationError(const std::string& what)
      : std::runtime_error("gpu verification failed: " + what) {}
};

struct SlalomConfig {
  /// Random output samples recomputed in-enclave per convolution. Shared
  /// across a batch: a batched conv still recomputes this many samples.
  int conv_samples = 32;
  /// Freivalds repetitions per matmul check. Each round multiplies the
  /// false-accept probability by 1/2 (SECURITY.md §GPU offload); cost is
  /// linear in rounds.
  int freivalds_rounds = 1;
  /// Verification failures a service tolerates before it distrusts the GPU
  /// outright and stops offloading (docs/GPU_OFFLOAD.md).
  unsigned distrust_after = 3;
  /// Seed of the per-plan-signature verification randomness. Deriving each
  /// signature's DRBG from (seed, signature) makes the randomness
  /// independent of execution order, so reruns are bit-identical.
  std::uint64_t verify_seed = 0x51a10;
};

struct SlalomStats {
  std::uint64_t offloaded_ops = 0;
  std::uint64_t verifications = 0;
  /// Batches re-executed in-enclave after a failed verification (counted by
  /// the owning service, which performs the fallback; the service's only
  /// count of them).
  std::uint64_t fallbacks = 0;
  double gpu_flops = 0;
  double verification_flops = 0;
  std::uint64_t pcie_bytes = 0;
};

/// Offloads single linear ops and verifies the results in-enclave: the
/// backend of the forward op table (ml/op_table.h), through which the Lite
/// interpreter and the Session route their MatMul/Conv2D when GPU offload
/// is on.
///
/// Charging: GPU flops and PCIe bytes are billed inside, to
/// `env->gpu_compute()` / `env->pcie_transfer()` at the CostModel's rates
/// (under profile.gpu / profile.pcie). The *enclave-side* verification
/// arithmetic is returned as the OpResult's flops — callers charge it
/// exactly like any op's compute, so it lands in the same env, category
/// and metrics as the rest of the enclave work. The verification math
/// itself runs on the blocked kernels (`kernels::gemm`, `parallel_for`),
/// so it is thread-pool parallel and shows up in ml.kernels.* counters.
class GpuOffloadEngine {
 public:
  /// Corruption hook: invoked with the current virtual time and the raw GPU
  /// result before verification; mutate the tensor to model a lying GPU.
  using CorruptionHook = std::function<void(std::uint64_t, Tensor&)>;

  /// `env` may be null: no time is charged (pure math + stats).
  GpuOffloadEngine(SlalomConfig config, tee::MemoryEnv* env,
                   kernels::KernelContext ctx = kernels::KernelContext::shared());

  /// C = A[m,k] · B[k,n] on the GPU, Freivalds-verified. `plan_sig` keys the
  /// precomputed randomness; it must be stable per layer and independent of
  /// the batch dimension so batched and single runs share one R.
  ops::OpResult matmul(const Tensor& a, const Tensor& b,
                       const std::string& plan_sig);

  /// NHWC conv on the GPU, verified by recomputing `conv_samples` random
  /// output elements in-enclave (one sample set shared across the batch).
  ops::OpResult conv2d(const Tensor& input, const Tensor& filter,
                       std::int64_t stride, const std::string& plan_sig);

  /// One-time PCIe charge for shipping the model weights to the GPU.
  void upload_weights(std::uint64_t bytes);

  /// Called by the owning service when a failed verification triggered an
  /// in-enclave re-execution (bumps stats and ml.slalom.fallbacks).
  void note_fallback();

  void set_corruption(CorruptionHook hook) { corruption_ = std::move(hook); }

  /// Runtime switch: the executors route linear ops here only while it is
  /// on. The serving fallback turns it off to re-execute in-enclave, and
  /// for good once the GPU is distrusted.
  void set_active(bool on) { active_ = on; }
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] const SlalomStats& stats() const { return stats_; }
  [[nodiscard]] const SlalomConfig& config() const { return config_; }

 private:
  struct PlanRandomness {
    std::vector<float> r;               ///< [n, rounds] Freivalds matrix
    std::vector<std::int64_t> samples;  ///< conv (oy, ox, ko) triples
  };

  const PlanRandomness& plan(const std::string& sig,
                             const std::function<void(crypto::HmacDrbg&,
                                                      PlanRandomness&)>& gen);
  void charge_gpu(double flops);
  void charge_pcie(std::uint64_t bytes);

  SlalomConfig config_;
  tee::MemoryEnv* env_;
  kernels::KernelContext ctx_;
  CorruptionHook corruption_;
  bool active_ = true;
  std::map<std::string, PlanRandomness> plans_;
  SlalomStats stats_;
};

}  // namespace stf::ml
