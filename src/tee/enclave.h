// Enclave lifecycle, measurement, and in-enclave memory accounting.
//
// An `Enclave` is created from an `EnclaveImage` (the code/data loaded at
// ECREATE/EADD time); its MRENCLAVE is the SHA-256 over that initial image,
// so any modification of the shipped binary or configuration changes the
// measurement and is caught at attestation (CAS policy check). The image
// itself occupies EPC: this is why the paper's TF-Lite container (1.9 MB
// binary) behaves so differently from full TensorFlow (87.4 MB binary).
#pragma once

#include <memory>
#include <string>

#include "crypto/bytes.h"
#include "tee/attestation.h"
#include "tee/cost_model.h"
#include "tee/epc.h"
#include "tee/memory_env.h"
#include "tee/sim_clock.h"

namespace stf::tee {

class Platform;

/// The initial contents of an enclave: code plus static data. `content`
/// feeds the measurement; `binary_bytes` is the EPC footprint of the image
/// (code + static data + runtime), which stays resident for the enclave's
/// lifetime.
struct EnclaveImage {
  std::string name;
  crypto::Bytes content;            ///< measured bytes (binary + config)
  std::uint64_t binary_bytes = 0;   ///< EPC footprint of the loaded image
  Measurement signer{};             ///< MRSIGNER identity
  EnclaveAttributes attributes;

  [[nodiscard]] Measurement measure() const;
};

/// An enclave is the memory environment its ML executors charge. `final`,
/// so calls through an `Enclave` itself stay non-virtual.
class Enclave final : public MemoryEnv {
 public:
  /// Created via Platform::launch_enclave().
  Enclave(Platform& platform, EnclaveImage image);
  ~Enclave() override;

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  [[nodiscard]] const Measurement& mrenclave() const { return mrenclave_; }
  [[nodiscard]] const EnclaveImage& image() const { return image_; }
  [[nodiscard]] Platform& platform() { return platform_; }
  [[nodiscard]] TeeMode mode() const;

  /// EREPORT: binds 64 bytes of user data (e.g. the hash of a session public
  /// key) to this enclave's identity.
  [[nodiscard]] Report create_report(
      const std::array<std::uint8_t, 64>& report_data) const;

  // --- MemoryEnv (region handles are EPC regions) -----------------------
  RegionId alloc(std::string_view label, std::uint64_t bytes) override;
  void release(RegionId id) override;
  void access(RegionId id, std::uint64_t offset, std::uint64_t len,
              bool write) override;
  void compute(double flops) override;
  /// int8 integer ops (quantized kernels): same runtime-overhead multiplier
  /// as compute(), but at the cost model's int8 throughput multiple and a
  /// quarter of the per-op MEE traffic (1-byte operands).
  void compute_int8(double ops) override;
  /// Work offloaded to the untrusted accelerator (docs/GPU_OFFLOAD.md):
  /// billed at the cost model's GPU rate under profile.gpu, with no runtime
  /// overhead and no MEE traffic — it runs outside the TEE.
  void gpu_compute(double flops) override;
  /// Host<->GPU activation/weight shipping, billed under profile.pcie.
  void pcie_transfer(std::uint64_t bytes) override;
  /// EPC streaming hints (forwarded to the platform's EpcManager; no-ops
  /// outside Hardware mode). See docs/MEMORY_PLANNER.md.
  void prefetch(RegionId id, std::uint64_t offset, std::uint64_t len) override;
  void advise_evict(RegionId id, std::uint64_t offset,
                    std::uint64_t len) override;
  void pin(RegionId id) override;
  void unpin(RegionId id) override;
  /// Virtual time of the platform clock this enclave charges into.
  [[nodiscard]] std::uint64_t now_ns() const override;

  // --- transitions and syscalls -----------------------------------------
  /// A synchronous enclave transition pair (EENTER + EEXIT).
  void charge_transition();
  /// A system call issued from inside. With `asynchronous` (SCONE's
  /// exit-less interface) no transition happens; otherwise it costs a full
  /// exit + re-entry around the kernel work.
  void syscall(std::uint64_t bytes_copied, bool asynchronous);
  /// A user-level thread switch inside the enclave.
  void charge_uthread_switch();

  [[nodiscard]] std::uint64_t syscall_count() const { return syscall_count_; }

  /// Touches the leading `fraction` of the binary image (the hot code +
  /// static data executed during one unit of work); in HW mode this is what
  /// makes a large binary compete with model data for EPC residency.
  void touch_binary(double fraction = 1.0);

  /// SCONE-runtime compute multiplier for this container (inference ~1.05,
  /// training ~2.3; see CostModel). Memory-traffic intensity of the
  /// workload's kernels is configured with bytes_per_flop.
  void set_runtime_overhead(double factor) { runtime_overhead_ = factor; }
  void set_compute_bytes_per_flop(double bpf) { bytes_per_flop_ = bpf; }

 private:
  Platform& platform_;
  EnclaveImage image_;
  Measurement mrenclave_;
  RegionId binary_region_ = 0;
  std::uint64_t syscall_count_ = 0;
  double runtime_overhead_ = 1.05;
  double bytes_per_flop_ = -1;  // negative: use the model default
};

}  // namespace stf::tee
