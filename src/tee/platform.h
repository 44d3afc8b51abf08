// A platform: one physical machine in the simulated cluster.
//
// Owns the virtual clock, the EPC, the quoting enclave, and the execution
// mode (Native / SIM / HW). Multi-node experiments build several platforms
// and connect them through stf::net.
#pragma once

#include <memory>
#include <string>

#include "obs/profile.h"
#include "tee/attestation.h"
#include "tee/cost_model.h"
#include "tee/enclave.h"
#include "tee/epc.h"
#include "tee/memory_env.h"
#include "tee/sim_clock.h"

namespace stf::tee {

class Platform {
 public:
  /// Registers the platform with `authority` (installs the provisioning
  /// secret into the quoting enclave) and sets up the EPC for `mode`.
  Platform(std::string name, TeeMode mode, const CostModel& model,
           ProvisioningAuthority& authority, unsigned cores = 4);

  /// A platform without attestation capability (for pure perf experiments).
  Platform(std::string name, TeeMode mode, const CostModel& model,
           unsigned cores = 4);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TeeMode mode() const { return mode_; }
  [[nodiscard]] const CostModel& model() const { return model_; }
  [[nodiscard]] unsigned cores() const { return cores_; }

  [[nodiscard]] SimClock& clock() { return *active_clock_; }
  [[nodiscard]] const SimClock& clock() const { return *active_clock_; }
  [[nodiscard]] SimClock& base_clock() { return clock_; }

  /// Redirects cost charging to `lane` (used by the scale-up benchmarks to
  /// model per-core time lanes sharing one EPC). Passing nullptr restores
  /// the platform's own clock.
  void set_active_lane(SimClock* lane) {
    active_clock_ = lane != nullptr ? lane : &clock_;
  }

  [[nodiscard]] EpcManager& epc() { return epc_; }
  [[nodiscard]] const EpcManager& epc() const { return epc_; }

  [[nodiscard]] std::unique_ptr<Enclave> launch_enclave(EnclaveImage image) {
    return std::make_unique<Enclave>(*this, std::move(image));
  }

  /// Quote generation (EPID signing by the quoting enclave); charges the
  /// calibrated latency. Throws if the platform was built unprovisioned.
  [[nodiscard]] Quote quote(const Report& report,
                            const std::array<std::uint8_t, 16>& nonce);

 private:
  std::string name_;
  TeeMode mode_;
  CostModel model_;
  unsigned cores_;
  SimClock clock_;
  SimClock* active_clock_ = &clock_;
  EpcManager epc_;
  std::unique_ptr<QuotingEnclave> quoting_enclave_;
};

/// Baseline environment for Native mode: charges DRAM + compute time only.
class NativeEnv final : public MemoryEnv {
 public:
  NativeEnv(const CostModel& model, SimClock& clock)
      : model_(model), clock_(&clock) {}

  std::uint64_t alloc(std::string_view, std::uint64_t) override {
    return next_id_++;
  }
  void release(std::uint64_t) override {}
  void access(std::uint64_t, std::uint64_t, std::uint64_t len, bool) override {
    obs::ScopedCategory attribution(obs::Category::kCompute);
    clock_->advance(model_.dram_ns(len));
  }
  void compute(double flops) override {
    obs::ScopedCategory attribution(obs::Category::kCompute);
    clock_->advance(model_.compute_ns(flops));
  }
  void compute_int8(double ops) override {
    obs::ScopedCategory attribution(obs::Category::kCompute);
    clock_->advance(model_.int8_compute_ns(ops));
  }
  void gpu_compute(double flops) override {
    obs::ScopedCategory attribution(obs::Category::kGpu);
    clock_->advance(model_.gpu_compute_ns(flops));
  }
  void pcie_transfer(std::uint64_t bytes) override {
    obs::ScopedCategory attribution(obs::Category::kPcie);
    clock_->advance(model_.pcie_ns(bytes));
  }
  [[nodiscard]] std::uint64_t now_ns() const override {
    return clock_->now_ns();
  }

 private:
  const CostModel& model_;
  SimClock* clock_;
  std::uint64_t next_id_ = 1;
};

}  // namespace stf::tee
