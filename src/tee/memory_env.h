// Memory/compute environment abstraction.
//
// The ML executor (stf::ml) is agnostic to where it runs: natively, inside a
// simulated SGX enclave in SIM mode, or in HW mode. It reports its memory
// traffic and arithmetic through this interface; the concrete environment
// decides what those cost. This is the single integration point between the
// workload and the TEE cost simulation.
#pragma once

#include <cstdint>
#include <string_view>

namespace stf::tee {

class MemoryEnv {
 public:
  virtual ~MemoryEnv() = default;

  /// Registers a buffer of `bytes`; returns a region handle.
  virtual std::uint64_t alloc(std::string_view label, std::uint64_t bytes) = 0;

  /// Releases a region handle obtained from alloc().
  virtual void release(std::uint64_t region) = 0;

  /// Reports an access to [offset, offset+len) of a region.
  virtual void access(std::uint64_t region, std::uint64_t offset,
                      std::uint64_t len, bool write) = 0;

  /// Reports `flops` floating-point operations of compute.
  virtual void compute(double flops) = 0;

  /// Reports `ops` int8 integer operations (MACs + requantization, see
  /// docs/QUANTIZATION.md). The default treats them as float ops so
  /// environments without an int8 cost model stay correct.
  virtual void compute_int8(double ops) { compute(ops); }

  // --- Slalom GPU offload (docs/GPU_OFFLOAD.md) --------------------------
  // Defaults are no-ops: environments without an accelerator cost model
  // (plain test fakes) never bill offloaded work. Platform environments
  // charge the cost model's GPU/PCIe rates under profile.gpu/profile.pcie —
  // no enclave runtime overhead, no MEE traffic: the work happens outside
  // the TEE, which is the whole point of offloading.

  /// Reports `flops` executed on the untrusted accelerator.
  virtual void gpu_compute(double flops) { (void)flops; }

  /// Reports `bytes` moved across the host<->GPU interconnect.
  virtual void pcie_transfer(std::uint64_t bytes) { (void)bytes; }

  // --- EPC-aware streaming hints (docs/MEMORY_PLANNER.md) ----------------
  // Default no-ops: environments without an EPC boundary (native DRAM, SIM
  // mode) ignore residency hints, so planner/streaming code never needs to
  // know where it runs.

  /// Hints that [offset, offset+len) will be read soon; an enclave
  /// environment faults those pages in ahead of use at overlapped cost.
  virtual void prefetch(std::uint64_t region, std::uint64_t offset,
                        std::uint64_t len) {
    (void)region;
    (void)offset;
    (void)len;
  }

  /// Hints that [offset, offset+len) will not be reused soon; an enclave
  /// environment evicts those pages off the critical path.
  virtual void advise_evict(std::uint64_t region, std::uint64_t offset,
                            std::uint64_t len) {
    (void)region;
    (void)offset;
    (void)len;
  }

  /// Exempts / re-admits a region's pages from victim selection.
  virtual void pin(std::uint64_t region) { (void)region; }
  virtual void unpin(std::uint64_t region) { (void)region; }

  /// Current virtual time of the clock this environment charges into, for
  /// observability (span endpoints). Environments without a clock return 0;
  /// callers must treat 0-duration spans as "no timing available" and skip
  /// recording them.
  [[nodiscard]] virtual std::uint64_t now_ns() const { return 0; }
};

}  // namespace stf::tee
