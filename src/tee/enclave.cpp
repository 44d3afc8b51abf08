#include "tee/enclave.h"

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "tee/platform.h"

namespace stf::tee {

Measurement EnclaveImage::measure() const {
  // The instance name is deployment metadata, not part of the measured
  // image: every container built from the same binary + attributes must
  // produce the same MRENCLAVE (that is what makes elastic scale-out work
  // with a single CAS policy).
  crypto::Sha256 h;
  h.update(content);
  std::uint8_t attr[3] = {static_cast<std::uint8_t>(attributes.debug ? 1 : 0),
                          static_cast<std::uint8_t>(attributes.isv_svn >> 8),
                          static_cast<std::uint8_t>(attributes.isv_svn)};
  h.update(crypto::BytesView(attr, sizeof attr));
  return h.finish();
}

Enclave::Enclave(Platform& platform, EnclaveImage image)
    : platform_(platform), image_(std::move(image)) {
  mrenclave_ = image_.measure();
  // The loaded binary occupies EPC for the enclave's lifetime; fault it in
  // now (EADD copies every page through the MEE).
  binary_region_ =
      platform_.epc().map_region(image_.name + "/binary", image_.binary_bytes);
  platform_.epc().access_all(binary_region_, /*write=*/true, platform_.clock());
  obs::counter<obs::names::kEnclaveLaunches>().add();
}

Enclave::~Enclave() { platform_.epc().unmap_region(binary_region_); }

TeeMode Enclave::mode() const { return platform_.mode(); }

Report Enclave::create_report(
    const std::array<std::uint8_t, 64>& report_data) const {
  Report r;
  r.mrenclave = mrenclave_;
  r.mrsigner = image_.signer;
  r.attributes = image_.attributes;
  r.report_data = report_data;
  return r;
}

RegionId Enclave::alloc(std::string_view label, std::uint64_t bytes) {
  return platform_.epc().map_region(image_.name + "/" + std::string(label),
                                    bytes);
}

void Enclave::release(RegionId id) {
  platform_.epc().unmap_region(id);
}

void Enclave::access(RegionId id, std::uint64_t offset, std::uint64_t len,
                     bool write) {
  // Baseline DRAM traffic cost applies in every mode; the EPC manager adds
  // MEE and paging costs in Hardware mode (attributed to epc_paging by the
  // manager itself).
  {
    obs::ScopedCategory attribution(obs::Category::kCompute);
    platform_.clock().advance(platform_.model().dram_ns(len));
  }
  platform_.epc().access(id, offset, len, write, platform_.clock());
}

void Enclave::compute(double flops) {
  const CostModel& m = platform_.model();
  obs::ScopedCategory attribution(obs::Category::kCompute);
  // Base compute, inflated by the SCONE runtime overhead for this container.
  platform_.clock().advance(static_cast<std::uint64_t>(
      static_cast<double>(m.compute_ns(flops)) * runtime_overhead_));
  // In HW mode every cache miss of the kernels crosses the MEE; the traffic
  // is proportional to the arithmetic with a workload-specific intensity.
  if (platform_.mode() == TeeMode::Hardware) {
    const double bpf = bytes_per_flop_ >= 0 ? bytes_per_flop_
                                            : m.compute_bytes_per_flop;
    platform_.clock().advance(static_cast<std::uint64_t>(
        flops * bpf * m.mee_overhead_per_byte_ns));
  }
}

void Enclave::compute_int8(double ops) {
  const CostModel& m = platform_.model();
  obs::ScopedCategory attribution(obs::Category::kCompute);
  platform_.clock().advance(static_cast<std::uint64_t>(
      static_cast<double>(m.int8_compute_ns(ops)) * runtime_overhead_));
  // Same MEE model as compute(), with 1-byte operands: a quarter of the
  // per-op traffic crosses the encryption engine.
  if (platform_.mode() == TeeMode::Hardware) {
    const double bpf = bytes_per_flop_ >= 0 ? bytes_per_flop_
                                            : m.compute_bytes_per_flop;
    platform_.clock().advance(static_cast<std::uint64_t>(
        ops * (bpf / m.int8_ops_multiple) * m.mee_overhead_per_byte_ns));
  }
}

void Enclave::gpu_compute(double flops) {
  // Offloaded work executes outside the TEE: no SCONE runtime multiplier,
  // no MEE traffic — the untrusted accelerator runs at its native rate.
  obs::ScopedCategory attribution(obs::Category::kGpu);
  platform_.clock().advance(platform_.model().gpu_compute_ns(flops));
}

void Enclave::pcie_transfer(std::uint64_t bytes) {
  obs::ScopedCategory attribution(obs::Category::kPcie);
  platform_.clock().advance(platform_.model().pcie_ns(bytes));
}

void Enclave::prefetch(RegionId id, std::uint64_t offset,
                       std::uint64_t len) {
  platform_.epc().prefetch(id, offset, len, platform_.clock());
}

void Enclave::advise_evict(RegionId id, std::uint64_t offset,
                           std::uint64_t len) {
  platform_.epc().advise_evict(id, offset, len, platform_.clock());
}

void Enclave::pin(RegionId id) { platform_.epc().pin(id); }

void Enclave::unpin(RegionId id) { platform_.epc().unpin(id); }

void Enclave::touch_binary(double fraction) {
  const std::uint64_t bytes = static_cast<std::uint64_t>(
      static_cast<double>(image_.binary_bytes) * std::min(1.0, fraction));
  platform_.epc().access(binary_region_, 0, bytes, /*write=*/false,
                         platform_.clock());
}

void Enclave::charge_transition() {
  obs::ScopedCategory attribution(obs::Category::kTransition);
  const std::uint64_t start = platform_.clock().now_ns();
  platform_.clock().advance(platform_.model().transition_ns);
  obs::counter<obs::names::kEnclaveTransitions>().add();
  obs::SpanTracer::global().record(
      obs::span_id<obs::names::kSpanEnclaveTransition>(), start,
      platform_.clock().now_ns());
}

void Enclave::syscall(std::uint64_t bytes_copied, bool asynchronous) {
  ++syscall_count_;
  obs::counter<obs::names::kEnclaveSyscalls>().add();
  obs::counter<obs::names::kEnclaveSyscallBytes>().add(bytes_copied);
  const CostModel& m = platform_.model();
  SimClock& clock = platform_.clock();
  if (asynchronous) {
    // SCONE exit-less syscall: the request crosses a shared queue; an
    // outside thread runs the kernel part while the enclave thread yields.
    obs::ScopedCategory attribution(obs::Category::kSyscall);
    clock.advance(m.async_syscall_ns + m.syscall_kernel_ns);
  } else {
    // The EENTER/EEXIT pair is a transition cost even when a syscall
    // triggers it; only the kernel part is syscall time. The split leaves
    // the total unchanged.
    {
      obs::ScopedCategory attribution(obs::Category::kTransition);
      clock.advance(m.transition_ns);
    }
    obs::ScopedCategory attribution(obs::Category::kSyscall);
    clock.advance(m.syscall_kernel_ns);
  }
  // Arguments/results are copied across the enclave boundary.
  obs::ScopedCategory attribution(obs::Category::kSyscall);
  clock.advance(m.dram_ns(bytes_copied));
}

void Enclave::charge_uthread_switch() {
  obs::ScopedCategory attribution(obs::Category::kTransition);
  platform_.clock().advance(platform_.model().uthread_switch_ns);
}

std::uint64_t Enclave::now_ns() const { return platform_.clock().now_ns(); }

}  // namespace stf::tee
