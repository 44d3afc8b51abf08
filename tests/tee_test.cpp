// Tests for the TEE simulator: EPC paging behaviour, enclave measurement,
// transitions/syscall accounting, and attestation quotes.
#include <gtest/gtest.h>

#include "tee/attestation.h"
#include "tee/cost_model.h"
#include "tee/enclave.h"
#include "tee/epc.h"
#include "tee/platform.h"
#include "tee/sim_clock.h"

namespace stf::tee {
namespace {

CostModel tiny_epc_model() {
  CostModel m;
  m.epc_bytes = 16 * m.page_size;  // 16-page EPC: paging is easy to trigger
  return m;
}

TEST(SimClockTest, AdvanceAndJump) {
  SimClock c;
  EXPECT_EQ(c.now_ns(), 0u);
  c.advance(1500);
  EXPECT_EQ(c.now_ns(), 1500u);
  c.advance_to(1000);  // cannot go backwards
  EXPECT_EQ(c.now_ns(), 1500u);
  c.advance_to(9000);
  EXPECT_EQ(c.now_ns(), 9000u);
  EXPECT_DOUBLE_EQ(c.now_ms(), 0.009);
}

TEST(SimClockTest, Stopwatch) {
  SimClock c;
  SimStopwatch w(c);
  c.advance(2'000'000);
  EXPECT_EQ(w.elapsed_ns(), 2'000'000u);
  EXPECT_DOUBLE_EQ(w.elapsed_ms(), 2.0);
}

TEST(EpcTest, FirstTouchFaultsEveryPage) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, /*limited=*/true);
  SimClock clock;
  const auto region = epc.map_region("weights", 8 * m.page_size);
  epc.access_all(region, false, clock);
  EXPECT_EQ(epc.stats().faults, 8u);
  EXPECT_EQ(epc.stats().loads, 8u);
  EXPECT_EQ(epc.stats().evictions, 0u);
  EXPECT_EQ(epc.resident_pages(), 8u);
}

TEST(EpcTest, ResidentAccessIsFree) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, true);
  SimClock clock;
  const auto region = epc.map_region("weights", 8 * m.page_size);
  epc.access_all(region, false, clock);
  const auto faults_before = epc.stats().faults;
  const auto t0 = clock.now_ns();
  epc.access(region, 0, m.page_size, false, clock);
  EXPECT_EQ(epc.stats().faults, faults_before);
  // Only the MEE per-byte cost applies, no fault/load latency.
  EXPECT_LT(clock.now_ns() - t0, m.page_fault_ns);
}

TEST(EpcTest, WorkingSetBeyondCapacityThrashes) {
  const CostModel m = tiny_epc_model();  // 16 pages
  EpcManager epc(m, true);
  SimClock clock;
  const auto big = epc.map_region("model", 32 * m.page_size);
  epc.access_all(big, false, clock);   // streams through: 32 faults, 16 evicts
  EXPECT_EQ(epc.stats().faults, 32u);
  EXPECT_EQ(epc.stats().evictions, 16u);
  EXPECT_EQ(epc.resident_pages(), 16u);
  // Second sweep faults again: only part of the region survived reclaim.
  epc.access_all(big, false, clock);
  EXPECT_GT(epc.stats().faults, 32u);
}

TEST(EpcTest, LruKeepsHotPagesUnderPressure) {
  const CostModel m = tiny_epc_model();  // 16 pages
  EpcManager epc(m, true);
  SimClock clock;
  const auto hot = epc.map_region("hot", 4 * m.page_size);
  const auto cold = epc.map_region("cold", 64 * m.page_size);
  epc.access_all(hot, false, clock);
  // Stream the cold region while re-touching hot pages to keep them fresh.
  for (std::uint64_t page = 0; page < 64; ++page) {
    epc.access(cold, page * m.page_size, m.page_size, false, clock);
    epc.access(hot, 0, 4 * m.page_size, false, clock);
  }
  epc.reset_stats();
  epc.access_all(hot, false, clock);
  EXPECT_EQ(epc.stats().faults, 0u) << "hot pages must have survived";
}

TEST(EpcTest, UnlimitedModeNeverFaults) {
  CostModel m = tiny_epc_model();
  EpcManager epc(m, /*limited=*/false);
  SimClock clock;
  const auto region = epc.map_region("big", 1000 * m.page_size);
  epc.access_all(region, true, clock);
  EXPECT_EQ(epc.stats().faults, 0u);
  EXPECT_EQ(clock.now_ns(), 0u);  // no MEE cost in SIM mode either
}

TEST(EpcTest, UnmapFreesResidency) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, true);
  SimClock clock;
  const auto a = epc.map_region("a", 10 * m.page_size);
  epc.access_all(a, true, clock);
  EXPECT_EQ(epc.resident_pages(), 10u);
  epc.unmap_region(a);
  EXPECT_EQ(epc.resident_pages(), 0u);
  // Freed pages can be reused without evictions.
  const auto b = epc.map_region("b", 16 * m.page_size);
  epc.reset_stats();
  epc.access_all(b, true, clock);
  EXPECT_EQ(epc.stats().evictions, 0u);
}

TEST(EpcTest, RejectsOutOfRangeAndUnmapped) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, true);
  SimClock clock;
  const auto region = epc.map_region("r", m.page_size);
  EXPECT_THROW(epc.access(region, 0, 2 * m.page_size + 1, false, clock),
               std::out_of_range);
  EXPECT_THROW(epc.access(424242, 0, 1, false, clock), std::invalid_argument);
}

TEST(EpcTest, ZeroLengthAccessIsNoop) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, true);
  SimClock clock;
  const auto region = epc.map_region("r", m.page_size);
  epc.access(region, 0, 0, false, clock);
  EXPECT_EQ(epc.stats().faults, 0u);
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(EpcTest, PrefetchAvoidsDemandFaults) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, /*limited=*/true);
  SimClock clock;
  const auto region = epc.map_region("weights", 8 * m.page_size);
  const auto t0 = clock.now_ns();
  epc.prefetch(region, 0, 8 * m.page_size, clock);
  EXPECT_EQ(epc.stats().prefetches, 1u);
  EXPECT_EQ(epc.stats().prefetched_pages, 8u);
  EXPECT_EQ(epc.stats().faults, 0u) << "prefetched pages are not demand faults";
  EXPECT_EQ(epc.stats().loads, 0u);
  EXPECT_EQ(epc.resident_pages(), 8u);
  // Overlapped cost: the cheap per-page prefetch charge, not fault + load.
  EXPECT_EQ(clock.now_ns() - t0, 8 * m.page_prefetch_ns);
  EXPECT_LT(m.page_prefetch_ns, m.page_fault_ns + m.page_load_ns);

  // The later demand access finds everything resident: zero faults, and a
  // fully-prefetched region re-prefetches for free.
  epc.access_all(region, false, clock);
  EXPECT_EQ(epc.stats().faults, 0u);
  epc.prefetch(region, 0, 8 * m.page_size, clock);
  EXPECT_EQ(epc.stats().prefetches, 1u)
      << "a no-op prefetch must not count as a prefetch batch";
}

TEST(EpcTest, AdviseEvictRetiresPagesOffCriticalPath) {
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, true);
  SimClock clock;
  const auto region = epc.map_region("layer", 6 * m.page_size);
  epc.access_all(region, true, clock);
  EXPECT_EQ(epc.resident_pages(), 6u);

  const auto t0 = clock.now_ns();
  epc.advise_evict(region, 0, 6 * m.page_size, clock);
  EXPECT_EQ(epc.resident_pages(), 0u);
  EXPECT_EQ(epc.stats().advised_evictions, 6u);
  EXPECT_EQ(epc.stats().evictions, 0u)
      << "advised evictions must not count as demand evictions";
  EXPECT_EQ(clock.now_ns() - t0, 6 * m.page_advise_evict_ns);
  EXPECT_LT(m.page_advise_evict_ns, m.page_evict_ns);

  // Evicted pages fault again on the next touch.
  const auto faults_before = epc.stats().faults;
  epc.access(region, 0, m.page_size, false, clock);
  EXPECT_EQ(epc.stats().faults, faults_before + 1);
}

TEST(EpcTest, PinnedRegionSurvivesPressure) {
  const CostModel m = tiny_epc_model();  // 16 pages
  EpcManager epc(m, true);
  SimClock clock;
  const auto hot = epc.map_region("hot", 4 * m.page_size);
  epc.access_all(hot, true, clock);
  epc.pin(hot);

  // Sweep a working set larger than the EPC: pressure evicts something every
  // pass, but never the pinned pages.
  const auto big = epc.map_region("big", 14 * m.page_size);
  for (int pass = 0; pass < 4; ++pass) epc.access_all(big, false, clock);
  EXPECT_GT(epc.stats().evictions, 0u);
  const auto faults_before = epc.stats().faults;
  epc.access_all(hot, false, clock);
  EXPECT_EQ(epc.stats().faults, faults_before)
      << "pinned pages must stay resident under pressure";

  // Pinned pages also refuse advise_evict; unpinning re-admits them.
  epc.advise_evict(hot, 0, 4 * m.page_size, clock);
  EXPECT_EQ(epc.stats().advised_evictions, 0u);
  epc.unpin(hot);
  epc.advise_evict(hot, 0, 4 * m.page_size, clock);
  EXPECT_EQ(epc.stats().advised_evictions, 4u);
}

TEST(EpcTest, FullyPinnedEpcThrowsInsteadOfLooping) {
  const CostModel m = tiny_epc_model();  // 16 pages
  EpcManager epc(m, true);
  SimClock clock;
  const auto pinned = epc.map_region("pinned", 16 * m.page_size);
  epc.access_all(pinned, true, clock);
  epc.pin(pinned);
  const auto extra = epc.map_region("extra", m.page_size);
  EXPECT_THROW(epc.access_all(extra, false, clock), std::logic_error);
}

TEST(EpcTest, RegionCacheSurvivesInterleavingAndUnmap) {
  // The access() fast path caches the last region lookup; interleaved
  // traffic and unmapping must never read through a stale cache entry.
  const CostModel m = tiny_epc_model();
  EpcManager epc(m, true);
  SimClock clock;
  const auto a = epc.map_region("a", 4 * m.page_size);
  const auto b = epc.map_region("b", 4 * m.page_size);
  for (int i = 0; i < 3; ++i) {
    epc.access(a, 0, m.page_size, false, clock);
    epc.access(b, 0, m.page_size, false, clock);
  }
  EXPECT_EQ(epc.stats().faults, 2u);  // one cold touch per region
  epc.unmap_region(a);
  EXPECT_THROW(epc.access(a, 0, 1, false, clock), std::invalid_argument);
  epc.access(b, 0, m.page_size, false, clock);  // b keeps working
  epc.prefetch(b, m.page_size, m.page_size, clock);
  EXPECT_EQ(epc.stats().prefetched_pages, 1u);
}

TEST(EpcTest, StreamingHintsAreNoopsWithoutEpcBoundary) {
  CostModel m = tiny_epc_model();
  EpcManager epc(m, /*limited=*/false);  // SIM mode
  SimClock clock;
  const auto region = epc.map_region("r", 8 * m.page_size);
  epc.prefetch(region, 0, 8 * m.page_size, clock);
  epc.advise_evict(region, 0, 8 * m.page_size, clock);
  EXPECT_EQ(epc.stats().prefetches, 0u);
  EXPECT_EQ(epc.stats().advised_evictions, 0u);
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(EnclaveTest, MeasurementDependsOnContent) {
  EnclaveImage a{.name = "tf-lite", .content = crypto::to_bytes("code-v1")};
  EnclaveImage b = a;
  b.content = crypto::to_bytes("code-v2");
  EXPECT_NE(a.measure(), b.measure());
  EnclaveImage c = a;
  c.attributes.debug = true;
  EXPECT_NE(a.measure(), c.measure()) << "debug attribute must be measured";
  EXPECT_EQ(a.measure(), EnclaveImage(a).measure());
}

TEST(EnclaveTest, BinaryOccupiesEpc) {
  const CostModel m = tiny_epc_model();  // 16 pages
  Platform platform("node0", TeeMode::Hardware, m);
  EnclaveImage image{.name = "svc",
                     .content = crypto::to_bytes("binary"),
                     .binary_bytes = 12 * m.page_size};
  auto enclave = platform.launch_enclave(std::move(image));
  EXPECT_EQ(platform.epc().resident_pages(), 12u);
  // Only 4 pages remain: a 8-page working set must thrash.
  const auto region = enclave->alloc("heap", 8 * m.page_size);
  platform.epc().reset_stats();
  enclave->access(region, 0, 8 * m.page_size, true);
  EXPECT_GT(platform.epc().stats().evictions, 0u);
}

TEST(EnclaveTest, AsyncSyscallCheaperThanSync) {
  Platform p("node0", TeeMode::Hardware, CostModel{});
  auto e = p.launch_enclave({.name = "svc", .binary_bytes = 4096});
  const auto t0 = p.clock().now_ns();
  e->syscall(0, /*asynchronous=*/false);
  const auto sync_cost = p.clock().now_ns() - t0;
  const auto t1 = p.clock().now_ns();
  e->syscall(0, /*asynchronous=*/true);
  const auto async_cost = p.clock().now_ns() - t1;
  EXPECT_LT(async_cost, sync_cost);
  EXPECT_EQ(e->syscall_count(), 2u);
}

TEST(AttestationTest, QuoteVerifies) {
  ProvisioningAuthority authority;
  Platform platform("node0", TeeMode::Hardware, CostModel{}, authority);
  auto enclave = platform.launch_enclave(
      {.name = "worker", .content = crypto::to_bytes("tf"), .binary_bytes = 4096});
  std::array<std::uint8_t, 64> report_data{};
  report_data[0] = 0xab;
  std::array<std::uint8_t, 16> nonce{};
  nonce[15] = 7;
  const auto quote = platform.quote(enclave->create_report(report_data), nonce);
  EXPECT_TRUE(authority.verify(quote, nonce));
}

TEST(AttestationTest, TamperedReportRejected) {
  ProvisioningAuthority authority;
  Platform platform("node0", TeeMode::Hardware, CostModel{}, authority);
  auto enclave = platform.launch_enclave(
      {.name = "worker", .content = crypto::to_bytes("tf"), .binary_bytes = 4096});
  std::array<std::uint8_t, 16> nonce{};
  auto quote = platform.quote(enclave->create_report({}), nonce);
  quote.report.mrenclave[0] ^= 1;  // attacker swaps the measurement
  EXPECT_FALSE(authority.verify(quote, nonce));
}

TEST(AttestationTest, WrongNonceRejected) {
  ProvisioningAuthority authority;
  Platform platform("node0", TeeMode::Hardware, CostModel{}, authority);
  auto enclave = platform.launch_enclave({.name = "w", .binary_bytes = 4096});
  std::array<std::uint8_t, 16> nonce{}, other{};
  other[0] = 1;
  const auto quote = platform.quote(enclave->create_report({}), nonce);
  EXPECT_FALSE(authority.verify(quote, other)) << "replayed quote must fail";
}

TEST(AttestationTest, UnknownPlatformRejected) {
  ProvisioningAuthority authority;
  Platform rogue("rogue", TeeMode::Hardware, CostModel{});  // unprovisioned
  ProvisioningAuthority other_authority;
  Platform foreign("node1", TeeMode::Hardware, CostModel{}, other_authority);
  auto enclave = foreign.launch_enclave({.name = "w", .binary_bytes = 4096});
  std::array<std::uint8_t, 16> nonce{};
  const auto quote = foreign.quote(enclave->create_report({}), nonce);
  EXPECT_FALSE(authority.verify(quote, nonce));
  EXPECT_THROW((void)rogue.quote(enclave->create_report({}), nonce),
               std::logic_error);
}

TEST(PlatformTest, LaneRetargeting) {
  Platform p("node0", TeeMode::Hardware, CostModel{});
  SimClock lane;
  p.set_active_lane(&lane);
  p.clock().advance(500);
  EXPECT_EQ(lane.now_ns(), 500u);
  EXPECT_EQ(p.base_clock().now_ns(), 0u);
  p.set_active_lane(nullptr);
  p.clock().advance(300);
  EXPECT_EQ(p.base_clock().now_ns(), 300u);
}

TEST(CostModelTest, DerivedHelpers) {
  CostModel m;
  EXPECT_EQ(m.compute_ns(m.flops_per_second), 1'000'000'000u);
  EXPECT_EQ(m.dram_ns(static_cast<std::uint64_t>(m.dram_bandwidth)),
            1'000'000'000u);
  EXPECT_GT(m.wan_transfer_ns(1), m.lan_transfer_ns(1));
  EXPECT_EQ(m.epc_pages(), m.epc_bytes / m.page_size);
}

}  // namespace
}  // namespace stf::tee

// Appended coverage: cost-model knobs introduced during calibration.
namespace stf::tee {
namespace {

TEST(EnclaveKnobTest, RuntimeOverheadScalesCompute) {
  Platform p1("a", TeeMode::Simulation, CostModel{});
  Platform p2("b", TeeMode::Simulation, CostModel{});
  auto e1 = p1.launch_enclave({.name = "s", .binary_bytes = 4096});
  auto e2 = p2.launch_enclave({.name = "s", .binary_bytes = 4096});
  e1->set_runtime_overhead(1.0);
  e2->set_runtime_overhead(2.0);
  const auto t1 = p1.clock().now_ns();
  e1->compute(1e9);
  const auto c1 = p1.clock().now_ns() - t1;
  const auto t2 = p2.clock().now_ns();
  e2->compute(1e9);
  const auto c2 = p2.clock().now_ns() - t2;
  EXPECT_NEAR(static_cast<double>(c2) / static_cast<double>(c1), 2.0, 0.01);
}

TEST(EnclaveKnobTest, MeeTrafficChargedOnlyInHardware) {
  CostModel m;
  Platform hw("hw", TeeMode::Hardware, m);
  Platform sim("sim", TeeMode::Simulation, m);
  auto e_hw = hw.launch_enclave({.name = "s", .binary_bytes = 4096});
  auto e_sim = sim.launch_enclave({.name = "s", .binary_bytes = 4096});
  e_hw->set_runtime_overhead(1.0);
  e_sim->set_runtime_overhead(1.0);
  e_hw->set_compute_bytes_per_flop(1.0);
  e_sim->set_compute_bytes_per_flop(1.0);
  const auto h0 = hw.clock().now_ns();
  e_hw->compute(1e9);
  const auto hw_cost = hw.clock().now_ns() - h0;
  const auto s0 = sim.clock().now_ns();
  e_sim->compute(1e9);
  const auto sim_cost = sim.clock().now_ns() - s0;
  EXPECT_GT(hw_cost, sim_cost) << "HW compute pays MEE traffic";
  EXPECT_NEAR(static_cast<double>(hw_cost - sim_cost),
              1e9 * m.mee_overhead_per_byte_ns, 1e9 * 0.01);
}

TEST(EnclaveKnobTest, TouchBinaryFractionTouchesPrefix) {
  CostModel m;
  m.epc_bytes = 64 * m.page_size;
  Platform p("n", TeeMode::Hardware, m);
  auto e = p.launch_enclave({.name = "s", .binary_bytes = 40 * m.page_size});
  // Launch faulted all 40 pages; map a cold region to displace half of them.
  const auto cold = e->alloc("cold", 48 * m.page_size);
  e->access(cold, 0, 48 * m.page_size, true);
  p.epc().reset_stats();
  e->touch_binary(0.25);  // 10 pages; some will refault
  EXPECT_LE(p.epc().stats().faults, 10u)
      << "a fractional touch must not touch more than its prefix";
}

TEST(EnclaveKnobTest, SimClockSetNsRewinds) {
  SimClock c;
  c.advance(1000);
  c.set_ns(100);
  EXPECT_EQ(c.now_ns(), 100u);
  c.advance_to(50);  // advance_to still refuses to rewind
  EXPECT_EQ(c.now_ns(), 100u);
}

}  // namespace
}  // namespace stf::tee
