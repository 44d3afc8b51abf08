// Enclave Page Cache (EPC) simulator.
//
// SGXv1 exposes ~94 MB of protected memory; when an enclave's working set
// exceeds it, the kernel evicts pages (EWB: encrypt + version-tree update)
// and reloads them on demand (ELDU: decrypt + integrity check). That paging
// traffic is the single biggest performance effect in the paper: it is why
// TF-Lite beats full TF by 71x inside enclaves, why HW mode stops scaling at
// 8 cores, and why secureTF beats Graphene once models outgrow the EPC.
//
// This manager tracks page residency per region with a randomized-victim
// reclaim policy (modeling the kernel's imprecise accessed-bit scanning) and
// charges the calibrated per-page costs into a SimClock. The MEE itself is
// hardware, invisible to software, so its work is *modeled* (cost-only);
// software-visible crypto (the shields) is implemented for real elsewhere.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "tee/cost_model.h"
#include "tee/sim_clock.h"

namespace stf::tee {

using RegionId = std::uint64_t;

struct EpcStats {
  std::uint64_t faults = 0;       ///< page accesses that found the page absent
  std::uint64_t loads = 0;        ///< pages brought into EPC (ELDU)
  std::uint64_t evictions = 0;    ///< pages pushed out of EPC (EWB, on demand)
  std::uint64_t accesses = 0;     ///< access() calls
  std::uint64_t bytes_accessed = 0;
  std::uint64_t resident_pages = 0;
  std::uint64_t prefetches = 0;        ///< prefetch() calls
  std::uint64_t prefetched_pages = 0;  ///< pages loaded ahead of use
  std::uint64_t advised_evictions = 0; ///< pages evicted off the critical path
};

class EpcManager {
 public:
  /// `limited` is false in Simulation mode: the runtime is active but there
  /// is no EPC boundary, so pages never fault (paper's SIM semantics).
  EpcManager(const CostModel& model, bool limited);
  /// The resident list points into this manager's own regions.
  EpcManager(const EpcManager&) = delete;
  EpcManager& operator=(const EpcManager&) = delete;

  /// Registers a memory region of `bytes` (rounded up to whole pages).
  /// Pages start non-resident; first touch faults them in.
  RegionId map_region(std::string label, std::uint64_t bytes);

  /// Releases a region; its resident pages leave the EPC for free (EREMOVE).
  void unmap_region(RegionId id);

  /// Simulates enclave accesses to [offset, offset+len) of a region and
  /// charges fault/load/eviction costs to `clock`. `write` marks dirtiness
  /// (dirty evictions are the common case; clean pages still pay EWB in SGX,
  /// so the model charges evictions uniformly).
  void access(RegionId id, std::uint64_t offset, std::uint64_t len, bool write,
              SimClock& clock);

  /// Touches an entire region (e.g. initial load of a model file).
  void access_all(RegionId id, bool write, SimClock& clock);

  // --- EPC-aware streaming (docs/MEMORY_PLANNER.md) ----------------------

  /// Faults the pages of [offset, offset+len) in *ahead of use*: the ELDU
  /// work overlaps enclave compute via the async-syscall-queue analog, so
  /// each page charges the cheap `page_prefetch_ns` instead of the demand
  /// fault + load pair. Already-resident pages are free. Demand evictions
  /// still occur (and are counted) when the EPC is full. No-op when the
  /// EPC is unlimited (SIM mode).
  void prefetch(RegionId id, std::uint64_t offset, std::uint64_t len,
                SimClock& clock);

  /// Proactively evicts the resident pages of [offset, offset+len), paying
  /// only the async enqueue cost per page (the EWB runs off the critical
  /// path). Counted as `advised_evictions`, *not* as demand `evictions`.
  /// Pinned regions and unlimited EPCs are no-ops.
  void advise_evict(RegionId id, std::uint64_t offset, std::uint64_t len,
                    SimClock& clock);

  /// Exempts a region's pages from victim selection (both demand eviction
  /// and advise_evict). Throws std::logic_error if an access later finds
  /// the EPC full with nothing evictable.
  void pin(RegionId id);
  void unpin(RegionId id);

  /// Per-instance view of this manager's activity. The same events also
  /// feed the process-wide obs::Registry (tee.epc.* series, aggregated
  /// across all managers); see docs/METRICS.md.
  [[nodiscard]] const EpcStats& stats() const { return stats_; }

  /// Starts a new measurement epoch for the *flow* fields (faults, loads,
  /// evictions, accesses, bytes_accessed → zero) while re-seeding the one
  /// *level* field (resident_pages) from live residency — pages do not
  /// leave the EPC because an observer reset a window. Mirrors
  /// obs::Registry::reset() semantics: counters zero, gauges persist.
  /// (The global tee.epc.* registry series are intentionally untouched:
  /// per-instance windows and the process-wide plane reset independently.)
  void reset_stats() {
    stats_ = EpcStats{};
    stats_.resident_pages = resident_count_;
  }

  [[nodiscard]] std::uint64_t capacity_pages() const { return capacity_pages_; }
  [[nodiscard]] std::uint64_t resident_pages() const { return resident_count_; }
  [[nodiscard]] std::uint64_t mapped_bytes() const { return mapped_bytes_; }
  [[nodiscard]] bool limited() const { return limited_; }

 private:
  struct Page {
    bool resident = false;
    std::uint32_t resident_pos = 0;  // index into resident_list_
  };
  struct Region {
    std::string label;
    std::uint64_t bytes = 0;
    std::vector<Page> pages;
    std::uint64_t resident = 0;  // fast path: fully-resident regions skip scan
    bool pinned = false;         // exempt from victim selection
  };

  Region& find_region(RegionId id);
  void fault_in(Region& region, std::uint32_t page_index, SimClock& clock);
  void evict_one(SimClock& clock);
  /// The one way into the EPC: evicts while it is full, then appends the
  /// page to the resident list.
  void make_resident(Region& region, std::uint32_t page_index,
                     SimClock& clock);
  /// The one way out: swap-removes the page from the resident list.
  void drop_resident(Region& region, std::uint32_t page_index);
  /// Adds unpublished_ to the tee.epc.* registry series and clears it.
  void publish();
  std::uint64_t next_random();

  const CostModel& model_;
  bool limited_;
  std::uint64_t capacity_pages_;
  std::uint64_t resident_count_ = 0;
  std::uint64_t mapped_bytes_ = 0;
  RegionId next_id_ = 1;
  std::unordered_map<RegionId, Region> regions_;
  // access()/prefetch() fast path: the executor touches the same region many
  // times in a row (weights, then the arena), so one cached (id, Region*)
  // pair removes the hash lookup from the hot path. Node pointers are stable
  // across rehash; the cache is dropped when its region is unmapped.
  RegionId cached_id_ = 0;
  Region* cached_region_ = nullptr;
  std::uint64_t pinned_resident_ = 0;  // resident pages in pinned regions
  // Resident pages in arbitrary order for O(1) random victim selection.
  // Real EPC reclaim scans accessed bits imprecisely; a randomized victim
  // models that and avoids the pathological 100%-miss cliff strict LRU shows
  // on cyclic scans marginally larger than the EPC. Each entry names its
  // region by node pointer, so no page costs a hash lookup: the pointers
  // stay valid until erase, and unmap_region() drops a region's pages from
  // the list before it erases the region.
  std::vector<std::pair<Region*, std::uint32_t>> resident_list_;
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;
  EpcStats stats_;
  // The page loops' registry deltas, published once at the end of each
  // access, prefetch, advise_evict and unmap_region (and before evict_one
  // throws): a relaxed atomic read-modify-write per page cost the event
  // loop as much as the bookkeeping itself. EpcStats, spans, Timeline
  // records and clock advances stay per page.
  struct Unpublished {
    std::int64_t resident = 0;
    std::uint64_t faults = 0, loads = 0, evictions = 0, advised_evictions = 0;
  } unpublished_;
};

}  // namespace stf::tee
