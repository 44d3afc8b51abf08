#include "tee/epc.h"

#include <stdexcept>

#include "obs/names.h"
#include "obs/profile.h"
#include "obs/timeline.h"

namespace stf::tee {

EpcManager::EpcManager(const CostModel& model, bool limited)
    : model_(model),
      limited_(limited),
      capacity_pages_(model.epc_pages()) {
  if (capacity_pages_ == 0) {
    throw std::invalid_argument("EpcManager: EPC must hold at least one page");
  }
}

std::uint64_t EpcManager::next_random() {
  // xorshift64: deterministic victim sampling, independent of any global RNG.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return rng_state_;
}

RegionId EpcManager::map_region(std::string label, std::uint64_t bytes) {
  const std::uint64_t page_count =
      (bytes + model_.page_size - 1) / model_.page_size;
  Region region;
  region.label = std::move(label);
  region.bytes = bytes;
  region.pages.resize(page_count);
  mapped_bytes_ += bytes;
  // The tee.epc.* gauges carry level deltas, so concurrent managers
  // aggregate instead of clobbering each other.
  obs::gauge<obs::names::kEpcMappedBytes>().add(
      static_cast<std::int64_t>(bytes));
  const RegionId id = next_id_++;
  regions_.emplace(id, std::move(region));
  return id;
}

EpcManager::Region& EpcManager::find_region(RegionId id) {
  if (id == cached_id_ && cached_region_ != nullptr) return *cached_region_;
  auto it = regions_.find(id);
  if (it == regions_.end()) {
    throw std::invalid_argument("EpcManager: access to unmapped region");
  }
  // unordered_map node pointers are stable until erase, so the cache stays
  // valid across map_region() rehashes; unmap_region() drops it.
  cached_id_ = id;
  cached_region_ = &it->second;
  return it->second;
}

void EpcManager::unmap_region(RegionId id) {
  auto it = regions_.find(id);
  if (it == regions_.end()) return;
  if (id == cached_id_) {
    cached_id_ = 0;
    cached_region_ = nullptr;
  }
  for (std::uint32_t p = 0; p < it->second.pages.size(); ++p) {
    if (it->second.pages[p].resident) drop_resident(it->second, p);
  }
  publish();
  stats_.resident_pages = resident_count_;
  mapped_bytes_ -= it->second.bytes;
  obs::gauge<obs::names::kEpcMappedBytes>().sub(
      static_cast<std::int64_t>(it->second.bytes));
  regions_.erase(it);
}

void EpcManager::drop_resident(Region& region, std::uint32_t page_index) {
  Page& page = region.pages[page_index];
  const std::uint32_t pos = page.resident_pos;
  page.resident = false;
  --region.resident;

  // Swap-remove, fixing the moved page's position.
  resident_list_[pos] = resident_list_.back();
  resident_list_.pop_back();
  if (pos < resident_list_.size()) {
    const auto [moved_region, moved_page] = resident_list_[pos];
    moved_region->pages[moved_page].resident_pos = pos;
  }

  --resident_count_;
  if (region.pinned) --pinned_resident_;
  --unpublished_.resident;
}

void EpcManager::publish() {
  const auto add = [](obs::Counter& counter, std::uint64_t n) {
    if (n != 0) counter.add(n);
  };
  if (unpublished_.resident != 0) {
    obs::gauge<obs::names::kEpcResidentPages>().add(unpublished_.resident);
  }
  add(obs::counter<obs::names::kEpcFaults>(), unpublished_.faults);
  add(obs::counter<obs::names::kEpcLoads>(), unpublished_.loads);
  add(obs::counter<obs::names::kEpcEvictions>(), unpublished_.evictions);
  add(obs::counter<obs::names::kEpcAdvisedEvictions>(),
      unpublished_.advised_evictions);
  unpublished_ = {};
}

void EpcManager::evict_one(SimClock& clock) {
  if (resident_list_.size() <= pinned_resident_) {
    publish();  // what this call changed before it got stuck
    throw std::logic_error("EpcManager: EPC full with no evictable page");
  }
  // Random victim, probing forward past pinned pages (the kernel's reclaim
  // scan skips EPCM-locked entries the same way).
  std::uint32_t pos = static_cast<std::uint32_t>(
      next_random() % resident_list_.size());
  while (resident_list_[pos].first->pinned) {
    pos = static_cast<std::uint32_t>((pos + 1) % resident_list_.size());
  }
  const auto [victim_region, victim_page] = resident_list_[pos];
  drop_resident(*victim_region, victim_page);

  ++stats_.evictions;
  ++unpublished_.evictions;
  const std::uint64_t start = clock.now_ns();
  clock.advance(model_.page_evict_ns);
  obs::SpanTracer::global().record(obs::span_id<obs::names::kSpanEpcEvict>(),
                                   start, clock.now_ns());
  obs::Timeline::global().record_epc_eviction(start, 1);
}

void EpcManager::fault_in(Region& region, std::uint32_t page_index,
                          SimClock& clock) {
  ++stats_.faults;
  ++unpublished_.faults;
  clock.advance(model_.page_fault_ns);
  make_resident(region, page_index, clock);
  ++stats_.loads;
  ++unpublished_.loads;
  clock.advance(model_.page_load_ns);
  // The load span is recorded by the caller, coalesced over the whole
  // access()/prefetch() batch — one ring record per call, not per page.
}

void EpcManager::make_resident(Region& region, std::uint32_t page_index,
                               SimClock& clock) {
  while (resident_count_ >= capacity_pages_) evict_one(clock);
  Page& page = region.pages[page_index];
  page.resident = true;
  page.resident_pos = static_cast<std::uint32_t>(resident_list_.size());
  resident_list_.emplace_back(&region, page_index);
  ++region.resident;
  ++resident_count_;
  if (region.pinned) ++pinned_resident_;
  ++unpublished_.resident;
}

void EpcManager::access(RegionId id, std::uint64_t offset, std::uint64_t len,
                        bool write, SimClock& clock) {
  (void)write;  // SGX pays EWB for clean and dirty pages alike
  Region& region = find_region(id);
  if (len == 0) return;
  if (offset + len > region.pages.size() * model_.page_size) {
    throw std::out_of_range("EpcManager: access beyond region");
  }

  ++stats_.accesses;
  stats_.bytes_accessed += len;
  obs::counter<obs::names::kEpcAccesses>().add();
  obs::counter<obs::names::kEpcBytesAccessed>().add(len);

  if (!limited_) return;  // SIM mode: runtime active, but no EPC boundary

  // Everything the EPC boundary costs — MEE traffic, faults, evictions,
  // loads — is attributed to epc_paging (fault_in/evict_one run inside
  // this scope).
  obs::ScopedCategory attribution(obs::Category::kEpcPaging);

  // Cache lines crossing the EPC boundary pass through the MEE.
  clock.advance(static_cast<std::uint64_t>(
      static_cast<double>(len) * model_.mee_overhead_per_byte_ns));

  // Fast path: a fully-resident region cannot fault.
  if (region.resident == region.pages.size()) {
    stats_.resident_pages = resident_count_;
    return;
  }

  const std::uint32_t first = static_cast<std::uint32_t>(offset / model_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((offset + len - 1) / model_.page_size);
  const std::uint64_t loads_before = stats_.loads;
  const std::uint64_t span_start = clock.now_ns();
  for (std::uint32_t p = first; p <= last; ++p) {
    if (!region.pages[p].resident) fault_in(region, p, clock);
  }
  if (stats_.loads != loads_before) {
    // One coalesced paging span for the whole access (covers every fault,
    // demand eviction, and load this call performed).
    obs::SpanTracer::global().record(obs::span_id<obs::names::kSpanEpcLoad>(),
                                     span_start, clock.now_ns());
    obs::Timeline::global().record_epc_load(
        span_start, static_cast<std::int64_t>(stats_.loads - loads_before));
  }
  publish();
  stats_.resident_pages = resident_count_;
}

void EpcManager::access_all(RegionId id, bool write, SimClock& clock) {
  access(id, 0, find_region(id).bytes, write, clock);
}

void EpcManager::prefetch(RegionId id, std::uint64_t offset, std::uint64_t len,
                          SimClock& clock) {
  if (!limited_ || len == 0) return;
  Region& region = find_region(id);
  if (offset + len > region.pages.size() * model_.page_size) {
    throw std::out_of_range("EpcManager: prefetch beyond region");
  }
  if (region.resident == region.pages.size()) return;  // nothing to load

  obs::ScopedCategory attribution(obs::Category::kEpcPrefetch);
  const std::uint32_t first =
      static_cast<std::uint32_t>(offset / model_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((offset + len - 1) / model_.page_size);
  const std::uint64_t span_start = clock.now_ns();
  std::uint64_t loaded = 0;
  for (std::uint32_t p = first; p <= last; ++p) {
    if (region.pages[p].resident) continue;
    // Making room counts as demand eviction when it happens — the
    // streaming caller is expected to advise_evict cold spans beforehand.
    make_resident(region, p, clock);
    // Overlapped ELDU: only the enqueue hop + decrypt tail hits the
    // critical path; no AEX, no demand fault.
    clock.advance(model_.page_prefetch_ns);
    ++loaded;
  }
  if (loaded > 0) {
    ++stats_.prefetches;
    stats_.prefetched_pages += loaded;
    obs::counter<obs::names::kEpcPrefetches>().add();
    obs::counter<obs::names::kEpcPrefetchedPages>().add(loaded);
    obs::SpanTracer::global().record(
        obs::span_id<obs::names::kSpanEpcPrefetch>(), span_start,
        clock.now_ns());
  }
  publish();
  stats_.resident_pages = resident_count_;
}

void EpcManager::advise_evict(RegionId id, std::uint64_t offset,
                              std::uint64_t len, SimClock& clock) {
  if (!limited_ || len == 0) return;
  Region& region = find_region(id);
  if (region.pinned || region.resident == 0) return;
  if (offset + len > region.pages.size() * model_.page_size) {
    throw std::out_of_range("EpcManager: advise_evict beyond region");
  }

  obs::ScopedCategory attribution(obs::Category::kEpcPrefetch);
  const std::uint32_t first =
      static_cast<std::uint32_t>(offset / model_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((offset + len - 1) / model_.page_size);
  for (std::uint32_t p = first; p <= last; ++p) {
    if (!region.pages[p].resident) continue;
    drop_resident(region, p);
    ++stats_.advised_evictions;
    ++unpublished_.advised_evictions;
    // Async enqueue only: the EWB runs off the critical path.
    clock.advance(model_.page_advise_evict_ns);
  }
  publish();
  stats_.resident_pages = resident_count_;
}

void EpcManager::pin(RegionId id) {
  Region& region = find_region(id);
  if (region.pinned) return;
  region.pinned = true;
  pinned_resident_ += region.resident;
}

void EpcManager::unpin(RegionId id) {
  Region& region = find_region(id);
  if (!region.pinned) return;
  region.pinned = false;
  pinned_resident_ -= region.resident;
}

}  // namespace stf::tee
