// Virtual-time cost attribution: where does a request's time actually go?
//
// The span tracer (obs/span.h) answers "which intervals happened"; this
// module answers "what the enclosing interval was *spent on*". A
// ScopedAttribution installs itself as the ClockSink of one SimClock and
// buckets every nanosecond that clock advances into an attribution
// category — the innermost ScopedCategory open on the charging thread
// (Category::kOther when none is). Instrumentation sites in tee (EPC
// paging, transitions, syscalls), runtime (fs-shield, channels, scheduler),
// net, ml and distributed open the matching category around their clock
// charges, so a profiled inference request decomposes into
// compute / epc_paging / transition / syscall / crypto / net / fs_shield /
// fault_delay / epc_prefetch / other with nothing double-counted and
// nothing lost.
//
// Conservation invariant (checked in tests/obs_test.cpp): for every
// finished profile,
//
//     end_ns - start_ns == sum(by_category) + warp_ns        (exact, i64)
//
// `warp_ns` accumulates set_ns()/reset() timeline adjustments — the
// parameter-server replays logically-parallel worker shards on one clock
// by rewinding it, and those jumps are simulation bookkeeping, not elapsed
// work. For straight-line workloads (an inference request) warp is 0 and
// the categories alone sum to the span's duration.
//
// Determinism: profiling never touches a SimClock or a DRBG. With
// profiling disabled (the default) no sink is installed and every figure
// is byte-identical to an uninstrumented build; with it enabled the
// category totals are pure functions of the seeded run.
//
// Thread safety: a ScopedAttribution observes a single SimClock, which is
// single-threaded by construction (one lane = one logical timeline); the
// category stack is thread-local; the global AttributionStore is
// mutex-guarded, so concurrent profiles on different clocks are safe.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tee/sim_clock.h"

namespace stf::obs {

enum class Category : std::uint8_t {
  kCompute = 0,   ///< model FLOPs + baseline DRAM traffic
  kEpcPaging,     ///< EPC faults, evictions (EWB), loads (ELDU), MEE traffic
  kTransition,    ///< enclave entry/exit, uthread switches
  kSyscall,       ///< kernel time + syscall argument copies
  kCrypto,        ///< TLS handshakes, record protection (network shield)
  kNet,           ///< serialization, RTTs, waiting for message arrival
  kFsShield,      ///< file-system shield seal/unseal AEAD work
  kFaultDelay,    ///< retransmit backoff, round timeouts (injected weather)
  kEpcPrefetch,   ///< overlapped weight prefetch + advise-evict (streaming)
  kGpu,           ///< untrusted-accelerator execution of offloaded layers
  kPcie,          ///< host<->GPU transfers of the Slalom offload path
  kOther,         ///< anything charged with no category open (barrier waits)
};

inline constexpr std::size_t kCategoryCount = 12;

/// Canonical `profile.*` name of a category (from names.h).
[[nodiscard]] const char* to_string(Category c);

/// The charging thread's innermost open category; Category::kOther when no
/// ScopedCategory is on the stack.
inline Category& current_category() {
  thread_local Category cat = Category::kOther;
  return cat;
}

/// Pushes `c` onto the calling thread's category stack for the scope.
/// Cheap enough to leave on unconditionally (two thread-local stores); it
/// only matters while a ScopedAttribution is observing the clock.
class ScopedCategory {
 public:
  explicit ScopedCategory(Category c) : prev_(current_category()) {
    current_category() = c;
  }
  ~ScopedCategory() { current_category() = prev_; }
  ScopedCategory(const ScopedCategory&) = delete;
  ScopedCategory& operator=(const ScopedCategory&) = delete;

 private:
  Category prev_;
};

/// Global switch. Off by default: no sink is installed, exports stay
/// byte-identical to pre-profiler builds. Flipping it affects profiles
/// *created afterwards* (a ScopedAttribution samples the flag once, at
/// construction).
[[nodiscard]] bool profiling_enabled();
void set_profiling_enabled(bool enabled);

/// One finished profile: a named interval of one clock, decomposed.
struct AttributionRow {
  std::string name;
  std::uint32_t lane = 0;  ///< (pid << 16) | tid at profile start (span.h)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t warp_ns = 0;  ///< net set_ns()/reset() adjustment
  std::array<std::uint64_t, kCategoryCount> by_category{};

  [[nodiscard]] std::int64_t duration_ns() const {
    return static_cast<std::int64_t>(end_ns) -
           static_cast<std::int64_t>(start_ns);
  }
  [[nodiscard]] std::uint64_t attributed_ns() const {
    std::uint64_t sum = 0;
    for (auto v : by_category) sum += v;
    return sum;
  }
  /// The conservation invariant: duration == attributed + warp.
  [[nodiscard]] bool conserved() const {
    return duration_ns() ==
           static_cast<std::int64_t>(attributed_ns()) + warp_ns;
  }
};

/// Per-name aggregate that survives ring overwrites (mirrors SpanSummary).
struct AttributionSummary {
  std::uint64_t count = 0;
  std::int64_t duration_ns = 0;
  std::int64_t warp_ns = 0;
  std::array<std::uint64_t, kCategoryCount> by_category{};
};

/// Bounded ring of finished profiles + never-drop per-name aggregates.
class AttributionStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit AttributionStore(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  AttributionStore(const AttributionStore&) = delete;
  AttributionStore& operator=(const AttributionStore&) = delete;

  void add(AttributionRow row);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const;
  /// Oldest-to-newest copy of the ring.
  [[nodiscard]] std::vector<AttributionRow> rows() const;
  /// Stable-ordered (by name) aggregates over *all* profiles, including
  /// ones the ring has since overwritten.
  [[nodiscard]] std::map<std::string, AttributionSummary> summaries() const;

  /// New measurement epoch: clears rows, aggregates and the drop count.
  void reset();

  static AttributionStore& global();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<AttributionRow> ring_;
  std::size_t next_ = 0;  ///< ring write cursor once full
  std::uint64_t dropped_ = 0;
  std::map<std::string, AttributionSummary> summaries_;
};

/// RAII profile of one clock: installs itself as the clock's sink at
/// construction (when profiling is enabled), restores the previous sink
/// and publishes an AttributionRow at destruction. Nested profiles chain:
/// each forwards every charge to the sink it displaced, so an inner
/// profile (a training round) and an outer one (the whole job) both see
/// all deltas and both satisfy conservation independently. Scopes must
/// nest LIFO per clock, which C++ scoping guarantees.
class ScopedAttribution final : public tee::ClockSink {
 public:
  ScopedAttribution(tee::SimClock& clock, std::string_view name,
                    AttributionStore& store = AttributionStore::global());
  ~ScopedAttribution() override;
  ScopedAttribution(const ScopedAttribution&) = delete;
  ScopedAttribution& operator=(const ScopedAttribution&) = delete;

  void on_advance(std::uint64_t delta_ns) override;
  void on_warp(std::int64_t delta_ns) override;

  /// False when profiling was disabled at construction (pure no-op scope).
  [[nodiscard]] bool active() const { return active_; }

 private:
  tee::SimClock* clock_ = nullptr;
  AttributionStore* store_ = nullptr;
  tee::ClockSink* prev_ = nullptr;
  bool active_ = false;
  std::string name_;
  std::uint32_t lane_ = 0;
  std::uint64_t start_ns_ = 0;
  std::int64_t warp_ns_ = 0;
  std::array<std::uint64_t, kCategoryCount> by_category_{};
};

/// Serializes `store` as stable-ordered, integer-only JSON (same byte
/// contract as export_json): drop count, then per-name aggregates with
/// every category always present in enum order. 2-space indented,
/// trailing newline.
[[nodiscard]] std::string export_profile_json(
    const AttributionStore& store = AttributionStore::global());

/// Fixed-width text rendering of the aggregates for bench stdout: one row
/// per profile name, categories as percentages of attributed time.
[[nodiscard]] std::string profile_table(
    const AttributionStore& store = AttributionStore::global());

}  // namespace stf::obs
