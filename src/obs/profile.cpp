#include "obs/profile.h"

#include <atomic>
#include <cstdio>

#include "obs/export.h"
#include "obs/names.h"
#include "obs/span.h"

namespace stf::obs {
namespace {

std::atomic<bool> g_profiling_enabled{false};

constexpr std::size_t index_of(Category c) {
  return static_cast<std::size_t>(c);
}

std::string pad(int level) {
  return std::string(2 * static_cast<std::size_t>(level), ' ');
}

}  // namespace

const char* to_string(Category c) {
  switch (c) {
    case Category::kCompute: return names::kCatCompute;
    case Category::kEpcPaging: return names::kCatEpcPaging;
    case Category::kTransition: return names::kCatTransition;
    case Category::kSyscall: return names::kCatSyscall;
    case Category::kCrypto: return names::kCatCrypto;
    case Category::kNet: return names::kCatNet;
    case Category::kFsShield: return names::kCatFsShield;
    case Category::kFaultDelay: return names::kCatFaultDelay;
    case Category::kEpcPrefetch: return names::kCatEpcPrefetch;
    case Category::kGpu: return names::kCatGpu;
    case Category::kPcie: return names::kCatPcie;
    case Category::kOther: return names::kCatOther;
  }
  return "profile.other";
}

bool profiling_enabled() {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool enabled) {
  g_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

void AttributionStore::add(AttributionRow row) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& s = summaries_[row.name];
  ++s.count;
  s.duration_ns += row.duration_ns();
  s.warp_ns += row.warp_ns;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    s.by_category[i] += row.by_category[i];
  }
  if (ring_.push(std::move(row))) ++dropped_;
}

std::uint64_t AttributionStore::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<AttributionRow> AttributionStore::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.snapshot();
}

std::map<std::string, AttributionSummary> AttributionStore::summaries()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summaries_;
}

void AttributionStore::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  dropped_ = 0;
  summaries_.clear();
}

AttributionStore& AttributionStore::global() {
  static AttributionStore* instance = new AttributionStore();
  return *instance;
}

ScopedAttribution::ScopedAttribution(tee::SimClock& clock,
                                     std::string_view name,
                                     AttributionStore& store) {
  if (!profiling_enabled()) return;
  active_ = true;
  clock_ = &clock;
  store_ = &store;
  name_ = std::string(name);
  lane_ = current_lane();
  start_ns_ = clock.now_ns();
  prev_ = clock.sink();
  clock.set_sink(this);
}

ScopedAttribution::~ScopedAttribution() {
  if (!active_) return;
  clock_->set_sink(prev_);
  AttributionRow row;
  row.name = std::move(name_);
  row.lane = lane_;
  row.start_ns = start_ns_;
  row.end_ns = clock_->now_ns();
  row.warp_ns = warp_ns_;
  row.by_category = by_category_;
  store_->add(std::move(row));
}

void ScopedAttribution::on_advance(std::uint64_t delta_ns) {
  by_category_[index_of(current_category())] += delta_ns;
  if (prev_ != nullptr) prev_->on_advance(delta_ns);
}

void ScopedAttribution::on_warp(std::int64_t delta_ns) {
  warp_ns_ += delta_ns;
  if (prev_ != nullptr) prev_->on_warp(delta_ns);
}

std::string export_profile_json(const AttributionStore& store) {
  std::string out = "{\n";
  out += pad(1) + "\"dropped\": " + std::to_string(store.dropped()) + ",\n";
  out += pad(1) + "\"profiles\": {";
  const auto sums = store.summaries();
  if (!sums.empty()) {
    out += "\n";
    std::size_t n = 0;
    for (const auto& [name, s] : sums) {
      out += pad(2) + "\"" + json_escape(name) + "\": {\n";
      out += pad(3) + "\"count\": " + std::to_string(s.count) + ",\n";
      out += pad(3) +
             "\"duration_ns\": " + std::to_string(s.duration_ns) + ",\n";
      out += pad(3) + "\"warp_ns\": " + std::to_string(s.warp_ns) + ",\n";
      out += pad(3) + "\"categories\": {";
      for (std::size_t i = 0; i < kCategoryCount; ++i) {
        out += std::string("\"") +
               to_string(static_cast<Category>(i)) +
               "\": " + std::to_string(s.by_category[i]);
        if (i + 1 < kCategoryCount) out += ", ";
      }
      out += "}\n";
      out += pad(2) + "}";
      out += (++n < sums.size()) ? ",\n" : "\n";
    }
    out += pad(1) + "}\n";
  } else {
    out += "}\n";
  }
  out += "}\n";
  return out;
}

std::string profile_table(const AttributionStore& store) {
  std::string out;
  char line[320];
  out += "-- profiles (attributed virtual time) ----------------------\n";
  for (const auto& [name, s] : store.summaries()) {
    std::snprintf(line, sizeof(line),
                  "%-34s n=%-6llu dur=%lldns warp=%lldns\n", name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<long long>(s.duration_ns),
                  static_cast<long long>(s.warp_ns));
    out += line;
    std::uint64_t attributed = 0;
    for (auto v : s.by_category) attributed += v;
    for (std::size_t i = 0; i < kCategoryCount; ++i) {
      if (s.by_category[i] == 0) continue;
      const auto pct =
          attributed == 0 ? 0 : 100 * s.by_category[i] / attributed;
      std::snprintf(line, sizeof(line), "    %-30s %14llu ns  %3llu%%\n",
                    to_string(static_cast<Category>(i)),
                    static_cast<unsigned long long>(s.by_category[i]),
                    static_cast<unsigned long long>(pct));
      out += line;
    }
  }
  return out;
}

}  // namespace stf::obs
