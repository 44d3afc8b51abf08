#include "faults/fault_plane.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::faults {

namespace {

std::uint64_t link_key(net::NodeId a, net::NodeId b) {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}

crypto::Bytes seed_bytes(std::uint64_t seed) {
  crypto::Bytes s = crypto::to_bytes("stf-fault-plane-");
  std::uint8_t sb[8];
  crypto::store_be64(sb, seed);
  crypto::append(s, crypto::BytesView(sb, 8));
  return s;
}
}  // namespace

FaultPlane::FaultPlane(std::uint64_t seed) : drbg_(seed_bytes(seed)) {}

void FaultPlane::set_link_faults(net::NodeId a, net::NodeId b,
                                 LinkFaultSpec spec) {
  link_specs_[link_key(a, b)] = spec;
}

void FaultPlane::schedule_crash(net::NodeId node, std::uint64_t down_ns,
                                std::uint64_t up_ns) {
  if (up_ns <= down_ns) {
    throw std::invalid_argument("FaultPlane: empty crash window");
  }
  crash_windows_[node].push_back({down_ns, up_ns});
}

void FaultPlane::schedule_gpu_corruption(net::NodeId node,
                                         std::uint64_t from_ns,
                                         std::uint64_t to_ns) {
  if (to_ns <= from_ns) {
    throw std::invalid_argument("FaultPlane: empty gpu corruption window");
  }
  gpu_corruption_windows_[node].push_back({from_ns, to_ns});
}

bool FaultPlane::gpu_corrupt(net::NodeId node, std::uint64_t now_ns) {
  const auto it = gpu_corruption_windows_.find(node);
  if (it == gpu_corruption_windows_.end()) return false;
  for (const auto& w : it->second) {
    if (now_ns >= w.down_ns && now_ns < w.up_ns) {
      ++stats_.gpu_corruptions;
      return true;
    }
  }
  return false;
}

void FaultPlane::set_node_throttle(net::NodeId node, std::uint64_t extra_ns) {
  throttles_[node] = extra_ns;
}

void FaultPlane::attach(net::SimNetwork& net) {
  net_ = &net;
  net.set_fault_hook([this](net::NodeId from, net::NodeId to,
                            std::uint64_t now_ns,
                            const crypto::Bytes& payload) {
    return on_message(from, to, now_ns, payload);
  });
}

void FaultPlane::attach_fs(runtime::UntrustedFs& fs) {
  fs.set_fault_injector(
      [this](const char*, const std::string&) { return io_should_fail(); });
}

void FaultPlane::crash_now(net::NodeId node) {
  if (net_ == nullptr) {
    throw std::logic_error("FaultPlane: crash_now before attach");
  }
  net_->kill_node(node);
}

void FaultPlane::revive_now(net::NodeId node) {
  if (net_ == nullptr) {
    throw std::logic_error("FaultPlane: revive_now before attach");
  }
  net_->revive_node(node);
}

const LinkFaultSpec& FaultPlane::spec_for(net::NodeId a, net::NodeId b) const {
  static const LinkFaultSpec kClearSkies{};
  const auto it = link_specs_.find(link_key(a, b));
  return it != link_specs_.end() ? it->second : kClearSkies;
}

std::optional<std::uint64_t> FaultPlane::next_crash_after(
    net::NodeId node, std::uint64_t after_ns) const {
  const auto it = crash_windows_.find(node);
  if (it == crash_windows_.end()) return std::nullopt;
  std::optional<std::uint64_t> earliest;
  for (const auto& w : it->second) {
    if (w.down_ns > after_ns && (!earliest || w.down_ns < *earliest)) {
      earliest = w.down_ns;
    }
  }
  return earliest;
}

bool FaultPlane::in_crash_window(net::NodeId node, std::uint64_t now_ns) const {
  const auto it = crash_windows_.find(node);
  if (it == crash_windows_.end()) return false;
  for (const auto& w : it->second) {
    if (now_ns >= w.down_ns && now_ns < w.up_ns) return true;
  }
  return false;
}

double FaultPlane::draw() {
  // 30 bits of the stream -> uniform double in [0, 1). Plenty for fault
  // probabilities, and one cheap draw per decision keeps the schedule
  // stable when unrelated config changes.
  constexpr std::uint64_t kBits = std::uint64_t{1} << 30;
  return static_cast<double>(drbg_.uniform(kBits)) /
         static_cast<double>(kBits);
}

net::FaultDecision FaultPlane::on_message(net::NodeId from, net::NodeId to,
                                          std::uint64_t now_ns,
                                          const crypto::Bytes&) {
  ++stats_.messages_seen;
  obs::counter<obs::names::kFaultsMessagesSeen>().add();
  net::FaultDecision decision;

  if (in_crash_window(from, now_ns) || in_crash_window(to, now_ns)) {
    ++stats_.crash_dropped;
    obs::counter<obs::names::kFaultsCrashDropped>().add();
    decision.drop = true;
    return decision;
  }

  const auto ft = throttles_.find(from);
  if (ft != throttles_.end()) decision.extra_delay_ns += ft->second;
  const auto tt = throttles_.find(to);
  if (tt != throttles_.end()) decision.extra_delay_ns += tt->second;

  const LinkFaultSpec& spec = spec_for(from, to);
  if (!spec.any()) return decision;

  // One draw decides: [0,drop) -> drop, [drop,drop+dup) -> duplicate,
  // [drop+dup, drop+dup+delay) -> delay, rest -> clean.
  const double u = draw();
  if (u < spec.drop_prob) {
    ++stats_.dropped;
    obs::counter<obs::names::kFaultsDropped>().add();
    decision.drop = true;
  } else if (u < spec.drop_prob + spec.duplicate_prob) {
    ++stats_.duplicated;
    obs::counter<obs::names::kFaultsDuplicated>().add();
    decision.copies = 2;
  } else if (u < spec.drop_prob + spec.duplicate_prob + spec.delay_prob) {
    ++stats_.delayed;
    obs::counter<obs::names::kFaultsDelayed>().add();
    decision.extra_delay_ns += spec.delay_ns;
  }
  return decision;
}

bool FaultPlane::io_should_fail() {
  if (io_fail_prob_ <= 0) return false;
  if (draw() < io_fail_prob_) {
    ++stats_.io_failures;
    obs::counter<obs::names::kFaultsIoFailures>().add();
    return true;
  }
  return false;
}

}  // namespace stf::faults
