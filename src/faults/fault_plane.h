// Deterministic fault injection for the simulated cluster.
//
// The Dolev-Yao adversary (net/network.h) models *attacks*; this plane
// models *weather* — the packet loss, duplication, congestion delay, node
// crashes and host I/O hiccups that the paper's untrusted cloud exhibits
// even when nobody is attacking (challenge 4: workers crash, rejoin, and
// re-attest; Figures 7-8 assume nodes and links that stall mid-stream).
//
// Every decision draws from one HMAC-DRBG stream seeded by the caller, and
// all deadlines live in virtual time, so a run with a fixed fault seed is
// bit-reproducible: same drops, same retries, same ejections, same totals.
// Stress-SGX (PAPERS.md) validates enclave stacks the same way — injected
// failures with a controlled schedule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/drbg.h"
#include "net/network.h"
#include "runtime/untrusted_fs.h"

namespace stf::faults {

/// Per-link message weather. Probabilities are evaluated against one DRBG
/// draw per message in send order (drop wins over duplicate wins over
/// delay), so their sum must stay <= 1.
struct LinkFaultSpec {
  double drop_prob = 0;
  double duplicate_prob = 0;
  double delay_prob = 0;
  std::uint64_t delay_ns = 2'000'000;  ///< extra latency when delayed

  [[nodiscard]] bool any() const {
    return drop_prob > 0 || duplicate_prob > 0 || delay_prob > 0;
  }
};

/// Counters of everything the plane injected (deterministic for a seed).
struct FaultStats {
  std::uint64_t messages_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t crash_dropped = 0;  ///< lost inside a crash window
  std::uint64_t io_failures = 0;
  std::uint64_t gpu_corruptions = 0;  ///< GPU results flipped in a window
};

class FaultPlane {
 public:
  explicit FaultPlane(std::uint64_t seed);

  // --- configuration (set before or between runs) ------------------------

  /// Weather for the specific link a<->b (both directions). Links without
  /// one see clear skies.
  void set_link_faults(net::NodeId a, net::NodeId b, LinkFaultSpec spec);

  /// Crash/restart schedule in virtual time: while the *sender's* clock is
  /// inside [down_ns, up_ns), every message from or to `node` is lost (the
  /// process is down; it neither sends nor receives). Connections survive —
  /// this models a freeze-and-recover, not a reboot; use crash_now() for a
  /// crash that kills connection state.
  void schedule_crash(net::NodeId node, std::uint64_t down_ns,
                      std::uint64_t up_ns);

  /// Probability that one host filesystem operation fails transiently
  /// (attach_fs installs the injector; failures throw TransientError).
  void set_io_fault_prob(double prob) { io_fail_prob_ = prob; }

  /// Corrupting-GPU schedule (docs/GPU_OFFLOAD.md): while `node`'s clock is
  /// inside [from_ns, to_ns), the untrusted GPU attached to that node
  /// returns wrong results for offloaded layers. The serving layer polls
  /// gpu_corrupt() from its offload corruption hook and applies the actual
  /// tensor damage — the plane only owns the schedule, so faults:: stays
  /// free of ml:: types.
  void schedule_gpu_corruption(net::NodeId node, std::uint64_t from_ns,
                               std::uint64_t to_ns);

  // --- attachment ---------------------------------------------------------

  /// Installs the message-weather hook on `net`. The plane must outlive the
  /// network. Also enables crash_now() on it.
  void attach(net::SimNetwork& net);

  /// Installs the transient-I/O injector on a host filesystem. The plane
  /// must outlive the filesystem.
  void attach_fs(runtime::UntrustedFs& fs);

  // --- imperative crash control (connection-killing) ----------------------

  /// Crash-stops `node` on the attached network: its connections turn
  /// peer-dead and queued traffic to it is lost. Requires attach().
  void crash_now(net::NodeId node);

  // --- crash-schedule queries (mid-trace failover, docs/SERVING.md) -------

  /// True while `node` sits inside a scheduled crash window at `now_ns`.
  /// The serving fleet polls this at dispatch time to decide whether a
  /// probe finds the node dead.
  [[nodiscard]] bool node_down(net::NodeId node, std::uint64_t now_ns) const {
    return in_crash_window(node, now_ns);
  }

  /// Earliest scheduled crash-window start strictly after `after_ns`, or
  /// nullopt when none remains. Lets a dispatcher decide whether a batch
  /// launched at `after_ns` would be interrupted mid-service.
  [[nodiscard]] std::optional<std::uint64_t> next_crash_after(
      net::NodeId node, std::uint64_t after_ns) const;

  /// True while `node`'s GPU sits inside a scheduled corruption window at
  /// `now_ns`; each true counts one injected corruption in stats().
  [[nodiscard]] bool gpu_corrupt(net::NodeId node, std::uint64_t now_ns);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  [[nodiscard]] net::FaultDecision on_message(net::NodeId from, net::NodeId to,
                                              std::uint64_t now_ns,
                                              const crypto::Bytes& payload);
  [[nodiscard]] bool io_should_fail();
  [[nodiscard]] const LinkFaultSpec& spec_for(net::NodeId a,
                                              net::NodeId b) const;
  [[nodiscard]] bool in_crash_window(net::NodeId node,
                                     std::uint64_t now_ns) const;
  /// One uniform draw in [0, 1) from the fault stream.
  [[nodiscard]] double draw();

  crypto::HmacDrbg drbg_;
  std::map<std::uint64_t, LinkFaultSpec> link_specs_;  // key: a<<32|b, a<b
  struct CrashWindow {
    std::uint64_t down_ns = 0, up_ns = 0;
  };
  std::map<net::NodeId, std::vector<CrashWindow>> crash_windows_;
  std::map<net::NodeId, std::vector<CrashWindow>> gpu_corruption_windows_;
  double io_fail_prob_ = 0;
  net::SimNetwork* net_ = nullptr;
  FaultStats stats_;
};

}  // namespace stf::faults
