// Simulated cluster network.
//
// Models the paper's testbed interconnect (1 Gb/s switched LAN between the
// three SGX servers) plus the WAN path to the Intel Attestation Service.
// Latency and bandwidth are charged in virtual time against the endpoint
// clocks, so multi-node experiments (Figures 4, 7, 8) measure communication
// exactly where the real system would.
//
// The network is untrusted (Dolev-Yao, §2.3): an adversary hook can drop,
// tamper with, replay or delay any message in flight. Security tests use it
// to show that the network shield detects every manipulation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.h"
#include "tee/cost_model.h"
#include "tee/sim_clock.h"

namespace stf::net {

using NodeId = std::uint32_t;

/// Link characteristics between a pair of nodes.
struct LinkSpec {
  double bandwidth = 125e6;           ///< bytes/s (default: 1 Gb/s LAN)
  std::uint64_t rtt_ns = 200'000;     ///< round-trip time

  [[nodiscard]] std::uint64_t transfer_ns(std::uint64_t bytes) const {
    return rtt_ns / 2 + static_cast<std::uint64_t>(
                            static_cast<double>(bytes) / bandwidth * 1e9);
  }
  static LinkSpec lan() { return {}; }
  static LinkSpec wan() { return {.bandwidth = 12.5e6, .rtt_ns = 18'000'000}; }
};

/// What the Dolev-Yao adversary does to one in-flight message. On Tamper the
/// hook has already mutated the payload; Replay delivers the message twice.
enum class AdversaryAction : std::uint8_t { Pass, Drop, Tamper, Replay, Delay };

/// Adversary hook: may inspect/mutate the payload and return an action.
using Adversary = std::function<AdversaryAction(crypto::Bytes& payload)>;

/// What the (non-malicious) fault plane does to one in-flight message. The
/// adversary models attacks; this models weather — packet loss, router
/// duplication, congestion delay — injected deterministically by
/// `stf::faults::FaultPlane`.
struct FaultDecision {
  bool drop = false;
  std::uint64_t extra_delay_ns = 0;  ///< added on top of the link latency
  unsigned copies = 1;               ///< >1 duplicates the message in flight
};

/// Fault hook: consulted for every message after the adversary. `now_ns` is
/// the sender's virtual clock (crash windows are evaluated against it).
using FaultHook = std::function<FaultDecision(
    NodeId from, NodeId to, std::uint64_t now_ns, const crypto::Bytes&)>;

class SimNetwork;

/// One side of an established connection. Move-only handle.
class Connection {
 public:
  Connection() = default;

  /// Sends `payload` to the peer; charges serialization + link cost to the
  /// sender's clock and stamps the arrival time.
  void send(crypto::BytesView payload);

  /// Receives the next in-order message. Advances the receiver's clock to
  /// the arrival time (waiting is part of the latency). Returns std::nullopt
  /// if nothing is (or will be) in flight — with a Dolev-Yao adversary a
  /// message can simply be gone.
  std::optional<crypto::Bytes> recv();

  /// Messages currently queued for this side.
  [[nodiscard]] std::size_t pending() const;

  /// True once the connection is dead: explicitly closed by either side, or
  /// the remote node crashed. Queued messages can still be drained; after
  /// that recv() will never again return data — stop polling.
  [[nodiscard]] bool peer_closed() const;

  /// Half-close from this side; the peer observes peer_closed(). Subsequent
  /// sends on either side vanish (TCP-RST-style).
  void close();

  [[nodiscard]] bool valid() const { return network_ != nullptr; }

 private:
  friend class SimNetwork;
  Connection(SimNetwork* network, std::uint64_t conn_id, bool side,
             NodeId remote)
      : network_(network), conn_id_(conn_id), side_(side), remote_(remote) {}

  SimNetwork* network_ = nullptr;
  std::uint64_t conn_id_ = 0;
  bool side_ = false;  // false = dialer, true = listener
  NodeId remote_ = 0;
};

class SimNetwork {
 public:
  /// Adds a node whose time is tracked by `clock` (usually a Platform's).
  NodeId add_node(std::string name, tee::SimClock& clock);

  /// Overrides the link between two nodes (default is LAN both ways).
  void set_link(NodeId a, NodeId b, LinkSpec spec);

  /// Installs/removes the Dolev-Yao adversary applied to every message.
  void set_adversary(Adversary adversary) { adversary_ = std::move(adversary); }

  /// Installs/removes the fault-injection hook (see stf::faults). Runs after
  /// the adversary on every message that survives it.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Crash-stops a node: every connection touching it turns peer-dead,
  /// undelivered messages addressed to it are lost, and further traffic
  /// from/to it vanishes.
  void kill_node(NodeId id);

  [[nodiscard]] bool node_down(NodeId id) const {
    return nodes_.at(id).down;
  }

  /// Opens a bidirectional connection between two nodes. Charges one RTT of
  /// connection setup to the dialer's clock.
  std::pair<Connection, Connection> connect(NodeId dialer, NodeId listener);

  [[nodiscard]] const std::string& node_name(NodeId id) const {
    return nodes_.at(id).name;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Connection;

  struct Message {
    crypto::Bytes payload;
    std::uint64_t arrival_ns = 0;
  };
  struct ConnState {
    NodeId a = 0, b = 0;
    std::deque<Message> to_a, to_b;
    bool closed = false;
  };
  struct Node {
    std::string name;
    tee::SimClock* clock = nullptr;
    bool down = false;
  };

  void send_impl(std::uint64_t conn_id, bool from_side,
                 crypto::BytesView payload);
  std::optional<crypto::Bytes> recv_impl(std::uint64_t conn_id, bool side);

  [[nodiscard]] const LinkSpec& link_between(NodeId a, NodeId b) const;

  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, LinkSpec> links_;  // key: a<<32|b, a<b
  std::unordered_map<std::uint64_t, ConnState> conns_;
  std::uint64_t next_conn_ = 1;
  Adversary adversary_;
  FaultHook fault_hook_;
  LinkSpec default_link_ = LinkSpec::lan();
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace stf::net
