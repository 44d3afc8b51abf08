#include "net/network.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"

namespace stf::net {

void Connection::send(crypto::BytesView payload) {
  if (network_ == nullptr) throw std::logic_error("send on invalid Connection");
  network_->send_impl(conn_id_, side_, payload);
}

std::optional<crypto::Bytes> Connection::recv() {
  if (network_ == nullptr) throw std::logic_error("recv on invalid Connection");
  return network_->recv_impl(conn_id_, side_);
}

std::size_t Connection::pending() const {
  if (network_ == nullptr) return 0;
  const auto& conn = network_->conns_.at(conn_id_);
  return side_ ? conn.to_b.size() : conn.to_a.size();
}

bool Connection::peer_closed() const {
  if (network_ == nullptr) return true;
  const auto& conn = network_->conns_.at(conn_id_);
  return conn.closed || network_->node_down(remote_);
}

void Connection::close() {
  if (network_ == nullptr) return;
  network_->conns_.at(conn_id_).closed = true;
}

NodeId SimNetwork::add_node(std::string name, tee::SimClock& clock) {
  nodes_.push_back({std::move(name), &clock});
  return static_cast<NodeId>(nodes_.size() - 1);
}

namespace {
std::uint64_t link_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}
}  // namespace

void SimNetwork::set_link(NodeId a, NodeId b, LinkSpec spec) {
  links_[link_key(a, b)] = spec;
}

void SimNetwork::kill_node(NodeId id) {
  nodes_.at(id).down = true;
  for (auto& [conn_id, conn] : conns_) {
    if (conn.a != id && conn.b != id) continue;
    conn.closed = true;
    // In-flight messages addressed to the dead node die with it; traffic it
    // sent before crashing is already on the wire and still arrives.
    auto& to_dead = conn.a == id ? conn.to_a : conn.to_b;
    to_dead.clear();
  }
}

const LinkSpec& SimNetwork::link_between(NodeId a, NodeId b) const {
  const auto it = links_.find(link_key(a, b));
  return it != links_.end() ? it->second : default_link_;
}

std::pair<Connection, Connection> SimNetwork::connect(NodeId dialer,
                                                      NodeId listener) {
  if (dialer >= nodes_.size() || listener >= nodes_.size()) {
    throw std::invalid_argument("SimNetwork::connect: unknown node");
  }
  const std::uint64_t id = next_conn_++;
  conns_[id] = ConnState{.a = dialer, .b = listener};
  obs::counter<obs::names::kNetConnectionsOpened>().add();
  // TCP-style setup: the dialer pays one RTT; the listener learns of the
  // connection when the first message arrives.
  {
    obs::ScopedCategory attribution(obs::Category::kNet);
    nodes_[dialer].clock->advance(link_between(dialer, listener).rtt_ns);
  }
  return {Connection(this, id, /*side=*/false, listener),
          Connection(this, id, /*side=*/true, dialer)};
}

void SimNetwork::send_impl(std::uint64_t conn_id, bool from_side,
                           crypto::BytesView payload) {
  ConnState& conn = conns_.at(conn_id);
  const NodeId from = from_side ? conn.b : conn.a;
  const NodeId to = from_side ? conn.a : conn.b;
  const LinkSpec& link = link_between(from, to);

  tee::SimClock& sender_clock = *nodes_[from].clock;
  bytes_sent_ += payload.size();
  obs::counter<obs::names::kNetBytesSent>().add(payload.size());

  Message msg;
  msg.payload.assign(payload.begin(), payload.end());

  AdversaryAction action = AdversaryAction::Pass;
  if (adversary_) action = adversary_(msg.payload);

  // Sender-side serialization cost applies regardless of what the network
  // does with the packet afterwards.
  {
    obs::ScopedCategory attribution(obs::Category::kNet);
    sender_clock.advance(static_cast<std::uint64_t>(
        static_cast<double>(payload.size()) / link.bandwidth * 1e9));
  }

  if (action == AdversaryAction::Drop) return;

  // A closed connection or crashed endpoint swallows the message (the
  // sender only learns through timeouts / peer_closed()).
  if (conn.closed || nodes_[from].down || nodes_[to].down) return;

  FaultDecision fault;
  if (fault_hook_) {
    fault = fault_hook_(from, to, sender_clock.now_ns(), msg.payload);
  }
  if (fault.drop || fault.copies == 0) return;

  std::uint64_t latency = link.rtt_ns / 2 + fault.extra_delay_ns;
  if (action == AdversaryAction::Delay) latency += link.rtt_ns * 10;
  msg.arrival_ns = sender_clock.now_ns() + latency;

  auto& queue = from_side ? conn.to_a : conn.to_b;
  queue.push_back(msg);
  if (action == AdversaryAction::Replay) queue.push_back(msg);
  for (unsigned c = 1; c < fault.copies; ++c) queue.push_back(msg);
}

std::optional<crypto::Bytes> SimNetwork::recv_impl(std::uint64_t conn_id,
                                                   bool side) {
  ConnState& conn = conns_.at(conn_id);
  auto& queue = side ? conn.to_b : conn.to_a;
  if (queue.empty()) return std::nullopt;
  Message msg = std::move(queue.front());
  queue.pop_front();
  const NodeId self = side ? conn.b : conn.a;
  // Waiting for the wire (including any fault-injected extra delay riding
  // in arrival_ns) counts as network time.
  {
    obs::ScopedCategory attribution(obs::Category::kNet);
    nodes_[self].clock->advance_to(msg.arrival_ns);
  }
  ++messages_delivered_;
  obs::counter<obs::names::kNetMessagesDelivered>().add();
  return std::move(msg.payload);
}

}  // namespace stf::net
