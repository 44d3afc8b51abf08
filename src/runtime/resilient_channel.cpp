#include "runtime/resilient_channel.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace stf::runtime {

namespace {

constexpr std::uint8_t kFrameData = 0;
constexpr std::uint8_t kFrameAck = 1;
constexpr std::size_t kFrameHeader = 1 + 8;  // type + message id

crypto::Bytes frame(std::uint8_t type, std::uint64_t id,
                    crypto::BytesView payload) {
  crypto::Bytes out;
  out.reserve(kFrameHeader + payload.size());
  out.push_back(type);
  std::uint8_t idb[8];
  crypto::store_be64(idb, id);
  crypto::append(out, crypto::BytesView(idb, 8));
  crypto::append(out, payload);
  return out;
}
}  // namespace

std::uint64_t RetryPolicy::timeout_for(unsigned attempt) const {
  double t = static_cast<double>(base_timeout_ns);
  for (unsigned k = 0; k < attempt; ++k) t *= backoff_factor;
  t = std::min(t, static_cast<double>(max_timeout_ns));
  return static_cast<std::uint64_t>(t);
}

ResilientChannel::ResilientChannel(SecureChannel channel, tee::SimClock& clock,
                                   RetryPolicy policy,
                                   std::uint64_t jitter_seed)
    : channel_(std::move(channel)), clock_(&clock), policy_(policy) {
  // Loss tolerance is a precondition: without it the first retransmitted
  // record after a drop would look like a sequence violation.
  channel_.allow_gaps(true);
  crypto::Bytes seed = crypto::to_bytes("resilient-jitter-");
  std::uint8_t sb[8];
  crypto::store_be64(sb, jitter_seed);
  crypto::append(seed, crypto::BytesView(sb, 8));
  jitter_ = std::make_unique<crypto::HmacDrbg>(seed);
}

void ResilientChannel::arm_deadline() {
  const std::uint64_t jitter =
      policy_.max_jitter_ns == 0 ? 0 : jitter_->uniform(policy_.max_jitter_ns);
  outstanding_->deadline_ns = clock_->now_ns() +
                              policy_.timeout_for(outstanding_->attempt) +
                              jitter;
}

void ResilientChannel::post(crypto::BytesView payload) {
  if (!valid()) throw std::logic_error("post on invalid ResilientChannel");
  if (outstanding_.has_value()) {
    throw std::logic_error("ResilientChannel: previous message still "
                           "outstanding (stop-and-wait)");
  }
  Outstanding out;
  out.id = next_id_++;
  out.frame = frame(kFrameData, out.id, payload);
  outstanding_ = std::move(out);
  channel_.send(outstanding_->frame);
  outstanding_->attempt = 1;
  arm_deadline();
}

void ResilientChannel::send_ack(std::uint64_t id) {
  channel_.send(frame(kFrameAck, id, {}));
}

std::optional<crypto::Bytes> ResilientChannel::poll() {
  if (!valid()) throw std::logic_error("poll on invalid ResilientChannel");
  while (true) {
    auto raw = channel_.recv();  // SecurityError / ChannelDeadError propagate
    if (!raw.has_value()) return std::nullopt;
    if (raw->size() < kFrameHeader) {
      throw SecurityError("resilient channel: truncated frame");
    }
    const std::uint8_t type = (*raw)[0];
    const std::uint64_t id = crypto::load_be64(raw->data() + 1);
    if (type == kFrameAck) {
      if (outstanding_.has_value() && outstanding_->id == id) {
        outstanding_.reset();
        ++acked_;
        obs::counter<obs::names::kRpcAcked>().add();
      }
      // Stale acks (for an id we already settled) are harmless.
      continue;
    }
    if (type != kFrameData) {
      throw SecurityError("resilient channel: unknown frame type");
    }
    if (id <= last_delivered_id_) {
      // A retransmission of something we already delivered: the ack was
      // lost. Re-ack so the sender can settle; do NOT deliver again —
      // message ids make retries idempotent.
      ++duplicates_dropped_;
      obs::counter<obs::names::kRpcDuplicatesDropped>().add();
      send_ack(id);
      continue;
    }
    last_delivered_id_ = id;
    send_ack(id);
    ++delivered_;
    obs::counter<obs::names::kRpcDelivered>().add();
    return crypto::Bytes(raw->begin() + kFrameHeader, raw->end());
  }
}

bool ResilientChannel::backoff_and_retransmit() {
  if (!outstanding_.has_value()) return true;
  if (outstanding_->attempt >= policy_.max_attempts) {
    outstanding_.reset();  // abandon: retry budget exhausted
    return false;
  }
  // Sleep (in virtual time) until the deadline, then retransmit. The
  // deadline was jittered when armed, so concurrent retriers decorrelate.
  const std::uint64_t retry_start = clock_->now_ns();
  const std::uint64_t waited =
      outstanding_->deadline_ns > clock_->now_ns()
          ? outstanding_->deadline_ns - clock_->now_ns()
          : 0;
  {
    obs::ScopedCategory attribution(obs::Category::kFaultDelay);
    clock_->advance_to(outstanding_->deadline_ns);
  }
  backoff_history_.push_back(waited);
  channel_.send(outstanding_->frame);
  ++retransmits_;
  obs::counter<obs::names::kRpcRetransmits>().add();
  ++outstanding_->attempt;
  arm_deadline();
  obs::SpanTracer::global().record(obs::span_id<obs::names::kSpanRpcRetry>(),
                                   retry_start, clock_->now_ns());
  return true;
}

crypto::Bytes ResilientChannel::deliver(ResilientChannel& from,
                                        ResilientChannel& to,
                                        crypto::BytesView payload) {
  const std::uint64_t deliver_start = from.clock_->now_ns();
  from.post(payload);
  std::optional<crypto::Bytes> got;
  while (true) {
    // Receiver drains everything in flight (data + duplicates), then the
    // sender collects acks. ChannelDeadError from either side means the
    // peer crashed mid-exchange — transient at the RPC layer.
    while (auto msg = to.poll()) got = std::move(msg);
    while (from.poll().has_value()) {
    }
    if (!from.has_outstanding()) {
      if (!got.has_value()) {
        // Ack arrived for a delivery made during an earlier deliver() call
        // cannot happen under stop-and-wait; defensive.
        throw TransientError("resilient channel: acked without delivery");
      }
      obs::histogram<obs::names::kRpcDeliveryNs>().observe(
          from.clock_->now_ns() - deliver_start);
      return std::move(*got);
    }
    if (!from.backoff_and_retransmit()) {
      throw TransientError(
          "resilient channel: delivery failed after " +
          std::to_string(from.policy_.max_attempts) + " attempts");
    }
  }
}

}  // namespace stf::runtime
