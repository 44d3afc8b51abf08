// Resilient RPC over the network shield.
//
// SecureChannel guarantees confidentiality/integrity but assumes the happy
// path: a dropped record simply never arrives and callers poll forever. On
// the paper's untrusted cloud (challenge 4, Figures 7-8) loss is the normal
// case, so ResilientChannel layers DTLS-flavoured reliability on top:
//
//   * every application message is framed with a monotonically increasing
//     message id and acknowledged by the receiver;
//   * the sender retransmits on virtual-time deadlines, with bounded
//     attempts, exponential backoff and seeded jitter (deterministic: the
//     whole retry schedule replays bit-for-bit for a fixed seed);
//   * message ids make retries idempotent — a receiver that already
//     delivered id N re-acks and discards the retransmission instead of
//     treating it as an attack (the SecureChannel record underneath is a
//     *fresh* record; true wire replays are still rejected by the record
//     layer's sequence check).
//
// Integrity violations (SecurityError) are never retried: a tampered record
// aborts the exchange immediately. Only TransientErrors burn retry budget.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/drbg.h"
#include "runtime/errors.h"
#include "runtime/secure_channel.h"

namespace stf::runtime {

// The one bounded-retry schedule, shared by every resilient channel and by
// the serving fleet's client retries: attempt k (0-based) times out after
// `kBaseTimeoutNs * kBackoffFactor^k` (capped at kMaxTimeoutNs) plus jitter
// uniform in [0, kMaxJitterNs) from the caller's seeded DRBG, and a message
// is abandoned after kMaxAttempts transmissions.
inline constexpr unsigned kMaxAttempts = 12;
inline constexpr std::uint64_t kBaseTimeoutNs = 2'000'000;  ///< 2 ms virtual
inline constexpr double kBackoffFactor = 2.0;
inline constexpr std::uint64_t kMaxJitterNs = 500'000;
inline constexpr std::uint64_t kMaxTimeoutNs = 500'000'000;  ///< backoff cap

/// Timeout of attempt `attempt` (0-based), before jitter.
[[nodiscard]] std::uint64_t timeout_for(unsigned attempt);

/// One endpoint of a reliable shielded link. Move-only, like the channel it
/// wraps. The channel must be in gap-tolerant mode (allow_gaps) — the ctor
/// enforces it — because retransmission only helps if a loss-induced
/// sequence gap is not itself fatal.
class ResilientChannel {
 public:
  ResilientChannel() = default;
  ResilientChannel(SecureChannel channel, tee::SimClock& clock,
                   std::uint64_t jitter_seed);

  /// Frames `payload` with a fresh message id and transmits it; the frame
  /// stays outstanding (retransmittable) until the matching ack arrives.
  /// Only one message may be outstanding at a time (stop-and-wait).
  void post(crypto::BytesView payload);

  /// Drains one incoming frame, if any. Fresh DATA frames are delivered
  /// (and acked); duplicate DATA frames are re-acked and discarded; ACK
  /// frames settle the outstanding message. Returns the payload only for a
  /// fresh delivery. Throws SecurityError on tampering (never retried) and
  /// ChannelDeadError once the peer is gone.
  std::optional<crypto::Bytes> poll();

  /// True while an unacknowledged message is outstanding.
  [[nodiscard]] bool has_outstanding() const { return outstanding_.has_value(); }

  /// Virtual-time deadline handling: advances this side's clock to the
  /// current attempt's deadline and retransmits the outstanding frame.
  /// Returns false (leaving the message abandoned) once the retry budget is
  /// exhausted.
  bool backoff_and_retransmit();

  /// Drives a full reliable transfer inline (both endpoints live in this
  /// single-threaded simulation): posts on `from`, pumps both sides, backs
  /// off and retransmits until the payload is delivered-and-acked. Returns
  /// the payload as received by `to`. Throws TransientError when the retry
  /// budget runs out or the peer dies.
  static crypto::Bytes deliver(ResilientChannel& from, ResilientChannel& to,
                               crypto::BytesView payload);

  [[nodiscard]] bool valid() const { return channel_.valid(); }
  [[nodiscard]] bool peer_closed() const { return channel_.peer_closed(); }
  [[nodiscard]] SecureChannel& channel() { return channel_; }

  // Telemetry (all deterministic for a fixed seed).
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_;
  }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  /// The backoff delays (ns) actually slept, in order — the "retry
  /// schedule" the determinism tests pin down.
  [[nodiscard]] const std::vector<std::uint64_t>& backoff_history() const {
    return backoff_history_;
  }

 private:
  struct Outstanding {
    std::uint64_t id = 0;
    crypto::Bytes frame;          // framed payload, ready to retransmit
    unsigned attempt = 0;         // attempts already transmitted
    std::uint64_t deadline_ns = 0;
  };

  void send_ack(std::uint64_t id);
  void arm_deadline();

  SecureChannel channel_;
  tee::SimClock* clock_ = nullptr;
  std::unique_ptr<crypto::HmacDrbg> jitter_;
  std::optional<Outstanding> outstanding_;
  std::uint64_t next_id_ = 1;
  std::uint64_t last_delivered_id_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t acked_ = 0;
  std::vector<std::uint64_t> backoff_history_;
};

}  // namespace stf::runtime
