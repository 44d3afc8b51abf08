// Network-facing classification service (§4.2).
//
// "We developed a classifier service from scratch. The service takes
// classification requests via network, and uses TensorFlow Lite for
// inference." This is that service: clients attest it (via CAS, out of
// band), then stream images over the network shield and get class
// probabilities back. The request wire format is defensive — the service
// lives on an untrusted network.
#pragma once

#include <memory>
#include <optional>

#include "core/inference.h"
#include "crypto/drbg.h"
#include "net/network.h"
#include "runtime/secure_channel.h"

namespace stf::core {

/// Classification reply: label + probabilities, or a refusal.
struct ClassifyReply {
  bool ok = false;
  std::int64_t label = -1;
  ml::Tensor probabilities;
  std::string error;
};

class ClassifierServer {
 public:
  /// Serves `service` (already launched on its platform). `rng` drives the
  /// channel handshakes.
  ClassifierServer(InferenceService& service, crypto::HmacDrbg& rng,
                   std::int64_t expected_feature_dim);

  /// Accepts one client connection: channel handshake, then any number of
  /// classification requests until the client stops sending (goes quiet or
  /// closes its end). A tampered request drops the connection and counts a
  /// rejection.
  /// `client_pump` is invoked after the server hello goes out so the
  /// single-threaded simulation can run the client's next step.
  void serve_connection(net::Connection conn,
                        const std::function<void()>& client_pump);

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }
  [[nodiscard]] std::uint64_t requests_rejected() const { return rejected_; }

  // --- wire format ---------------------------------------------------------
  /// Request: [u32 feature_count][f32 features...].
  static crypto::Bytes encode_request(const ml::Tensor& image);
  static std::optional<ml::Tensor> decode_request(crypto::BytesView data,
                                                  std::int64_t expected_dim);
  /// Reply: [u8 ok][i64 label][u32 n][f32 probs...] or [u8 0][error bytes].
  static crypto::Bytes encode_reply(const ClassifyReply& reply);
  static std::optional<ClassifyReply> decode_reply(crypto::BytesView data);

 private:
  InferenceService& service_;
  crypto::HmacDrbg& rng_;
  std::int64_t expected_dim_;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Client side: connects, shields the channel, sends images, reads replies.
class ClassifierClient {
 public:
  ClassifierClient(crypto::HmacDrbg& rng, const tee::CostModel& model,
                   tee::SimClock& clock)
      : rng_(rng), model_(model), clock_(clock) {}

  /// Starts the handshake; send the returned hello as the first message.
  crypto::Bytes hello();
  /// Completes the channel from the server's hello.
  void finish(crypto::BytesView server_hello, net::Connection conn);

  /// Sends one image (requires an established channel).
  void send_image(const ml::Tensor& image);
  /// Receives the classification reply for the oldest outstanding image.
  std::optional<ClassifyReply> recv_reply();

 private:
  crypto::HmacDrbg& rng_;
  const tee::CostModel& model_;
  tee::SimClock& clock_;
  std::optional<runtime::ChannelHandshake> handshake_;
  runtime::SecureChannel channel_;
};

}  // namespace stf::core
