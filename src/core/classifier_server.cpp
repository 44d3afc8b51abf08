#include "core/classifier_server.h"

#include <cstring>

namespace stf::core {

ClassifierServer::ClassifierServer(InferenceService& service,
                                   crypto::HmacDrbg& rng,
                                   std::int64_t expected_feature_dim)
    : service_(service), rng_(rng), expected_dim_(expected_feature_dim) {}

crypto::Bytes ClassifierServer::encode_request(const ml::Tensor& image) {
  crypto::Bytes out(4);
  crypto::store_be32(out.data(), static_cast<std::uint32_t>(image.size()));
  const auto* raw = reinterpret_cast<const std::uint8_t*>(image.data());
  crypto::append(out, crypto::BytesView(raw, image.byte_size()));
  return out;
}

std::optional<ml::Tensor> ClassifierServer::decode_request(
    crypto::BytesView data, std::int64_t expected_dim) {
  if (data.size() < 4) return std::nullopt;
  const std::uint32_t count = crypto::load_be32(data.data());
  // Iago-style sanity: the host/network may claim absurd sizes.
  if (count == 0 || count > 1u << 24) return std::nullopt;
  if (expected_dim > 0 && count != static_cast<std::uint32_t>(expected_dim)) {
    return std::nullopt;
  }
  if (data.size() != 4 + static_cast<std::size_t>(count) * sizeof(float)) {
    return std::nullopt;
  }
  std::vector<float> values(count);
  std::memcpy(values.data(), data.data() + 4, count * sizeof(float));
  return ml::Tensor({1, static_cast<std::int64_t>(count)}, std::move(values));
}

crypto::Bytes ClassifierServer::encode_reply(const ClassifyReply& reply) {
  crypto::Bytes out;
  out.push_back(reply.ok ? 1 : 0);
  if (!reply.ok) {
    crypto::append(out, crypto::to_bytes(reply.error));
    return out;
  }
  std::uint8_t label_bytes[8];
  crypto::store_be64(label_bytes, static_cast<std::uint64_t>(reply.label));
  crypto::append(out, crypto::BytesView(label_bytes, 8));
  std::uint8_t n[4];
  crypto::store_be32(n, static_cast<std::uint32_t>(reply.probabilities.size()));
  crypto::append(out, crypto::BytesView(n, 4));
  const auto* raw =
      reinterpret_cast<const std::uint8_t*>(reply.probabilities.data());
  crypto::append(out, crypto::BytesView(raw, reply.probabilities.byte_size()));
  return out;
}

std::optional<ClassifyReply> ClassifierServer::decode_reply(
    crypto::BytesView data) {
  if (data.empty()) return std::nullopt;
  ClassifyReply reply;
  if (data[0] == 0) {
    reply.ok = false;
    reply.error.assign(data.begin() + 1, data.end());
    return reply;
  }
  if (data.size() < 1 + 8 + 4) return std::nullopt;
  reply.ok = true;
  reply.label =
      static_cast<std::int64_t>(crypto::load_be64(data.data() + 1));
  const std::uint32_t count = crypto::load_be32(data.data() + 9);
  if (count > 1u << 20 ||
      data.size() != 13 + static_cast<std::size_t>(count) * sizeof(float)) {
    return std::nullopt;
  }
  std::vector<float> probs(count);
  std::memcpy(probs.data(), data.data() + 13, count * sizeof(float));
  reply.probabilities =
      ml::Tensor({1, static_cast<std::int64_t>(count)}, std::move(probs));
  return reply;
}

void ClassifierServer::serve_connection(
    net::Connection conn, const std::function<void()>& client_pump) {
  // Channel handshake: client hello arrives first.
  const auto client_hello = conn.recv();
  if (!client_hello.has_value()) return;
  runtime::ChannelHandshake handshake(runtime::ChannelHandshake::Role::Server,
                                      rng_);
  conn.send(handshake.hello());
  runtime::SecureChannel channel;
  try {
    channel = handshake.finish(*client_hello, conn,
                               service_.platform().model(),
                               service_.platform().clock());
  } catch (const runtime::SecurityError&) {
    ++rejected_;
    return;
  }

  if (client_pump) client_pump();

  // Serve until the client goes quiet or hangs up.
  for (;;) {
    std::optional<crypto::Bytes> request;
    try {
      request = channel.recv();
    } catch (const runtime::SecurityError&) {
      ++rejected_;
      return;  // tampered request: drop the connection
    } catch (const runtime::ChannelDeadError&) {
      return;  // the client closed after its last request
    }
    if (!request.has_value()) return;

    ClassifyReply reply;
    const auto image = decode_request(*request, expected_dim_);
    if (!image.has_value()) {
      reply.ok = false;
      reply.error = "malformed request";
      ++rejected_;
    } else {
      reply.probabilities = service_.classify(*image);
      reply.ok = true;
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < reply.probabilities.size(); ++j) {
        if (reply.probabilities.at(j) > reply.probabilities.at(best)) {
          best = j;
        }
      }
      reply.label = best;
      ++served_;
    }
    channel.send(encode_reply(reply));
  }
}

crypto::Bytes ClassifierClient::hello() {
  handshake_.emplace(runtime::ChannelHandshake::Role::Client, rng_);
  return handshake_->hello();
}

void ClassifierClient::finish(crypto::BytesView server_hello,
                              net::Connection conn) {
  if (!handshake_.has_value()) {
    throw std::logic_error("ClassifierClient: hello() not called");
  }
  channel_ = handshake_->finish(server_hello, conn, model_, clock_);
}

void ClassifierClient::send_image(const ml::Tensor& image) {
  channel_.send(ClassifierServer::encode_request(image));
}

std::optional<ClassifyReply> ClassifierClient::recv_reply() {
  const auto raw = channel_.recv();
  if (!raw.has_value()) return std::nullopt;
  return ClassifierServer::decode_reply(*raw);
}

}  // namespace stf::core
