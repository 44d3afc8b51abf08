#include "runtime/secure_channel.h"

#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"

namespace stf::runtime {

namespace {
constexpr std::size_t kHelloSize = crypto::X25519::kKeySize + 16;
}  // namespace

ChannelHandshake::ChannelHandshake(Role role, crypto::HmacDrbg& rng)
    : role_(role) {
  rng.fill(secret_.data(), secret_.size());
  crypto::X25519::clamp(secret_);
  pub_ = crypto::X25519::public_from_secret(secret_);
  rng.fill(random_.data(), random_.size());
}

crypto::Bytes ChannelHandshake::hello() const {
  crypto::Bytes out;
  out.reserve(kHelloSize);
  crypto::append(out, crypto::BytesView(pub_.data(), pub_.size()));
  crypto::append(out, crypto::BytesView(random_.data(), random_.size()));
  return out;
}

SecureChannel ChannelHandshake::finish(crypto::BytesView peer_hello,
                                       net::Connection conn,
                                       const tee::CostModel& model,
                                       tee::SimClock& clock) {
  if (peer_hello.size() != kHelloSize) {
    throw SecurityError("handshake: malformed hello");
  }
  crypto::X25519::Key peer_pub{};
  std::copy(peer_hello.begin(), peer_hello.begin() + peer_pub.size(),
            peer_pub.begin());
  if (crypto::ct_equal(crypto::BytesView(peer_pub.data(), peer_pub.size()),
                       crypto::BytesView(pub_.data(), pub_.size()))) {
    throw SecurityError("handshake: reflected public key");
  }

  const auto shared = crypto::X25519::scalarmult(secret_, peer_pub);
  // An all-zero shared secret means the peer sent a low-order point.
  crypto::X25519::Key zero{};
  if (crypto::ct_equal(crypto::BytesView(shared.data(), shared.size()),
                       crypto::BytesView(zero.data(), zero.size()))) {
    throw SecurityError("handshake: low-order peer key");
  }

  // Salt = client random || server random (role-ordered so both sides agree).
  crypto::Bytes salt;
  const crypto::BytesView my_random(random_.data(), random_.size());
  const crypto::BytesView peer_random =
      peer_hello.subspan(crypto::X25519::kKeySize, 16);
  if (role_ == Role::Client) {
    crypto::append(salt, my_random);
    crypto::append(salt, peer_random);
  } else {
    crypto::append(salt, peer_random);
    crypto::append(salt, my_random);
  }

  const auto keys =
      crypto::hkdf(salt, crypto::BytesView(shared.data(), shared.size()),
                   crypto::to_bytes("stf network shield v1"), 16 + 16 + 12 + 12);
  const crypto::BytesView client_key(keys.data(), 16);
  const crypto::BytesView server_key(keys.data() + 16, 16);
  std::array<std::uint8_t, 12> client_iv{}, server_iv{};
  std::copy_n(keys.data() + 32, 12, client_iv.data());
  std::copy_n(keys.data() + 44, 12, server_iv.data());

  // The fixed handshake latency stands in for certificate validation and the
  // wider TLS state machine; the ECDHE itself ran for real above.
  {
    obs::ScopedCategory attribution(obs::Category::kCrypto);
    clock.advance(model.tls_handshake_ns);
  }

  if (role_ == Role::Client) {
    return SecureChannel(std::move(conn), client_key, server_key, client_iv,
                         server_iv, model, clock);
  }
  return SecureChannel(std::move(conn), server_key, client_key, server_iv,
                       client_iv, model, clock);
}

SecureChannel::SecureChannel(net::Connection conn, crypto::BytesView send_key,
                             crypto::BytesView recv_key,
                             std::array<std::uint8_t, 12> send_iv,
                             std::array<std::uint8_t, 12> recv_iv,
                             const tee::CostModel& model, tee::SimClock& clock)
    : conn_(conn),
      send_aead_(std::make_unique<crypto::AesGcm>(send_key)),
      recv_aead_(std::make_unique<crypto::AesGcm>(recv_key)),
      send_iv_(send_iv),
      recv_iv_(recv_iv),
      model_(&model),
      clock_(&clock) {}

std::array<std::uint8_t, 12> SecureChannel::nonce_for(
    const std::array<std::uint8_t, 12>& iv, std::uint64_t seq) const {
  // TLS 1.3 style: the per-record nonce is the static IV XOR the sequence
  // number, guaranteeing uniqueness without transmitting the nonce.
  std::array<std::uint8_t, 12> nonce = iv;
  for (int i = 0; i < 8; ++i) {
    nonce[11 - i] ^= static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

void SecureChannel::send(crypto::BytesView plaintext) {
  if (!valid()) throw std::logic_error("send on invalid SecureChannel");
  // Header: sequence number + length, authenticated as AAD.
  crypto::Bytes header(12);
  crypto::store_be64(header.data(), send_seq_);
  crypto::store_be32(header.data() + 8,
                     static_cast<std::uint32_t>(plaintext.size()));
  const auto nonce = nonce_for(send_iv_, send_seq_);
  const auto sealed = send_aead_->seal(
      crypto::BytesView(nonce.data(), nonce.size()), header, plaintext);
  {
    obs::ScopedCategory attribution(obs::Category::kCrypto);
    clock_->advance(model_->netshield_ns(plaintext.size()));
  }

  crypto::Bytes record = header;
  crypto::append(record, sealed);
  conn_.send(record);
  ++send_seq_;
  obs::counter<obs::names::kChannelRecordsSent>().add();
  obs::counter<obs::names::kChannelBytesSent>().add(plaintext.size());
}

std::optional<crypto::Bytes> SecureChannel::recv() {
  if (!valid()) throw std::logic_error("recv on invalid SecureChannel");
  while (true) {
    auto raw = conn_.recv();
    if (!raw.has_value()) {
      if (conn_.peer_closed()) {
        throw ChannelDeadError("secure channel: peer gone (crashed or closed)");
      }
      return std::nullopt;
    }
    if (raw->size() < 12 + crypto::AesGcm::kTagSize) {
      throw SecurityError("network shield: truncated record");
    }
    const crypto::BytesView header(raw->data(), 12);
    const std::uint64_t seq = crypto::load_be64(raw->data());
    if (allow_gaps_) {
      if (seq < recv_seq_) {
        // At or below the high-water mark: a benign network duplicate or a
        // replay attack. Either way it is rejected, never delivered
        // (DTLS-style silent discard — aborting would let loss-induced
        // duplicates kill the channel).
        ++replays_rejected_;
        obs::counter<obs::names::kChannelReplaysRejected>().add();
        continue;
      }
    } else if (seq != recv_seq_) {
      throw SecurityError("network shield: sequence violation (replay/reorder)");
    }
    const auto nonce = nonce_for(recv_iv_, seq);
    const auto opened = recv_aead_->open(
        crypto::BytesView(nonce.data(), nonce.size()), header,
        crypto::BytesView(raw->data() + 12, raw->size() - 12));
    if (!opened.has_value()) {
      throw SecurityError("network shield: record authentication failed");
    }
    if (opened->size() != crypto::load_be32(raw->data() + 8)) {
      throw SecurityError("network shield: length mismatch");
    }
    {
      obs::ScopedCategory attribution(obs::Category::kCrypto);
      clock_->advance(model_->netshield_ns(opened->size()));
    }
    recv_seq_ = seq + 1;
    obs::counter<obs::names::kChannelRecordsReceived>().add();
    return opened;
  }
}

}  // namespace stf::runtime
