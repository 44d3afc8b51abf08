// SHA-256 (FIPS 180-4), the hash underlying enclave measurements (MRENCLAVE),
// HMAC, HKDF, the HMAC-DRBG and the audit-log hash chain. On x86-64 CPUs
// with the SHA extensions it runs on those instructions; elsewhere on the
// portable code (see backend.h).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace stf::crypto {

namespace internal {
enum class Backend : std::uint8_t;  // defined in crypto/backend.h
}

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();
  /// Same, on an explicit implementation (tests compare the two). kHardware
  /// on a CPU without the SHA extensions throws std::invalid_argument.
  explicit Sha256(internal::Backend backend);

  /// Absorbs more input; may be called any number of times.
  void update(BytesView data);

  /// Finalizes and returns the digest. The object must not be reused after
  /// calling finish() without calling reset().
  Digest finish();

  /// Restores the initial state so the object can hash a fresh message.
  void reset();

  /// One-shot convenience for the common case.
  static Digest hash(BytesView data);

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into the state.
  void compress(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  internal::Backend backend_;
};

/// Digest as a Bytes value (handy when digests flow into protocols).
inline Bytes sha256(BytesView data) {
  auto d = Sha256::hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace stf::crypto
