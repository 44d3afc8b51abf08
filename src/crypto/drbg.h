// HMAC-DRBG (NIST SP 800-90A) deterministic random bit generator.
//
// All nonces, ephemeral keys and simulated-entropy draws come from DRBG
// instances. Tests and benchmarks seed them deterministically so every run of
// the reproduction is bit-for-bit repeatable; production-style use seeds from
// the OS entropy pool.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace stf::crypto {

class HmacDrbg {
 public:
  /// Instantiates from seed material (entropy || nonce || personalization).
  explicit HmacDrbg(BytesView seed);
  /// Same, on an explicit SHA-256 implementation (tests compare the two).
  HmacDrbg(BytesView seed, internal::Backend backend);

  /// Generates `length` pseudorandom bytes.
  Bytes generate(std::size_t length);

  /// Fills an arbitrary trivially-copyable buffer.
  void fill(std::uint8_t* out, std::size_t length);

  /// Mixes additional entropy into the state.
  void reseed(BytesView entropy);

  /// Convenience: uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

 private:
  void update(BytesView provided);

  HmacSha256 key_;  // HMAC keyed with the state's K
  std::array<std::uint8_t, Sha256::kDigestSize> value_{};
};

/// Process-wide DRBG seeded from std::random_device, for code paths that do
/// not need determinism (e.g. example binaries).
HmacDrbg& system_drbg();

}  // namespace stf::crypto
