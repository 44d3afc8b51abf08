// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// Every confidentiality+integrity boundary in secureTF — sealed EPC pages,
// file-system-shield chunks, network-shield records, the CAS secret store —
// goes through this AEAD. On x86-64 CPUs with AES-NI and PCLMULQDQ it runs on
// those instructions; elsewhere on the portable code (see backend.h).
#pragma once

#include <optional>

#include "crypto/aes.h"
#include "crypto/bytes.h"

namespace stf::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kTagSize = 16;
  static constexpr std::size_t kNonceSize = 12;

  /// Key must be 16 or 32 bytes (AES-128-GCM / AES-256-GCM).
  explicit AesGcm(BytesView key);
  /// Same, on an explicit implementation (tests compare the two).
  AesGcm(BytesView key, internal::Backend backend);

  /// Encrypts `plaintext` bound to `aad`. Returns ciphertext || tag.
  /// `nonce` must be 12 bytes and MUST be unique per key.
  Bytes seal(BytesView nonce, BytesView aad, BytesView plaintext) const;

  /// Authenticates and decrypts `ciphertext_and_tag`. Returns std::nullopt if
  /// the tag does not verify (tampered data, wrong key, wrong aad or nonce).
  std::optional<Bytes> open(BytesView nonce, BytesView aad,
                            BytesView ciphertext_and_tag) const;

 private:
  using Block = std::array<std::uint8_t, 16>;

  Block ghash(BytesView aad, BytesView ciphertext) const;
  void gmul(Block& x) const;

  Aes aes_;
  internal::Backend backend_;
  Block h_{};  // GHASH subkey: AES_K(0^128)
  // Hardware path only: H, H^2, H^3, H^4, each byte-reversed for PCLMULQDQ.
  std::array<std::uint8_t, 64> h_powers_{};
};

}  // namespace stf::crypto
