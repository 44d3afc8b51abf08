// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HMAC authenticates quotes and audit records and drives the HMAC-DRBG; HKDF
// derives the session, sealing and record keys used throughout the shields
// and the CAS protocol.
#pragma once

#include <initializer_list>

#include "crypto/bytes.h"
#include "crypto/sha256.h"

namespace stf::crypto {

/// HMAC-SHA256 under one key. The key's ipad and opad blocks are hashed once,
/// when the key is set; every mac() resumes from those two midstates. A MAC
/// over at most 55 bytes therefore costs two compressions, not four.
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);
  /// Same, on an explicit SHA-256 implementation (tests compare the two).
  HmacSha256(BytesView key, internal::Backend backend);

  /// Replaces the key (same SHA-256 implementation).
  void rekey(BytesView key);

  /// HMAC(key, data).
  [[nodiscard]] Sha256::Digest mac(BytesView data) const { return mac({data}); }
  /// HMAC(key, parts[0] || parts[1] || ...), without joining the parts.
  [[nodiscard]] Sha256::Digest mac(std::initializer_list<BytesView> parts) const;

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// Computes HMAC-SHA256(key, data).
Sha256::Digest hmac_sha256(BytesView key, BytesView data);

/// HKDF-Extract: compresses input keying material into a pseudorandom key.
Sha256::Digest hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: stretches a pseudorandom key into `length` output bytes bound
/// to `info`. `length` must be at most 255 * 32 bytes.
Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length);
/// Same, with the pseudorandom key already set as an HMAC key.
Bytes hkdf_expand(const HmacSha256& prk, BytesView info, std::size_t length);

/// Convenience extract-then-expand.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

}  // namespace stf::crypto
