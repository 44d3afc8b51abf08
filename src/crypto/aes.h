// AES-128/256 block cipher (FIPS 197) with CTR keystream helper.
//
// This is the cipher behind the file-system shield's chunk sealing, the MEE
// page sealing in the TEE simulator, and the network shield's record layer
// (all via AES-GCM, see gcm.h). On x86-64 CPUs with AES-NI it runs on the
// AES instructions; elsewhere on a portable byte-wise implementation
// (see backend.h).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace stf::crypto {

namespace internal {
enum class Backend : std::uint8_t;  // defined in crypto/backend.h
}

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Constructs the key schedule. `key` must be 16 (AES-128) or 32 (AES-256)
  /// bytes; other lengths throw std::invalid_argument.
  explicit Aes(BytesView key);
  /// Same, on an explicit implementation (tests compare the two).
  Aes(BytesView key, internal::Backend backend);

  /// Encrypts exactly one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// CTR mode: XORs `data` (in place) with the keystream generated from the
  /// 16-byte initial counter block `iv`. The counter is the block's last 4
  /// bytes, big-endian, and wraps mod 2^32 without touching the first 12
  /// (GCM's inc32). Encryption and decryption are the same operation.
  void ctr_xor(const std::uint8_t iv[kBlockSize], std::uint8_t* data,
               std::size_t len) const;

 private:
  int rounds_ = 0;
  internal::Backend backend_;
  // Round keys in byte order, 16 bytes each; AES-256 has 15 of them.
  alignas(16) std::array<std::uint8_t, 240> round_keys_{};
};

}  // namespace stf::crypto
