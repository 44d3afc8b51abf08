// File-system shield (§3.3): transparent confidentiality + integrity +
// freshness for files on the untrusted host filesystem.
//
// Per user-configured path prefixes a file is either encrypted (AES-GCM per
// chunk), only authenticated (HMAC over plaintext), or passed through. Files
// are split into chunks handled separately; chunk metadata (nonces, file
// generation) lives inside the enclave where the host cannot touch it.
// Generations are monotonically bumped on every write and bound into each
// chunk's AAD, which defeats rollback and chunk mix-and-match attacks; the
// generation table can additionally be anchored in the CAS audit log so
// freshness survives enclave restarts (§3.3.2).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "runtime/errors.h"
#include "runtime/untrusted_fs.h"
#include "tee/cost_model.h"
#include "tee/sim_clock.h"

namespace stf::runtime {

enum class ShieldPolicy : std::uint8_t {
  Passthrough,   ///< raw bytes, no protection (public data)
  Authenticate,  ///< integrity + freshness, plaintext visible
  Encrypt,       ///< confidentiality + integrity + freshness
};

/// Shield crypto always runs AES-GCM/HMAC on every byte. The enum and
/// `FsShieldConfig::fidelity` keep their one value so that configurations
/// which name it (the perfbench cold-start workload does) still compile.
enum class CryptoFidelity : std::uint8_t { Real };

struct FsShieldConfig {
  /// Longest-prefix-match rules, evaluated per file path.
  std::vector<std::pair<std::string, ShieldPolicy>> prefixes;
  std::size_t chunk_size = 64 * 1024;
  CryptoFidelity fidelity = CryptoFidelity::Real;
  /// Set when the shield runs inside an SGX enclave in Hardware mode: chunk
  /// crypto is charged at the (much lower) in-enclave AEAD bandwidth.
  bool hardware_enclave = false;

  [[nodiscard]] ShieldPolicy policy_for(const std::string& path) const;
};

/// In-enclave freshness record of one shielded file.
struct ShieldedFileMeta {
  std::uint64_t generation = 0;
  std::uint64_t size = 0;
  ShieldPolicy policy = ShieldPolicy::Passthrough;
};

class FsShield {
 public:
  /// `key` is the file-system-shield key provisioned through CAS (32 bytes).
  FsShield(FsShieldConfig config, crypto::BytesView key, UntrustedFs& host,
           const tee::CostModel& model, tee::SimClock& clock,
           crypto::HmacDrbg& rng);

  /// Writes `data` to `path`, applying the configured policy.
  void write(const std::string& path, crypto::BytesView data);

  /// Reads and verifies `path`. Throws SecurityError on any integrity or
  /// freshness violation; throws TransientError if the file is missing or
  /// the host I/O fails (retryable — see runtime/errors.h).
  [[nodiscard]] crypto::Bytes read(const std::string& path);

  [[nodiscard]] bool exists(const std::string& path) const {
    return host_.exists(path);
  }

  /// Key rotation: re-encrypts every shielded file under `new_key` (32
  /// bytes) and switches the shield to it. Generations bump, so blobs
  /// sealed under the old key are rejected afterwards — the recovery path
  /// after a suspected key compromise, and routine hygiene for long-lived
  /// deployments.
  void rotate_key(crypto::BytesView new_key);

  /// Exports the freshness table (path -> generation) for anchoring in the
  /// CAS audit log; import restores it after an enclave restart.
  [[nodiscard]] std::map<std::string, ShieldedFileMeta> export_meta() const {
    return meta_;
  }
  void import_meta(std::map<std::string, ShieldedFileMeta> meta) {
    meta_ = std::move(meta);
  }

  [[nodiscard]] const FsShieldConfig& config() const { return config_; }

 private:
  void write_encrypted(const std::string& path, crypto::BytesView data,
                       std::uint64_t generation);
  void write_authenticated(const std::string& path, crypto::BytesView data,
                           std::uint64_t generation);
  [[nodiscard]] crypto::Bytes read_encrypted(const std::string& path,
                                             const crypto::Bytes& raw,
                                             const ShieldedFileMeta& meta);
  [[nodiscard]] crypto::Bytes read_authenticated(const std::string& path,
                                                 const crypto::Bytes& raw,
                                                 const ShieldedFileMeta& meta);

  FsShieldConfig config_;
  crypto::AesGcm aead_;
  crypto::Bytes mac_key_;
  UntrustedFs& host_;
  const tee::CostModel& model_;
  tee::SimClock& clock_;
  crypto::HmacDrbg& rng_;
  std::map<std::string, ShieldedFileMeta> meta_;  // in-enclave, host-invisible
};

}  // namespace stf::runtime
