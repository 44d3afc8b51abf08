#include "runtime/fs_shield.h"

#include <stdexcept>

#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace stf::runtime {
namespace {

crypto::Bytes chunk_aad(const std::string& path, std::uint64_t generation,
                        std::uint64_t chunk_index, std::uint64_t file_size) {
  crypto::Bytes aad = crypto::to_bytes(path);
  std::uint8_t fixed[24];
  crypto::store_be64(fixed, generation);
  crypto::store_be64(fixed + 8, chunk_index);
  crypto::store_be64(fixed + 16, file_size);
  crypto::append(aad, crypto::BytesView(fixed, sizeof fixed));
  return aad;
}

}  // namespace

namespace {
std::uint64_t shield_aead_ns(const FsShieldConfig& cfg,
                             const tee::CostModel& model, std::size_t len) {
  if (cfg.hardware_enclave) {
    return model.aead_record_ns +
           static_cast<std::uint64_t>(static_cast<double>(len) /
                                      model.hw_aead_bandwidth * 1e9);
  }
  return model.aead_ns(len);
}
}  // namespace

ShieldPolicy FsShieldConfig::policy_for(const std::string& path) const {
  ShieldPolicy best = ShieldPolicy::Passthrough;
  std::size_t best_len = 0;
  for (const auto& [prefix, policy] : prefixes) {
    if (path.starts_with(prefix) && prefix.size() >= best_len) {
      best = policy;
      best_len = prefix.size();
    }
  }
  return best;
}

FsShield::FsShield(FsShieldConfig config, crypto::BytesView key,
                   UntrustedFs& host, const tee::CostModel& model,
                   tee::SimClock& clock, crypto::HmacDrbg& rng)
    : config_(std::move(config)),
      aead_(key),
      host_(host),
      model_(model),
      clock_(clock),
      rng_(rng) {
  if (key.size() != 32) {
    throw std::invalid_argument("FsShield: key must be 32 bytes");
  }
  // Separate MAC key for the Authenticate policy (domain separation).
  const auto mac = crypto::hmac_sha256(key, crypto::to_bytes("fs-shield-mac"));
  mac_key_.assign(mac.begin(), mac.end());
}

void FsShield::write(const std::string& path, crypto::BytesView data) {
  const ShieldPolicy policy = config_.policy_for(path);
  const std::uint64_t generation = ++meta_[path].generation;
  meta_[path].size = data.size();
  meta_[path].policy = policy;

  switch (policy) {
    case ShieldPolicy::Passthrough:
      host_.write(path, crypto::Bytes(data.begin(), data.end()));
      return;
    case ShieldPolicy::Authenticate:
    case ShieldPolicy::Encrypt: {
      obs::counter<obs::names::kFsShieldWrites>().add();
      obs::counter<obs::names::kFsShieldBytesSealed>().add(data.size());
      obs::ScopedCategory attribution(obs::Category::kFsShield);
      obs::ScopedSpan span(obs::SpanTracer::global(), clock_,
                           obs::span_id<obs::names::kSpanFsShieldSeal>());
      if (policy == ShieldPolicy::Authenticate) {
        write_authenticated(path, data, generation);
      } else {
        write_encrypted(path, data, generation);
      }
      return;
    }
  }
}

void FsShield::write_encrypted(const std::string& path, crypto::BytesView data,
                               std::uint64_t generation) {
  crypto::Bytes out;
  // Layout: [u64 chunk_count] then per chunk [12B nonce][ciphertext+tag].
  const std::size_t chunk_size = config_.chunk_size;
  const std::uint64_t chunks =
      data.empty() ? 0 : (data.size() + chunk_size - 1) / chunk_size;
  out.resize(8);
  crypto::store_be64(out.data(), chunks);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::size_t offset = c * chunk_size;
    const std::size_t len = std::min(chunk_size, data.size() - offset);
    crypto::Bytes nonce = rng_.generate(crypto::AesGcm::kNonceSize);
    const auto sealed = aead_.seal(
        nonce, chunk_aad(path, generation, c, data.size()),
        data.subspan(offset, len));
    clock_.advance(shield_aead_ns(config_, model_, len));
    crypto::append(out, nonce);
    crypto::append(out, sealed);
  }
  host_.write(path, std::move(out));
}

void FsShield::write_authenticated(const std::string& path,
                                   crypto::BytesView data,
                                   std::uint64_t generation) {
  crypto::Bytes out(data.begin(), data.end());
  crypto::Bytes mac_input = chunk_aad(path, generation, 0, data.size());
  crypto::append(mac_input, data);
  const auto tag = crypto::hmac_sha256(mac_key_, mac_input);
  clock_.advance(shield_aead_ns(config_, model_, data.size()));
  crypto::append(out, crypto::BytesView(tag.data(), tag.size()));
  host_.write(path, std::move(out));
}

void FsShield::rotate_key(crypto::BytesView new_key) {
  if (new_key.size() != 32) {
    throw std::invalid_argument("rotate_key: key must be 32 bytes");
  }
  // Read everything verifiable under the old key first; abort wholesale on
  // any integrity failure so a half-rotated state is impossible.
  std::map<std::string, crypto::Bytes> plaintexts;
  for (const auto& [path, meta] : meta_) {
    if (meta.policy == ShieldPolicy::Passthrough) continue;
    plaintexts.emplace(path, read(path));
  }
  aead_ = crypto::AesGcm(new_key);
  const auto mac = crypto::hmac_sha256(new_key,
                                       crypto::to_bytes("fs-shield-mac"));
  mac_key_.assign(mac.begin(), mac.end());
  for (const auto& [path, plaintext] : plaintexts) {
    write(path, plaintext);  // bumps the generation under the new key
  }
}

crypto::Bytes FsShield::read(const std::string& path) {
  const auto raw = host_.read(path);
  if (!raw.has_value()) {
    // Retryable, not an attack: the untrusted host claiming a file is absent
    // may be a sync lag or a lying host; the caller can retry or rebuild,
    // and freshness metadata catches any later substitution.
    throw TransientError("FsShield: no such file: " + path);
  }
  const auto meta_it = meta_.find(path);
  const ShieldPolicy policy = meta_it != meta_.end()
                                  ? meta_it->second.policy
                                  : config_.policy_for(path);
  switch (policy) {
    case ShieldPolicy::Passthrough:
      return *raw;
    case ShieldPolicy::Authenticate:
    case ShieldPolicy::Encrypt: {
      obs::counter<obs::names::kFsShieldReads>().add();
      try {
        crypto::Bytes plaintext;
        {
          obs::ScopedCategory attribution(obs::Category::kFsShield);
          obs::ScopedSpan span(
              obs::SpanTracer::global(), clock_,
              obs::span_id<obs::names::kSpanFsShieldUnseal>());
          if (meta_it == meta_.end()) {
            throw SecurityError("fs shield: no freshness record for " + path);
          }
          plaintext = policy == ShieldPolicy::Authenticate
                          ? read_authenticated(path, *raw, meta_it->second)
                          : read_encrypted(path, *raw, meta_it->second);
        }
        obs::counter<obs::names::kFsShieldBytesOpened>().add(
            plaintext.size());
        return plaintext;
      } catch (const SecurityError&) {
        obs::counter<obs::names::kFsShieldIntegrityFailures>().add();
        throw;
      }
    }
  }
  throw std::logic_error("unreachable");
}

crypto::Bytes FsShield::read_encrypted(const std::string& path,
                                       const crypto::Bytes& raw,
                                       const ShieldedFileMeta& meta) {
  if (raw.size() < 8) throw SecurityError("fs shield: truncated header");
  const std::uint64_t chunks = crypto::load_be64(raw.data());
  const std::size_t chunk_size = config_.chunk_size;
  const std::uint64_t expected_chunks =
      meta.size == 0 ? 0 : (meta.size + chunk_size - 1) / chunk_size;
  if (chunks != expected_chunks) {
    throw SecurityError("fs shield: chunk count mismatch on " + path);
  }

  crypto::Bytes plaintext;
  plaintext.reserve(meta.size);
  std::size_t cursor = 8;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::size_t expected_len =
        std::min<std::uint64_t>(chunk_size, meta.size - c * chunk_size);
    const std::size_t record_len =
        crypto::AesGcm::kNonceSize + expected_len + crypto::AesGcm::kTagSize;
    if (cursor + record_len > raw.size()) {
      throw SecurityError("fs shield: truncated chunk in " + path);
    }
    const crypto::BytesView nonce(raw.data() + cursor,
                                  crypto::AesGcm::kNonceSize);
    const crypto::BytesView sealed(
        raw.data() + cursor + crypto::AesGcm::kNonceSize,
        expected_len + crypto::AesGcm::kTagSize);
    auto opened =
        aead_.open(nonce, chunk_aad(path, meta.generation, c, meta.size),
                   sealed);
    if (!opened.has_value()) {
      throw SecurityError("fs shield: chunk authentication failed on " + path +
                          " (tamper or rollback)");
    }
    clock_.advance(shield_aead_ns(config_, model_, expected_len));
    crypto::append(plaintext, *opened);
    cursor += record_len;
  }
  if (cursor != raw.size()) {
    throw SecurityError("fs shield: trailing bytes on " + path);
  }
  return plaintext;
}

crypto::Bytes FsShield::read_authenticated(const std::string& path,
                                           const crypto::Bytes& raw,
                                           const ShieldedFileMeta& meta) {
  if (raw.size() < crypto::Sha256::kDigestSize ||
      raw.size() - crypto::Sha256::kDigestSize != meta.size) {
    throw SecurityError("fs shield: size mismatch on " + path);
  }
  const crypto::BytesView data(raw.data(), meta.size);
  const crypto::BytesView tag(raw.data() + meta.size,
                              crypto::Sha256::kDigestSize);
  crypto::Bytes mac_input = chunk_aad(path, meta.generation, 0, meta.size);
  crypto::append(mac_input, data);
  const auto expected = crypto::hmac_sha256(mac_key_, mac_input);
  clock_.advance(shield_aead_ns(config_, model_, meta.size));
  if (!crypto::ct_equal(crypto::BytesView(expected.data(), expected.size()),
                        tag)) {
    throw SecurityError("fs shield: MAC failure on " + path);
  }
  return crypto::Bytes(data.begin(), data.end());
}

}  // namespace stf::runtime
