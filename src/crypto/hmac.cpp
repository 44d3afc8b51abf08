#include "crypto/hmac.h"

#include <stdexcept>

#include "crypto/backend.h"

namespace stf::crypto {

HmacSha256::HmacSha256(BytesView key)
    : HmacSha256(key, internal::default_backend(internal::Primitive::kSha256)) {
}

HmacSha256::HmacSha256(BytesView key, internal::Backend backend)
    : inner_(backend), outer_(backend) {
  rekey(key);
}

void HmacSha256::rekey(BytesView key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  inner_.reset();
  if (key.size() > Sha256::kBlockSize) {  // long keys are hashed first
    inner_.update(key);
    const auto digest = inner_.finish();
    std::copy(digest.begin(), digest.end(), block.begin());
    inner_.reset();
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (auto& b : block) b ^= 0x36;
  inner_.update(block);
  for (auto& b : block) b ^= 0x36 ^ 0x5c;
  outer_.reset();
  outer_.update(block);
}

Sha256::Digest HmacSha256::mac(std::initializer_list<BytesView> parts) const {
  Sha256 inner = inner_;
  for (const BytesView part : parts) inner.update(part);
  const auto inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Sha256::Digest hmac_sha256(BytesView key, BytesView data) {
  return HmacSha256(key).mac(data);
}

Sha256::Digest hkdf_extract(BytesView salt, BytesView ikm) {
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  return hkdf_expand(HmacSha256(prk), info, length);
}

Bytes hkdf_expand(const HmacSha256& prk, BytesView info, std::size_t length) {
  if (length > 255 * Sha256::kDigestSize) {
    throw std::invalid_argument("hkdf_expand: requested length too large");
  }
  // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
  Bytes out;
  out.reserve(length);
  Sha256::Digest t{};
  for (std::uint8_t i = 1; out.size() < length; ++i) {
    const BytesView previous(t.data(), i == 1 ? 0 : t.size());
    t = prk.mac({previous, info, BytesView(&i, 1)});
    const std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  const auto prk = hkdf_extract(salt, ikm);
  return hkdf_expand(BytesView(prk.data(), prk.size()), info, length);
}

}  // namespace stf::crypto
