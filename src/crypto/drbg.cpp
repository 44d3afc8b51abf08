#include "crypto/drbg.h"

#include <stdexcept>

#include "crypto/backend.h"

namespace stf::crypto {

namespace {
constexpr std::array<std::uint8_t, Sha256::kDigestSize> kInitialKey{};
}  // namespace

HmacDrbg::HmacDrbg(BytesView seed)
    : HmacDrbg(seed, internal::default_backend(internal::Primitive::kSha256)) {}

HmacDrbg::HmacDrbg(BytesView seed, internal::Backend backend)
    : key_(kInitialKey, backend) {
  value_.fill(0x01);
  update(seed);
}

void HmacDrbg::update(BytesView provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V); then the same with
  // 0x01 when `provided` is non-empty.
  for (const std::uint8_t round : {std::uint8_t{0x00}, std::uint8_t{0x01}}) {
    if (round == 0x01 && provided.empty()) return;
    key_.rekey(key_.mac({value_, BytesView(&round, 1), provided}));
    value_ = key_.mac(value_);
  }
}

void HmacDrbg::fill(std::uint8_t* out, std::size_t length) {
  std::size_t produced = 0;
  while (produced < length) {
    value_ = key_.mac(value_);
    const std::size_t take = std::min(value_.size(), length - produced);
    std::copy(value_.begin(), value_.begin() + take, out + produced);
    produced += take;
  }
  update({});
}

Bytes HmacDrbg::generate(std::size_t length) {
  Bytes out(length);
  fill(out.data(), out.size());
  return out;
}

void HmacDrbg::reseed(BytesView entropy) { update(entropy); }

std::uint64_t HmacDrbg::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("uniform: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  for (;;) {
    std::uint8_t raw[8];
    fill(raw, 8);
    const std::uint64_t v = load_be64(raw);
    if (v < limit) return v % bound;
  }
}

}  // namespace stf::crypto
