#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace stf::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

void portable_compress(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^
                             (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^
                             (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
// SHA-NI compression, after Gulley et al., "Intel SHA Extensions" (2013).
// The state lives in two registers, (A,B,E,F) and (C,D,G,H); each
// sha256rnds2 runs two rounds, and msg1/msg2 extend the message schedule
// four words at a time.
#define STF_SHANI __attribute__((target("sha,sse4.1,ssse3")))

STF_SHANI void shani_compress(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  const __m128i bswap32 =
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[j % 4] holds message words W[4j..4j+3] while rounds 4j..4j+3 run.
    // Fully unrolled, every index is a constant and w stays in registers.
    __m128i w[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      if (j < 4) {
        w[j] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)),
            bswap32);
      }
      const __m128i wk = _mm_add_epi32(w[j % 4], _mm_loadu_si128(k + j));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (j >= 3 && j < 15) {
        // W[t] for t = 4j+4..4j+7: the slot already holds
        // W[t-16] + sigma0(W[t-15]) (msg1); add W[t-7], then msg2 adds
        // sigma1(W[t-2]).
        __m128i& next = w[(j + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[j % 4], w[(j + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[j % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (j >= 1 && j < 13) {
        w[(j + 3) % 4] = _mm_sha256msg1_epu32(w[(j + 3) % 4], w[j % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif  // __x86_64__

}  // namespace

Sha256::Sha256()
    : Sha256(internal::default_backend(internal::Primitive::kSha256)) {}

Sha256::Sha256(internal::Backend backend) : backend_(backend) {
  if (backend == internal::Backend::kHardware &&
      !internal::hardware_supported(internal::Primitive::kSha256)) {
    throw std::invalid_argument("Sha256: CPU lacks the SHA extensions");
  }
  reset();
}

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) {
#if defined(__x86_64__)
  if (backend_ == internal::Backend::kHardware) {
    shani_compress(state_.data(), data, blocks);
    return;
  }
#endif
  for (; blocks > 0; --blocks, data += kBlockSize) {
    portable_compress(state_, data);
  }
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, n);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    if (buffer_len_ < kBlockSize) return;
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
    p += take;
    n -= take;
  }
  const std::size_t blocks = n / kBlockSize;
  if (blocks > 0) compress(p, blocks);
  buffer_len_ = n % kBlockSize;
  std::memcpy(buffer_.data(), p + blocks * kBlockSize, buffer_len_);
}

Sha256::Digest Sha256::finish() {
  // Pad with 0x80 then zeros up to 56 mod 64, then the 8-byte bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::fill(buffer_.begin() + buffer_len_, buffer_.end(), 0);
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + buffer_len_, buffer_.end() - 8, 0);
  store_be64(buffer_.data() + kBlockSize - 8, bit_len);
  compress(buffer_.data(), 1);

  Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace stf::crypto
