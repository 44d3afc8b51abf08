#include "crypto/gcm.h"

#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace stf::crypto {
namespace {

#if defined(__x86_64__)
// PCLMULQDQ GHASH, after Gueron & Kounavis, "Intel Carry-Less Multiplication
// Instruction and its Usage for Computing the GCM Mode". Blocks are
// byte-reversed on load; the product of two such operands comes out one bit
// short, so the reduction shifts the 256-bit product left by one first.
#define STF_CLMUL __attribute__((target("pclmul,ssse3")))

STF_CLMUL inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
}

STF_CLMUL inline __m128i load_reversed(const std::uint8_t* p) {
  return byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// (lo, hi) ^= a·b, the unreduced 256-bit carry-less product.
STF_CLMUL inline void clmul_accumulate(__m128i a, __m128i b, __m128i& lo,
                                       __m128i& hi) {
  const __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01),
                                    _mm_clmulepi64_si128(a, b, 0x10));
  lo = _mm_xor_si128(lo, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x00),
                                       _mm_slli_si128(mid, 8)));
  hi = _mm_xor_si128(hi, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x11),
                                       _mm_srli_si128(mid, 8)));
}

// Reduces (lo, hi) modulo x^128 + x^7 + x^2 + x + 1. Linear, so a sum of
// several products needs only one reduction.
STF_CLMUL inline __m128i gf_reduce(__m128i lo, __m128i hi) {
  const __m128i carry_lo = _mm_srli_epi32(lo, 31);
  const __m128i carry_hi = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(carry_lo, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(carry_hi, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(carry_lo, 12));

  const __m128i a = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
  const __m128i b = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), _mm_srli_si128(a, 4)));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, b));
}

STF_CLMUL inline __m128i gf_mul(__m128i a, __m128i b) {
  __m128i lo = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  clmul_accumulate(a, b, lo, hi);
  return gf_reduce(lo, hi);
}

STF_CLMUL void clmul_powers(const std::uint8_t* h, std::uint8_t* powers) {
  const __m128i h1 = load_reversed(h);
  __m128i p = h1;
  for (int i = 0; i < 4; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(powers + 16 * i), p);
    p = gf_mul(p, h1);
  }
}

// Absorbs `n` bytes into y, zero-padding the last block. Four blocks fold
// into one reduction: y' = (y^X1)·H^4 ^ X2·H^3 ^ X3·H^2 ^ X4·H.
STF_CLMUL __m128i clmul_absorb(const __m128i* h, __m128i y,
                               const std::uint8_t* p, std::size_t n) {
  for (; n >= 64; p += 64, n -= 64) {
    __m128i lo = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    clmul_accumulate(_mm_xor_si128(y, load_reversed(p)), h[3], lo, hi);
    clmul_accumulate(load_reversed(p + 16), h[2], lo, hi);
    clmul_accumulate(load_reversed(p + 32), h[1], lo, hi);
    clmul_accumulate(load_reversed(p + 48), h[0], lo, hi);
    y = gf_reduce(lo, hi);
  }
  for (; n >= 16; p += 16, n -= 16) {
    y = gf_mul(_mm_xor_si128(y, load_reversed(p)), h[0]);
  }
  if (n > 0) {
    std::uint8_t last[16] = {};
    std::memcpy(last, p, n);
    y = gf_mul(_mm_xor_si128(y, load_reversed(last)), h[0]);
  }
  return y;
}

STF_CLMUL void clmul_ghash(const std::uint8_t* powers, BytesView aad,
                           BytesView ciphertext, const std::uint8_t* lengths,
                           std::uint8_t* out) {
  __m128i h[4];
  for (int i = 0; i < 4; ++i) {
    h[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(powers + 16 * i));
  }
  __m128i y = _mm_setzero_si128();
  y = clmul_absorb(h, y, aad.data(), aad.size());
  y = clmul_absorb(h, y, ciphertext.data(), ciphertext.size());
  y = clmul_absorb(h, y, lengths, 16);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), byte_reverse(y));
}
#endif  // __x86_64__

}  // namespace

AesGcm::AesGcm(BytesView key)
    : AesGcm(key, internal::default_backend(internal::Primitive::kAesGcm)) {}

AesGcm::AesGcm(BytesView key, internal::Backend backend)
    : aes_(key, backend), backend_(backend) {
  aes_.encrypt_block(h_.data());
#if defined(__x86_64__)
  if (backend_ == internal::Backend::kHardware) {
    clmul_powers(h_.data(), h_powers_.data());
  }
#endif
}

// Multiplies x by the GHASH subkey H in GF(2^128) with the GCM bit ordering.
// Bitwise shift-and-add over two 64-bit halves; masks instead of branches,
// so the loop never branches on H or on the data.
void AesGcm::gmul(Block& x) const {
  std::uint64_t v_hi = load_be64(h_.data());
  std::uint64_t v_lo = load_be64(h_.data() + 8);
  std::uint64_t z_hi = 0;
  std::uint64_t z_lo = 0;
  auto step = [&](std::uint64_t bit) {
    const std::uint64_t take = 0 - bit;  // all ones iff the bit is set
    z_hi ^= v_hi & take;
    z_lo ^= v_lo & take;
    // v = v >> 1, reduced by the GCM polynomial when a bit falls off.
    const std::uint64_t reduce = 0 - (v_lo & 1);
    v_lo = (v_lo >> 1) | (v_hi << 63);
    v_hi = (v_hi >> 1) ^ ((std::uint64_t{0xe1} << 56) & reduce);
  };
  const std::uint64_t x_hi = load_be64(x.data());
  const std::uint64_t x_lo = load_be64(x.data() + 8);
  for (int i = 63; i >= 0; --i) step((x_hi >> i) & 1);
  for (int i = 63; i >= 0; --i) step((x_lo >> i) & 1);
  store_be64(x.data(), z_hi);
  store_be64(x.data() + 8, z_lo);
}

AesGcm::Block AesGcm::ghash(BytesView aad, BytesView ciphertext) const {
  Block lengths{};
  store_be64(lengths.data(), std::uint64_t{aad.size()} * 8);
  store_be64(lengths.data() + 8, std::uint64_t{ciphertext.size()} * 8);
  Block y{};
#if defined(__x86_64__)
  if (backend_ == internal::Backend::kHardware) {
    clmul_ghash(h_powers_.data(), aad, ciphertext, lengths.data(), y.data());
    return y;
  }
#endif
  auto absorb = [&](BytesView data) {
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t take = std::min<std::size_t>(16, data.size() - offset);
      for (std::size_t i = 0; i < take; ++i) y[i] ^= data[offset + i];
      gmul(y);
      offset += take;
    }
  };
  absorb(aad);
  absorb(ciphertext);
  absorb(lengths);
  return y;
}

Bytes AesGcm::seal(BytesView nonce, BytesView aad, BytesView plaintext) const {
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("AesGcm: nonce must be 12 bytes");
  }
  // J0 = nonce || 0^31 || 1; data counters start at J0 + 1.
  std::uint8_t j0[16] = {};
  std::memcpy(j0, nonce.data(), kNonceSize);
  j0[15] = 1;
  std::uint8_t ctr1[16];
  std::memcpy(ctr1, j0, 16);
  ctr1[15] = 2;

  Bytes out;
  out.reserve(plaintext.size() + kTagSize);  // the tag appends without a copy
  out.assign(plaintext.begin(), plaintext.end());
  aes_.ctr_xor(ctr1, out.data(), out.size());

  Block tag = ghash(aad, BytesView(out.data(), out.size()));
  std::uint8_t ektag[16];
  std::memcpy(ektag, j0, 16);
  aes_.encrypt_block(ektag);
  for (int i = 0; i < 16; ++i) tag[i] ^= ektag[i];

  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<Bytes> AesGcm::open(BytesView nonce, BytesView aad,
                                  BytesView ciphertext_and_tag) const {
  if (nonce.size() != kNonceSize || ciphertext_and_tag.size() < kTagSize) {
    return std::nullopt;
  }
  const BytesView ciphertext =
      ciphertext_and_tag.first(ciphertext_and_tag.size() - kTagSize);
  const BytesView received_tag = ciphertext_and_tag.last(kTagSize);

  std::uint8_t j0[16] = {};
  std::memcpy(j0, nonce.data(), kNonceSize);
  j0[15] = 1;

  Block tag = ghash(aad, ciphertext);
  std::uint8_t ektag[16];
  std::memcpy(ektag, j0, 16);
  aes_.encrypt_block(ektag);
  for (int i = 0; i < 16; ++i) tag[i] ^= ektag[i];

  if (!ct_equal(BytesView(tag.data(), tag.size()), received_tag)) {
    return std::nullopt;
  }

  std::uint8_t ctr1[16];
  std::memcpy(ctr1, j0, 16);
  ctr1[15] = 2;
  Bytes plaintext(ciphertext.begin(), ciphertext.end());
  aes_.ctr_xor(ctr1, plaintext.data(), plaintext.size());
  return plaintext;
}

}  // namespace stf::crypto
