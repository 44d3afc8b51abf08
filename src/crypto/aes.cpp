#include "crypto/aes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace stf::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline std::uint32_t sub_word(std::uint32_t w) {
  return (std::uint32_t{kSbox[(w >> 24) & 0xff]} << 24) |
         (std::uint32_t{kSbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{kSbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{kSbox[w & 0xff]};
}

inline std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

#if defined(__x86_64__)
// AES-NI kernels. `round_keys` is the byte-order schedule, 16-byte aligned.
#define STF_AESNI __attribute__((target("aes,ssse3")))

STF_AESNI inline __m128i aesni_encrypt(__m128i b, const __m128i* rk,
                                       int rounds) {
  b = _mm_xor_si128(b, rk[0]);
  for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
  return _mm_aesenclast_si128(b, rk[rounds]);
}

STF_AESNI void aesni_encrypt_block(const std::uint8_t* round_keys, int rounds,
                                   std::uint8_t* block) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys);
  auto* p = reinterpret_cast<__m128i*>(block);
  _mm_storeu_si128(p, aesni_encrypt(_mm_loadu_si128(p), rk, rounds));
}

// Eight counter blocks go through the rounds together so the AESENC latency
// of one block hides behind the other seven.
STF_AESNI void aesni_ctr_xor(const std::uint8_t* round_keys, int rounds,
                             const std::uint8_t* iv, std::uint8_t* data,
                             std::size_t len) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys);
  // Byte-reverses the counter word (and only it), so _mm_add_epi32 steps the
  // counter mod 2^32 inside its own lane and never carries into the nonce.
  const __m128i swap_ctr =
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12);
  const __m128i one = _mm_setr_epi32(0, 0, 0, 1);
  __m128i ctr = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv)), swap_ctr);

  constexpr std::size_t kLanes = 8;
  std::size_t offset = 0;
  for (; len - offset >= kLanes * 16; offset += kLanes * 16) {
    __m128i b[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(_mm_shuffle_epi8(ctr, swap_ctr), rk[0]);
      ctr = _mm_add_epi32(ctr, one);
    }
    for (int r = 1; r < rounds; ++r) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        b[j] = _mm_aesenc_si128(b[j], rk[r]);
      }
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
      auto* p = reinterpret_cast<__m128i*>(data + offset + 16 * j);
      const __m128i keystream = _mm_aesenclast_si128(b[j], rk[rounds]);
      _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), keystream));
    }
  }
  for (; offset < len; offset += 16) {
    std::uint8_t keystream[16];
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(keystream),
        aesni_encrypt(_mm_shuffle_epi8(ctr, swap_ctr), rk, rounds));
    ctr = _mm_add_epi32(ctr, one);
    const std::size_t take = std::min<std::size_t>(len - offset, 16);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
  }
}
#endif  // __x86_64__

}  // namespace

Aes::Aes(BytesView key)
    : Aes(key, internal::default_backend(internal::Primitive::kAesGcm)) {}

Aes::Aes(BytesView key, internal::Backend backend) : backend_(backend) {
  if (backend == internal::Backend::kHardware &&
      !internal::hardware_supported(internal::Primitive::kAesGcm)) {
    throw std::invalid_argument("Aes: CPU lacks AES-NI");
  }
  std::size_t nk;  // key length in 32-bit words
  if (key.size() == 16) {
    nk = 4;
    rounds_ = 10;
  } else if (key.size() == 32) {
    nk = 8;
    rounds_ = 14;
  } else {
    throw std::invalid_argument("Aes: key must be 16 or 32 bytes");
  }

  const std::size_t total_words = 4 * (rounds_ + 1);
  std::uint32_t w[60] = {};
  for (std::size_t i = 0; i < nk; ++i) {
    w[i] = load_be32(key.data() + 4 * i);
  }
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^
             (std::uint32_t{kRcon[i / nk]} << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  for (std::size_t i = 0; i < total_words; ++i) {
    store_be32(round_keys_.data() + 4 * i, w[i]);
  }
}

void Aes::encrypt_block(std::uint8_t block[kBlockSize]) const {
#if defined(__x86_64__)
  if (backend_ == internal::Backend::kHardware) {
    aesni_encrypt_block(round_keys_.data(), rounds_, block);
    return;
  }
#endif
  std::uint8_t state[16];
  std::memcpy(state, block, 16);

  auto add_round_key = [&](int round) {
    const std::uint8_t* rk = round_keys_.data() + 16 * round;
    for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
  };

  auto sub_bytes = [&] {
    for (auto& b : state) b = kSbox[b];
  };

  auto shift_rows = [&] {
    // Row r of the state is bytes state[r], state[r+4], state[r+8], state[r+12].
    std::uint8_t t;
    t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    std::swap(state[2], state[10]);
    std::swap(state[6], state[14]);
    t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
  };

  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = state + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] ^= all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1));
      col[1] ^= all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2));
      col[2] ^= all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3));
      col[3] ^= all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0));
    }
  };

  add_round_key(0);
  for (int round = 1; round < rounds_; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(rounds_);

  std::memcpy(block, state, 16);
}

void Aes::ctr_xor(const std::uint8_t iv[kBlockSize], std::uint8_t* data,
                  std::size_t len) const {
#if defined(__x86_64__)
  if (backend_ == internal::Backend::kHardware) {
    aesni_ctr_xor(round_keys_.data(), rounds_, iv, data, len);
    return;
  }
#endif
  std::uint8_t counter[kBlockSize];
  std::memcpy(counter, iv, kBlockSize);
  std::uint8_t keystream[kBlockSize];
  std::size_t offset = 0;
  while (offset < len) {
    std::memcpy(keystream, counter, kBlockSize);
    encrypt_block(keystream);
    const std::size_t take = std::min(len - offset, kBlockSize);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
    offset += take;
    // Increment the big-endian counter in the last 4 bytes (GCM convention).
    for (int i = 15; i >= 12; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

}  // namespace stf::crypto
