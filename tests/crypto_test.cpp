// Unit tests for the cryptographic substrate, validated against published
// test vectors (FIPS 180-4, RFC 4231, FIPS 197, NIST GCM, RFC 7748, RFC 5869).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/backend.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

namespace stf::crypto {
namespace {

using internal::Backend;
using internal::Primitive;

std::string hex_digest(const Sha256::Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

// The implementations of `primitive` this CPU runs: the portable reference
// always, the hardware path (AES-NI/PCLMULQDQ or SHA-NI) where the CPU has it.
std::vector<Backend> backends(Primitive primitive) {
  std::vector<Backend> out = {Backend::kPortable};
  if (internal::hardware_supported(primitive)) {
    out.push_back(Backend::kHardware);
  }
  return out;
}

const char* name(Backend b) {
  return b == Backend::kHardware ? "hardware" : "portable";
}

Sha256::Digest sha256_on(Backend b, BytesView data) {
  Sha256 h(b);
  h.update(data);
  return h.finish();
}

TEST(Sha256Test, EmptyString) {
  for (Backend b : backends(Primitive::kSha256)) {
    EXPECT_EQ(hex_digest(sha256_on(b, {})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << name(b);
  }
}

TEST(Sha256Test, Abc) {
  const auto msg = to_bytes("abc");
  for (Backend b : backends(Primitive::kSha256)) {
    EXPECT_EQ(hex_digest(sha256_on(b, msg)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << name(b);
  }
}

TEST(Sha256Test, TwoBlockMessage) {
  const auto msg =
      to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  for (Backend b : backends(Primitive::kSha256)) {
    EXPECT_EQ(hex_digest(sha256_on(b, msg)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << name(b);
  }
}

TEST(Sha256Test, MillionAs) {
  const Bytes chunk(1000, 'a');
  for (Backend b : backends(Primitive::kSha256)) {
    Sha256 h(b);
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex_digest(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << name(b);
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const auto msg = to_bytes("The quick brown fox jumps over the lazy dog");
  for (Backend b : backends(Primitive::kSha256)) {
    for (std::size_t split = 0; split <= msg.size(); ++split) {
      Sha256 h(b);
      h.update(BytesView(msg.data(), split));
      h.update(BytesView(msg.data() + split, msg.size() - split));
      EXPECT_EQ(h.finish(), Sha256::hash(msg)) << name(b) << " split=" << split;
    }
  }
}

TEST(Sha256Test, PaddingBoundaryLengths) {
  // Lengths straddling the 55/56/63/64 padding boundaries must all hash
  // without corrupting internal state.
  for (Backend backend : backends(Primitive::kSha256)) {
    for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
      const Bytes msg(len, 0x5a);
      Sha256 a(backend);
      a.update(msg);
      const auto one_shot = a.finish();
      Sha256 b(backend);
      for (std::size_t i = 0; i < len; ++i) b.update(BytesView(&msg[i], 1));
      EXPECT_EQ(one_shot, b.finish()) << name(backend) << " len=" << len;
    }
  }
}

// Every length 0-300, then the lengths around a 64 KiB message.
std::vector<std::size_t> sha_sweep_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n = 65531; n <= 65541; ++n) lengths.push_back(n);
  return lengths;
}

Bytes sweep_message(std::size_t len) {
  Bytes m(len);
  for (std::size_t i = 0; i < len; ++i) {
    m[i] = static_cast<std::uint8_t>(i * 131 + len);
  }
  return m;
}

// SHA-256 over every sweep message's digest, as produced by the
// implementation before the hardware path existed. Both paths must keep it.
TEST(Sha256Test, SweepDigestsMatchPinnedDigest) {
  for (Backend b : backends(Primitive::kSha256)) {
    Sha256 all;
    for (const std::size_t n : sha_sweep_lengths()) {
      all.update(sha256_on(b, sweep_message(n)));
    }
    EXPECT_EQ(hex_digest(all.finish()),
              "ebd2b20f2c084fdaafbae3d1c16ff1f6f09a4a3ff53e2cb685a83c6741ea40f0")
        << name(b);
  }
}

// Up to 130 bytes, every two-way split of the input too: the buffered
// partial block and the bulk path must meet at every offset.
TEST(Sha256Test, HardwareMatchesPortableAcrossLengthsAndSplits) {
  if (!internal::hardware_supported(Primitive::kSha256)) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  for (const std::size_t n : sha_sweep_lengths()) {
    const Bytes msg = sweep_message(n);
    const auto expect = sha256_on(Backend::kPortable, msg);
    ASSERT_EQ(sha256_on(Backend::kHardware, msg), expect) << "len=" << n;
    if (n > 130) continue;
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h(Backend::kHardware);
      h.update(BytesView(msg.data(), split));
      h.update(BytesView(msg.data() + split, n - split));
      ASSERT_EQ(h.finish(), expect) << "len=" << n << " split=" << split;
    }
  }
}

// hmac_sha256 on the default implementation, HmacSha256 on each one.
void expect_hmac(BytesView key, BytesView data, const std::string& expect) {
  EXPECT_EQ(hex_digest(hmac_sha256(key, data)), expect);
  for (Backend b : backends(Primitive::kSha256)) {
    EXPECT_EQ(hex_digest(HmacSha256(key, b).mac(data)), expect) << name(b);
  }
}

TEST(HmacTest, Rfc4231Case1) {
  expect_hmac(Bytes(20, 0x0b), to_bytes("Hi There"),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  expect_hmac(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  expect_hmac(
      Bytes(131, 0xaa),
      to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// Keys shorter than, equal to and longer than a block (longer ones are
// hashed first). A keyed object gives hmac_sha256's bytes whether the
// message comes whole or in parts, and after a rekey; the digest of all
// of them is pinned from the implementation before the keyed object.
TEST(HmacTest, KeyedObjectMatchesOneShot) {
  Sha256 all;
  for (const std::size_t key_len : {0u, 32u, 64u, 65u, 200u}) {
    const Bytes key = sweep_message(key_len);
    for (Backend b : backends(Primitive::kSha256)) {
      const HmacSha256 keyed(key, b);
      HmacSha256 rekeyed(to_bytes("some other key"), b);
      rekeyed.rekey(key);
      for (const std::size_t n : {0u, 1u, 32u, 55u, 56u, 64u, 65u, 200u}) {
        const Bytes msg = sweep_message(n);
        const auto expect = hmac_sha256(key, msg);
        const auto where = std::string(name(b)) + " key=" +
                           std::to_string(key_len) + " len=" +
                           std::to_string(n);
        EXPECT_EQ(keyed.mac(msg), expect) << where;
        EXPECT_EQ(rekeyed.mac(msg), expect) << where;
        const BytesView view(msg);
        EXPECT_EQ(keyed.mac({view.first(n / 3), {}, view.subspan(n / 3)}),
                  expect)
            << where;
        if (b == Backend::kPortable) all.update(expect);
      }
    }
  }
  EXPECT_EQ(hex_digest(all.finish()),
            "a33444fb4226b6f637980b5b4f1db782079b0b6f9f5906b66bab0a7d77ba81c2");
}

// hkdf on the default implementation; extract + expand through HmacSha256
// on each one.
void expect_hkdf(BytesView salt, BytesView ikm, BytesView info,
                 const std::string& expect) {
  EXPECT_EQ(to_hex(hkdf(salt, ikm, info, 42)), expect);
  for (Backend b : backends(Primitive::kSha256)) {
    const HmacSha256 prk(HmacSha256(salt, b).mac(ikm), b);
    EXPECT_EQ(to_hex(hkdf_expand(prk, info, 42)), expect) << name(b);
  }
}

TEST(HkdfTest, Rfc5869Case1) {
  expect_hkdf(from_hex("000102030405060708090a0b0c"), Bytes(22, 0x0b),
              from_hex("f0f1f2f3f4f5f6f7f8f9"),
              "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  expect_hkdf({}, Bytes(22, 0x0b), {},
              "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
              "9d201395faa4b61a96c8");
}

TEST(AesTest, Fips197Aes128) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  for (Backend b : backends(Primitive::kAesGcm)) {
    Aes aes(key, b);
    auto block = from_hex("00112233445566778899aabbccddeeff");
    aes.encrypt_block(block.data());
    EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a") << name(b);
  }
}

TEST(AesTest, Fips197Aes256) {
  const auto key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  for (Backend b : backends(Primitive::kAesGcm)) {
    Aes aes(key, b);
    auto block = from_hex("00112233445566778899aabbccddeeff");
    aes.encrypt_block(block.data());
    EXPECT_EQ(to_hex(block), "8ea2b7ca516745bfeafc49904b496089") << name(b);
  }
}

TEST(AesTest, RejectsBadKeySize) {
  const Bytes key(24, 0);  // AES-192 intentionally unsupported
  EXPECT_THROW(Aes{key}, std::invalid_argument);
}

TEST(AesTest, CtrRoundTrip) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes aes(key);
  Bytes data = to_bytes("counter mode round trip with arbitrary length !");
  const Bytes original = data;
  std::uint8_t iv[16] = {0};
  iv[15] = 1;
  aes.ctr_xor(iv, data.data(), data.size());
  EXPECT_NE(data, original);
  aes.ctr_xor(iv, data.data(), data.size());
  EXPECT_EQ(data, original);
}

// GCM's inc32 steps only the last 4 bytes, mod 2^32. Starting at fffffffe,
// the third block's counter wraps to 00000000 inside the hardware path's
// first 8-block stride; the nonce bytes must not change.
TEST(AesTest, CtrCounterWrapsWithoutCarryIntoNonce) {
  const auto nonce = from_hex("cafebabefacedbaddecaf888");
  for (const std::size_t key_size : {16u, 32u}) {
    const Bytes key(key_size, 0x24);
    const Aes reference(key, Backend::kPortable);
    for (Backend b : backends(Primitive::kAesGcm)) {
      const Aes aes(key, b);
      std::uint8_t iv[16];
      std::memcpy(iv, nonce.data(), 12);
      store_be32(iv + 12, 0xfffffffe);
      Bytes keystream(2 * 8 * 16 + 5, 0);  // two 8-block strides + a tail
      aes.ctr_xor(iv, keystream.data(), keystream.size());
      for (std::size_t i = 0; i * 16 < keystream.size(); ++i) {
        std::uint8_t expect[16];
        std::memcpy(expect, nonce.data(), 12);
        store_be32(expect + 12, static_cast<std::uint32_t>(0xfffffffe + i));
        reference.encrypt_block(expect);
        const std::size_t take =
            std::min<std::size_t>(16, keystream.size() - i * 16);
        EXPECT_EQ(to_hex(BytesView(keystream.data() + i * 16, take)),
                  to_hex(BytesView(expect, take)))
            << name(b) << " key=" << key_size << " block=" << i;
      }
    }
  }
}

// NIST GCM test vector (AES-128, 96-bit IV, with AAD).
TEST(GcmTest, NistVectorWithAad) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  const auto plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const auto expect_ct = from_hex(
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  const auto expect_tag = from_hex("5bc94fbc3221a5db94fae95ae7121a47");
  for (Backend b : backends(Primitive::kAesGcm)) {
    AesGcm gcm(key, b);
    const auto sealed = gcm.seal(iv, aad, plaintext);
    ASSERT_EQ(sealed.size(), expect_ct.size() + expect_tag.size());
    EXPECT_EQ(to_hex(BytesView(sealed.data(), expect_ct.size())),
              to_hex(expect_ct))
        << name(b);
    EXPECT_EQ(to_hex(BytesView(sealed.data() + expect_ct.size(), 16)),
              to_hex(expect_tag))
        << name(b);

    const auto opened = gcm.open(iv, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << name(b);
    EXPECT_EQ(*opened, plaintext) << name(b);
  }
}

// NIST GCM test case 3: AES-128, 64 bytes, no AAD. Exactly one 4-block
// stride of the hardware GHASH.
TEST(GcmTest, NistCase3FourBlocksNoAad) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  const auto plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const std::string expect =
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
      "4d5c2af327cd64a62cf35abd2ba6fab4";
  for (Backend b : backends(Primitive::kAesGcm)) {
    AesGcm gcm(key, b);
    const auto sealed = gcm.seal(iv, {}, plaintext);
    EXPECT_EQ(to_hex(sealed), expect) << name(b);
    const auto opened = gcm.open(iv, {}, sealed);
    ASSERT_TRUE(opened.has_value()) << name(b);
    EXPECT_EQ(*opened, plaintext) << name(b);
  }
}

// NIST GCM test case 16: AES-256 (the fs shield's key size), with AAD.
TEST(GcmTest, NistCase16Aes256WithAad) {
  const auto key = from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  const auto plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const std::string expect =
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
      "76fc6ece0f4e1768cddf8853bb2d551b";
  for (Backend b : backends(Primitive::kAesGcm)) {
    AesGcm gcm(key, b);
    const auto sealed = gcm.seal(iv, aad, plaintext);
    EXPECT_EQ(to_hex(sealed), expect) << name(b);
    const auto opened = gcm.open(iv, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << name(b);
    EXPECT_EQ(*opened, plaintext) << name(b);
  }
}

TEST(GcmTest, EmptyPlaintextProducesTagOnly) {
  const auto key = from_hex("00000000000000000000000000000000");
  const auto iv = from_hex("000000000000000000000000");
  for (Backend b : backends(Primitive::kAesGcm)) {
    AesGcm gcm(key, b);
    const auto sealed = gcm.seal(iv, {}, {});
    ASSERT_EQ(sealed.size(), AesGcm::kTagSize);
    EXPECT_EQ(to_hex(sealed), "58e2fccefa7e3061367f1d57a4e7455a") << name(b);
  }
}

TEST(GcmTest, TamperedCiphertextRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  AesGcm gcm(key);
  auto sealed = gcm.seal(iv, {}, to_bytes("shielded model weights"));
  sealed[3] ^= 0x01;
  EXPECT_FALSE(gcm.open(iv, {}, sealed).has_value());
}

TEST(GcmTest, TamperedTagRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  AesGcm gcm(key);
  auto sealed = gcm.seal(iv, {}, to_bytes("payload"));
  sealed.back() ^= 0x80;
  EXPECT_FALSE(gcm.open(iv, {}, sealed).has_value());
}

TEST(GcmTest, WrongAadRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  AesGcm gcm(key);
  const auto sealed = gcm.seal(iv, to_bytes("chunk-0"), to_bytes("payload"));
  EXPECT_FALSE(gcm.open(iv, to_bytes("chunk-1"), sealed).has_value());
  EXPECT_TRUE(gcm.open(iv, to_bytes("chunk-0"), sealed).has_value());
}

TEST(GcmTest, WrongNonceRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  AesGcm gcm(key);
  const auto sealed =
      gcm.seal(from_hex("000000000000000000000001"), {}, to_bytes("payload"));
  EXPECT_FALSE(
      gcm.open(from_hex("000000000000000000000002"), {}, sealed).has_value());
}

struct GcmCase {
  Bytes key, nonce, aad, plaintext;
};

// Every length 0-300, then lengths around the 8-block CTR and 4-block GHASH
// strides up to one 64 KiB fs-shield chunk + 5. AAD lengths are mostly not
// multiples of 16. Both key sizes.
std::vector<GcmCase> sweep_cases() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n :
       {383u, 384u, 385u, 1023u, 1200u, 4096u, 4101u, 65536u, 65541u}) {
    lengths.push_back(n);
  }
  HmacDrbg drbg(to_bytes("gcm-equivalence-sweep"));
  std::vector<GcmCase> cases;
  for (std::size_t key_size : {16u, 32u}) {
    const Bytes key = drbg.generate(key_size);
    for (std::size_t n : lengths) {
      Bytes nonce = drbg.generate(12);
      Bytes aad = drbg.generate((n * 7) % 41);
      Bytes plaintext = drbg.generate(n);
      cases.push_back({key, nonce, aad, plaintext});
    }
  }
  return cases;
}

// SHA-256 over every sweep case's ciphertext || tag, as produced by the
// implementation before the hardware path existed. Both paths must keep it.
TEST(GcmTest, SweepOutputsMatchPinnedDigest) {
  const auto cases = sweep_cases();
  for (Backend b : backends(Primitive::kAesGcm)) {
    Sha256 digest;
    for (const auto& c : cases) {
      digest.update(AesGcm(c.key, b).seal(c.nonce, c.aad, c.plaintext));
    }
    EXPECT_EQ(hex_digest(digest.finish()),
              "3fb785afd36f6f639f8e2f58fecff6b5051da044926d911c5887c9b447c02861")
        << name(b);
  }
}

TEST(GcmTest, HardwareMatchesPortableAcrossLengths) {
  if (!internal::hardware_supported(Primitive::kAesGcm)) {
    GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ";
  }
  for (const auto& c : sweep_cases()) {
    const AesGcm portable(c.key, Backend::kPortable);
    const AesGcm hardware(c.key, Backend::kHardware);
    const auto where = "key=" + std::to_string(c.key.size()) +
                       " len=" + std::to_string(c.plaintext.size()) +
                       " aad=" + std::to_string(c.aad.size());
    auto sealed = hardware.seal(c.nonce, c.aad, c.plaintext);
    ASSERT_EQ(sealed, portable.seal(c.nonce, c.aad, c.plaintext)) << where;
    for (const AesGcm* gcm : {&portable, &hardware}) {
      const auto opened = gcm->open(c.nonce, c.aad, sealed);
      ASSERT_TRUE(opened.has_value()) << where;
      EXPECT_EQ(*opened, c.plaintext) << where;
    }
    sealed.back() ^= 0x01;
    EXPECT_FALSE(portable.open(c.nonce, c.aad, sealed).has_value()) << where;
    EXPECT_FALSE(hardware.open(c.nonce, c.aad, sealed).has_value()) << where;
  }
}

TEST(X25519Test, Rfc7748Vector1) {
  X25519::Key scalar{}, point{};
  const auto s = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto p = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(p.begin(), p.end(), point.begin());
  const auto out = X25519::scalarmult(scalar, point);
  EXPECT_EQ(to_hex(BytesView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748BasePoint) {
  // Alice's key pair from RFC 7748 §6.1.
  X25519::Key secret{};
  const auto s = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  std::copy(s.begin(), s.end(), secret.begin());
  const auto pub = X25519::public_from_secret(secret);
  EXPECT_EQ(to_hex(BytesView(pub.data(), pub.size())),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
}

TEST(X25519Test, DiffieHellmanAgreement) {
  HmacDrbg drbg(to_bytes("x25519-agreement-seed"));
  for (int i = 0; i < 8; ++i) {
    X25519::Key a{}, b{};
    drbg.fill(a.data(), a.size());
    drbg.fill(b.data(), b.size());
    const auto pub_a = X25519::public_from_secret(a);
    const auto pub_b = X25519::public_from_secret(b);
    EXPECT_EQ(X25519::scalarmult(a, pub_b), X25519::scalarmult(b, pub_a));
  }
}

TEST(DrbgTest, DeterministicForSameSeed) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  HmacDrbg a(to_bytes("seed-a"));
  HmacDrbg b(to_bytes("seed-b"));
  EXPECT_NE(a.generate(64), b.generate(64));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  (void)a.generate(16);
  (void)b.generate(16);
  b.reseed(to_bytes("extra entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

// A transcript through every DRBG entry point: generate at lengths around
// one HMAC output, uniform draws (a third of them near 2^63, where rejection
// sampling redraws), and a reseed with and without input. The digest is
// pinned from the implementation before the keyed HMAC object.
TEST(DrbgTest, TranscriptMatchesPinnedDigest) {
  for (Backend b : backends(Primitive::kSha256)) {
    HmacDrbg drbg(to_bytes("drbg-transcript"), b);
    Sha256 transcript;
    for (const std::size_t len : {1u, 31u, 32u, 33u, 1024u}) {
      transcript.update(drbg.generate(len));
    }
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t bound =
          i % 3 == 0 ? (std::uint64_t{1} << 63) + i : 1 + i * 977;
      std::uint8_t raw[8];
      store_be64(raw, drbg.uniform(bound));
      transcript.update(BytesView(raw, 8));
    }
    drbg.reseed(to_bytes("reseed-input"));
    transcript.update(drbg.generate(64));
    drbg.reseed({});
    transcript.update(drbg.generate(64));
    EXPECT_EQ(hex_digest(transcript.finish()),
              "e0e2d55e466a774e581fe7fe117f5e3c423e1b9f652e5eccdfc23f7f17b79fdc")
        << name(b);
  }
}

TEST(DrbgTest, UniformStaysInBounds) {
  HmacDrbg drbg(to_bytes("uniform"));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(drbg.uniform(7), 7u);
  }
  EXPECT_THROW(drbg.uniform(0), std::invalid_argument);
}

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(from_hex(to_hex(data)), data);
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // bad digit
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ct_equal(to_bytes("same"), to_bytes("same")));
  EXPECT_FALSE(ct_equal(to_bytes("same"), to_bytes("sane")));
  EXPECT_FALSE(ct_equal(to_bytes("short"), to_bytes("longer")));
}

TEST(BytesTest, EndianHelpers) {
  std::uint8_t buf[8];
  store_be64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_be64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);
  store_le64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_le64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0xef);
}

}  // namespace
}  // namespace stf::crypto
