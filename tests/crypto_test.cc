// Crypto tests: ChaCha20 against the RFC 8439 vectors, SipHash-2-4 against
// the reference vectors, AEAD seal/open properties (tamper detection,
// path-id nonce separation), and key-schedule sanity.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/buf.h"
#include "common/rng.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/cpu.h"
#include "crypto/siphash.h"

namespace mpq::crypto {
namespace {

ChaChaKey SequentialKey() {
  ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  return key;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2.
  const ChaChaKey key = SequentialKey();
  const ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                             0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::array<std::uint8_t, kChaChaBlockSize> block;
  ChaCha20Block(key, 1, nonce, block);
  const std::uint8_t expected[kChaChaBlockSize] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(std::memcmp(block.data(), expected, sizeof(expected)), 0)
      << "got " << mpq::ToHex(block);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 §2.4.2.
  const ChaChaKey key = SequentialKey();
  const ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(text, text + std::strlen(text));
  ChaCha20Xor(key, 1, nonce, data);
  const char* expected_hex =
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d";
  EXPECT_EQ(mpq::ToHex(data), expected_hex);
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  const ChaChaKey key = SequentialKey();
  const ChaChaNonce nonce = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::vector<std::uint8_t> original = data;
  ChaCha20Xor(key, 1, nonce, data);
  EXPECT_NE(data, original);
  ChaCha20Xor(key, 1, nonce, data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, NonMultipleOfBlockLengths) {
  const ChaChaKey key = SequentialKey();
  const ChaChaNonce nonce{};
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 200u}) {
    std::vector<std::uint8_t> data(len, 0xAA);
    const auto original = data;
    ChaCha20Xor(key, 0, nonce, data);
    ChaCha20Xor(key, 0, nonce, data);
    EXPECT_EQ(data, original) << "len " << len;
  }
}

TEST(SipHash24, ReferenceVectors) {
  // Vectors from the SipHash reference implementation: key = 00..0f,
  // message = 00,01,...,len-1.
  SipHashKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  struct Case {
    std::size_t len;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {0, 0x726fdb47dd0e0e31ULL}, {1, 0x74f839c593dc67fdULL},
      {2, 0x0d6c8009d9a94f5aULL}, {3, 0x85676696d7fb7e2dULL},
      {4, 0xcf2794e0277187b7ULL}, {8, 0x93f5f5799a932462ULL},
  };
  for (const auto& c : cases) {
    std::vector<std::uint8_t> msg(c.len);
    for (std::size_t i = 0; i < c.len; ++i) {
      msg[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(SipHash24(key, msg), c.expected) << "len " << c.len;
  }
}

TEST(SipHash24, KeySensitivity) {
  SipHashKey k1{}, k2{};
  k2[0] = 1;
  const std::uint8_t msg[] = {1, 2, 3};
  EXPECT_NE(SipHash24(k1, msg), SipHash24(k2, msg));
}

// ---------------------------------------------------------------------------
// Key schedule

TEST(Kdf32, LabelsSeparateOutputs) {
  const std::uint8_t secret[] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_NE(Kdf32(secret, "a"), Kdf32(secret, "b"));
  EXPECT_EQ(Kdf32(secret, "a"), Kdf32(secret, "a"));
}

TEST(Kdf32, SecretsSeparateOutputs) {
  const std::uint8_t s1[] = {1, 2, 3};
  const std::uint8_t s2[] = {1, 2, 4};
  EXPECT_NE(Kdf32(s1, "x"), Kdf32(s2, "x"));
}

TEST(Kdf32, LongSecretTailMatters) {
  // Bytes past the first 16 (the SipHash key part) must still influence
  // the output via the message path.
  std::vector<std::uint8_t> s1(24, 7), s2(24, 7);
  s2[20] = 9;
  EXPECT_NE(Kdf32(s1, "x"), Kdf32(s2, "x"));
}

TEST(SessionKeys, DirectionsDifferAndDeriveDeterministically) {
  const std::uint8_t cn[] = {1, 1, 1, 1};
  const std::uint8_t sn[] = {2, 2, 2, 2};
  const std::uint8_t cfg[] = {3, 3, 3, 3};
  const SessionKeys a = DeriveSessionKeys(cn, sn, cfg);
  const SessionKeys b = DeriveSessionKeys(cn, sn, cfg);
  EXPECT_EQ(a.client_to_server, b.client_to_server);
  EXPECT_EQ(a.server_to_client, b.server_to_client);
  EXPECT_NE(a.client_to_server, a.server_to_client);
}

// ---------------------------------------------------------------------------
// AEAD packet protection

TEST(PacketProtection, SealOpenRoundTrip) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {9, 9, 9};
  std::vector<std::uint8_t> plain(500);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i);
  }
  const auto sealed = prot.Seal(PathId{1}, PacketNumber{42}, aad, plain);
  EXPECT_EQ(sealed.size(), plain.size() + kAeadTagSize);
  std::vector<std::uint8_t> opened;
  ASSERT_TRUE(prot.Open(PathId{1}, PacketNumber{42}, aad, sealed, opened));
  EXPECT_EQ(opened, plain);
}

TEST(PacketProtection, TamperedCiphertextRejected) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {1};
  const std::uint8_t plain[] = {10, 20, 30, 40};
  auto sealed = prot.Seal(PathId{0}, PacketNumber{7}, aad, plain);
  sealed[1] ^= 0x80;
  std::vector<std::uint8_t> opened;
  EXPECT_FALSE(prot.Open(PathId{0}, PacketNumber{7}, aad, sealed, opened));
}

TEST(PacketProtection, TamperedAadRejected) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {1, 2};
  const std::uint8_t bad_aad[] = {1, 3};
  const std::uint8_t plain[] = {10, 20, 30};
  const auto sealed = prot.Seal(PathId{0}, PacketNumber{7}, aad, plain);
  std::vector<std::uint8_t> opened;
  EXPECT_FALSE(prot.Open(PathId{0}, PacketNumber{7}, bad_aad, sealed, opened));
}

TEST(PacketProtection, WrongPacketNumberRejected) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {1};
  const std::uint8_t plain[] = {10};
  const auto sealed = prot.Seal(PathId{0}, PacketNumber{7}, aad, plain);
  std::vector<std::uint8_t> opened;
  EXPECT_FALSE(prot.Open(PathId{0}, PacketNumber{8}, aad, sealed, opened));
}

TEST(PacketProtection, PathIdSeparatesNonces) {
  // The paper's §3 security note: the same packet number on two paths
  // must not produce the same keystream. Seal the same plaintext with the
  // same PN on two paths and check the ciphertexts differ; opening with
  // the wrong path id must fail.
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {5};
  const std::uint8_t plain[] = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto sealed_p0 = prot.Seal(PathId{0}, PacketNumber{1}, aad, plain);
  const auto sealed_p1 = prot.Seal(PathId{1}, PacketNumber{1}, aad, plain);
  EXPECT_NE(sealed_p0, sealed_p1);
  std::vector<std::uint8_t> opened;
  EXPECT_FALSE(prot.Open(PathId{1}, PacketNumber{1}, aad, sealed_p0, opened));
  EXPECT_TRUE(prot.Open(PathId{0}, PacketNumber{1}, aad, sealed_p0, opened));
}

TEST(PacketProtection, TruncatedInputRejected) {
  PacketProtection prot(SequentialKey());
  std::vector<std::uint8_t> opened;
  const std::uint8_t tiny[] = {1, 2, 3};  // shorter than the tag
  EXPECT_FALSE(prot.Open(PathId{0}, PacketNumber{1}, {}, tiny, opened));
}

TEST(PacketProtection, EmptyPlaintextWorks) {
  PacketProtection prot(SequentialKey());
  const auto sealed = prot.Seal(PathId{2}, PacketNumber{9}, {}, {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  std::vector<std::uint8_t> opened{1, 2, 3};
  ASSERT_TRUE(prot.Open(PathId{2}, PacketNumber{9}, {}, sealed, opened));
  EXPECT_TRUE(opened.empty());
}

class AeadLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadLengthSweep, RoundTripAtLength) {
  PacketProtection prot(SequentialKey());
  std::vector<std::uint8_t> plain(GetParam());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i * 13);
  }
  const std::uint8_t aad[] = {0xAB, 0xCD};
  const auto sealed = prot.Seal(PathId{3}, PacketNumber{GetParam() + 1}, aad, plain);
  std::vector<std::uint8_t> opened;
  ASSERT_TRUE(prot.Open(PathId{3}, PacketNumber{GetParam() + 1}, aad, sealed, opened));
  EXPECT_EQ(opened, plain);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AeadLengthSweep,
                         ::testing::Values(0, 1, 15, 16, 63, 64, 65, 500,
                                           1350));

// ---------------------------------------------------------------------------
// In-place AEAD (the zero-allocation datapath uses these entry points; the
// allocating Seal/Open must stay byte-compatible with them)

TEST_P(AeadLengthSweep, SealInPlaceMatchesSeal) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {0xAB, 0xCD};
  std::vector<std::uint8_t> plain(GetParam());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i * 13);
  }
  const auto sealed = prot.Seal(PathId{3}, PacketNumber{GetParam() + 1}, aad, plain);

  std::vector<std::uint8_t> buf = plain;
  buf.resize(buf.size() + kAeadTagSize);  // tag slot
  prot.SealInPlace(PathId{3}, PacketNumber{GetParam() + 1}, aad, buf);
  EXPECT_EQ(buf, sealed);
}

TEST_P(AeadLengthSweep, OpenInPlaceMatchesOpen) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {0xAB, 0xCD};
  std::vector<std::uint8_t> plain(GetParam());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i * 13);
  }
  const auto sealed = prot.Seal(PathId{3}, PacketNumber{GetParam() + 1}, aad, plain);

  std::vector<std::uint8_t> opened;
  ASSERT_TRUE(prot.Open(PathId{3}, PacketNumber{GetParam() + 1}, aad, sealed, opened));

  std::vector<std::uint8_t> buf = sealed;
  std::size_t plaintext_len = 0;
  ASSERT_TRUE(prot.OpenInPlace(PathId{3}, PacketNumber{GetParam() + 1}, aad, buf, plaintext_len));
  ASSERT_EQ(plaintext_len, plain.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), buf.begin()));
  EXPECT_EQ(opened, plain);
}

TEST(PacketProtection, OpenInPlaceRejectsCorruptionUntouched) {
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {1, 2, 3};
  std::vector<std::uint8_t> plain(100);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i);
  }
  const auto sealed = prot.Seal(PathId{1}, PacketNumber{77}, aad, plain);
  // Flip one bit at every position (ciphertext and tag alike): the open
  // must fail and — per the documented contract — leave the buffer as the
  // caller passed it, so a failed decrypt never leaks keystream.
  for (std::size_t pos = 0; pos < sealed.size(); ++pos) {
    std::vector<std::uint8_t> buf = sealed;
    buf[pos] ^= 0x40;
    const std::vector<std::uint8_t> tampered = buf;
    std::size_t plaintext_len = 0;
    EXPECT_FALSE(prot.OpenInPlace(PathId{1}, PacketNumber{77}, aad, buf, plaintext_len))
        << "bit flip at " << pos;
    EXPECT_EQ(buf, tampered) << "buffer modified on failure at " << pos;
  }
  // Wrong AAD and wrong packet number fail the same way.
  std::vector<std::uint8_t> buf = sealed;
  std::size_t plaintext_len = 0;
  const std::uint8_t bad_aad[] = {1, 2, 4};
  EXPECT_FALSE(prot.OpenInPlace(PathId{1}, PacketNumber{77}, bad_aad, buf, plaintext_len));
  EXPECT_FALSE(prot.OpenInPlace(PathId{1}, PacketNumber{78}, aad, buf, plaintext_len));
  EXPECT_EQ(buf, sealed);
}

TEST(PacketProtection, InPlacePathIdSeparatesNonces) {
  // §3's nonce rule holds for the in-place entry points too: the same
  // packet number on two paths yields different ciphertext, and a packet
  // sealed on one path never opens on the other.
  PacketProtection prot(SequentialKey());
  const std::uint8_t aad[] = {5};
  const std::vector<std::uint8_t> plain = {1, 2, 3, 4, 5, 6, 7, 8};

  std::vector<std::uint8_t> buf_p0 = plain;
  buf_p0.resize(buf_p0.size() + kAeadTagSize);
  std::vector<std::uint8_t> buf_p1 = buf_p0;
  prot.SealInPlace(PathId{0}, PacketNumber{1}, aad, buf_p0);
  prot.SealInPlace(PathId{1}, PacketNumber{1}, aad, buf_p1);
  EXPECT_NE(buf_p0, buf_p1);

  std::size_t plaintext_len = 0;
  std::vector<std::uint8_t> cross = buf_p0;
  EXPECT_FALSE(prot.OpenInPlace(PathId{1}, PacketNumber{1}, aad, cross, plaintext_len));
  ASSERT_TRUE(prot.OpenInPlace(PathId{0}, PacketNumber{1}, aad, buf_p0, plaintext_len));
  ASSERT_EQ(plaintext_len, plain.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), buf_p0.begin()));
}

TEST(PacketProtection, OpenInPlaceTruncatedInputRejected) {
  PacketProtection prot(SequentialKey());
  std::vector<std::uint8_t> tiny = {1, 2, 3};  // shorter than the tag
  std::size_t plaintext_len = 0;
  EXPECT_FALSE(prot.OpenInPlace(PathId{0}, PacketNumber{1}, {}, tiny, plaintext_len));
}

// --- SIMD dispatch ---------------------------------------------------------

/// Every level compiled into this binary and available on this machine,
/// scalar first. Tests iterate the list so the SSE2/AVX2 kernels face
/// the same known-answer vectors as the scalar reference.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (MaxSimdLevel() >= SimdLevel::kSse2) levels.push_back(SimdLevel::kSse2);
  if (MaxSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// RAII: tests that force a level must not leak it into later tests.
struct SimdLevelRestorer {
  ~SimdLevelRestorer() { ForceSimdLevel(MaxSimdLevel()); }
};

TEST(SimdDispatch, Rfc8439EncryptionVectorAtEveryLevel) {
  // The §2.4.2 vector, re-checked with each kernel forced. The text is
  // 114 bytes — short of one SSE2 batch — so also run an extended
  // message (the vector text repeated 8x = 912 bytes) through every
  // level and require bytes identical to scalar: that covers the AVX2
  // 8-block path, the SSE2 4-block path, whole scalar blocks and the
  // partial tail in one sweep.
  SimdLevelRestorer restore;
  const ChaChaKey key = SequentialKey();
  const ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const std::vector<std::uint8_t> plain(text, text + std::strlen(text));
  const char* expected_hex =
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d";

  std::vector<std::uint8_t> extended;
  for (int i = 0; i < 8; ++i) {
    extended.insert(extended.end(), plain.begin(), plain.end());
  }
  ForceSimdLevel(SimdLevel::kScalar);
  std::vector<std::uint8_t> extended_scalar = extended;
  ChaCha20Xor(key, 1, nonce, extended_scalar);

  for (const SimdLevel level : AvailableLevels()) {
    ForceSimdLevel(level);
    ASSERT_EQ(ActiveSimdLevel(), level);
    std::vector<std::uint8_t> data = plain;
    ChaCha20Xor(key, 1, nonce, data);
    EXPECT_EQ(mpq::ToHex(data), expected_hex)
        << "level " << SimdLevelName(level);
    std::vector<std::uint8_t> big = extended;
    ChaCha20Xor(key, 1, nonce, big);
    EXPECT_EQ(big, extended_scalar) << "level " << SimdLevelName(level);
  }
}

TEST(SimdDispatch, SipHashVectorsAndSealAtEveryLevel) {
  // SipHash itself is scalar code, but the seal path fuses its absorb
  // into the vectorized cipher walk — so run the reference vectors AND
  // a full seal (tag included) at every level, requiring byte-equal
  // output across levels.
  SimdLevelRestorer restore;
  SipHashKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const PacketProtection prot(SequentialKey());
  const std::vector<std::uint8_t> plain(1350, 0x5A);
  const std::uint8_t aad[14] = {1, 2, 3};

  ForceSimdLevel(SimdLevel::kScalar);
  const auto sealed_scalar =
      prot.Seal(PathId{300}, PacketNumber{77}, aad, plain);

  for (const SimdLevel level : AvailableLevels()) {
    ForceSimdLevel(level);
    std::vector<std::uint8_t> msg;
    const std::uint64_t expected[] = {
        0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
        0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL};
    for (std::size_t len = 0; len < 5; ++len) {
      EXPECT_EQ(SipHash24(key, msg), expected[len])
          << "len " << len << " level " << SimdLevelName(level);
      msg.push_back(static_cast<std::uint8_t>(len));
    }
    EXPECT_EQ(prot.Seal(PathId{300}, PacketNumber{77}, aad, plain),
              sealed_scalar)
        << "level " << SimdLevelName(level);
  }
}

TEST(SimdDispatch, RandomizedScalarEquivalence) {
  // Property test: for random keys/nonces/counters and lengths chosen
  // to straddle every kernel boundary (odd lengths, partial blocks,
  // 4/8-block multiples ± 1), every compiled SIMD level produces the
  // scalar bytes exactly.
  SimdLevelRestorer restore;
  mpq::Rng rng(20170712);
  const std::size_t kBoundary[] = {1,   63,  64,  65,  255,  256,  257,
                                   511, 512, 513, 767, 1023, 1024, 1025};
  for (int iter = 0; iter < 120; ++iter) {
    ChaChaKey key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.NextU64());
    ChaChaNonce nonce;
    for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.NextU64());
    const auto counter = static_cast<std::uint32_t>(rng.NextU64());
    const std::size_t len =
        iter < 14 ? kBoundary[iter] : (rng.NextU64() % 2100);
    std::vector<std::uint8_t> input(len);
    for (auto& b : input) b = static_cast<std::uint8_t>(rng.NextU64());

    ForceSimdLevel(SimdLevel::kScalar);
    std::vector<std::uint8_t> reference = input;
    ChaCha20Xor(key, counter, nonce, reference);

    for (const SimdLevel level : AvailableLevels()) {
      if (level == SimdLevel::kScalar) continue;
      ForceSimdLevel(level);
      std::vector<std::uint8_t> data = input;
      ChaCha20Xor(key, counter, nonce, data);
      ASSERT_EQ(data, reference)
          << "iter " << iter << " len " << len << " level "
          << SimdLevelName(level);
    }
  }
}

TEST(SimdDispatch, ForceIsClampedToMachineMaximum) {
  SimdLevelRestorer restore;
  ForceSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(ActiveSimdLevel(), MaxSimdLevel());
}

// --- PR 10 regression tests ------------------------------------------------

TEST(Kdf32, EmptySecretIsDeterministicAndSafe) {
  // Regression: Kdf32 used to memcpy from secret.data() without a size
  // check — with an empty span that is memcpy(dst, nullptr, 0), which
  // is undefined behavior (UBSan flags it). An empty secret must derive
  // deterministically and differ by label like any other.
  const std::span<const std::uint8_t> empty;
  const auto a = Kdf32(empty, "label-a");
  const auto b = Kdf32(empty, "label-a");
  const auto c = Kdf32(empty, "label-b");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PacketProtection, WidePathIdsDoNotCollideInTheNonce) {
  // Regression: the nonce used to carry only the low byte of the path
  // id, so paths 1 and 257 (1 + 256) sealed under identical nonces —
  // exactly the cross-path nonce reuse the §3 construction exists to
  // prevent. All four path-id bytes now enter the nonce.
  PacketProtection prot(SequentialKey());
  const std::vector<std::uint8_t> plain(64, 0x33);
  const std::uint8_t aad[4] = {7, 7, 7, 7};
  const auto low = prot.Seal(PathId{1}, PacketNumber{5}, aad, plain);
  const auto high = prot.Seal(PathId{257}, PacketNumber{5}, aad, plain);
  EXPECT_NE(low, high);
  // Cross-open must fail: the tag binds the full path id.
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(prot.Open(PathId{257}, PacketNumber{5}, aad, low, out));
  EXPECT_FALSE(prot.Open(PathId{1}, PacketNumber{5}, aad, high, out));
  ASSERT_TRUE(prot.Open(PathId{257}, PacketNumber{5}, aad, high, out));
  EXPECT_EQ(out, plain);
}

TEST(PacketProtection, LowPathIdSealedBytesArePinned) {
  // Golden test: paths below 256 must keep their pre-widening wire bytes
  // (the high three path-id bytes land in what used to be reserved-zero
  // nonce bytes), so the figure benches stay byte-identical to the seed.
  // If this hex ever changes, the nonce layout changed — that is a wire
  // break, not a test to update casually.
  PacketProtection prot(SequentialKey());
  const std::vector<std::uint8_t> plain(32, 0x44);
  const auto sealed = prot.Seal(PathId{3}, PacketNumber{9}, {}, plain);
  EXPECT_EQ(mpq::ToHex(sealed),
            "233da7aea3de98ce789f5214d5ce975078bcfe1daaf4cd29"
            "e77f23270ae8830e4256b6760d0e4bd2");
}

TEST(SessionKeys, InputFramingSeparatesShiftedSplits) {
  // Regression: the master-secret KDF used to hash the raw
  // concatenation client_nonce | server_nonce | config, so moving a
  // byte across a field boundary produced the same keys. Each field is
  // now length-prefixed.
  // Same concatenated bytes "ABC", three different field splits — each
  // must produce distinct keys.
  const std::vector<std::uint8_t> bytes = {'A', 'B', 'C'};
  const std::span<const std::uint8_t> all(bytes);
  const SessionKeys ab_c =
      DeriveSessionKeys(all.subspan(0, 2), all.subspan(2, 1), {});
  const SessionKeys a_bc =
      DeriveSessionKeys(all.subspan(0, 1), all.subspan(1, 2), {});
  const SessionKeys abc_none =
      DeriveSessionKeys(all.subspan(0, 3), all.subspan(3, 0), {});
  EXPECT_NE(ab_c.client_to_server, a_bc.client_to_server);
  EXPECT_NE(ab_c.server_to_client, a_bc.server_to_client);
  EXPECT_NE(ab_c.client_to_server, abc_none.client_to_server);
  EXPECT_NE(a_bc.client_to_server, abc_none.client_to_server);
  // Moving a byte between nonce and config must also separate.
  const SessionKeys config_split =
      DeriveSessionKeys(all.subspan(0, 2), {}, all.subspan(2, 1));
  EXPECT_NE(ab_c.client_to_server, config_split.client_to_server);
}

}  // namespace
}  // namespace mpq::crypto
