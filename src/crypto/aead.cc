#include "crypto/aead.h"

#include <algorithm>
#include <cstring>

#include "obs/prof.h"

namespace mpq::crypto {

namespace {

/// Fused-walk chunk: big enough that the SIMD kernels run at full width
/// (a multiple of 8 ChaCha blocks), small enough that the ciphertext is
/// still in L1 when the tag absorb re-reads it.
constexpr std::size_t kFuseChunk = 1024;
static_assert(kFuseChunk % kChaChaBlockSize == 0);

/// Absorb the authenticated prefix of the tag's unambiguous framing
/// `nonce | aad_len | aad | ciphertext`: aad_len is 8 bytes little-endian,
/// and the fused seal/open walks append the ciphertext chunk by chunk, so
/// no per-packet material buffer is built.
void AbsorbTagPrefix(SipHashState& state, const ChaChaNonce& nonce,
                     std::span<const std::uint8_t> aad) {
  state.Absorb(nonce);
  std::uint8_t aad_len[8];
  for (int i = 0; i < 8; ++i) {
    aad_len[i] = static_cast<std::uint8_t>(aad.size() >> (8 * i));
  }
  state.Absorb(aad_len);
  state.Absorb(aad);
}

std::uint64_t ReadTagLe(const std::uint8_t* tag_bytes) {
  std::uint64_t got = 0;
  for (int i = 7; i >= 0; --i) got = got << 8 | tag_bytes[i];
  return got;
}

void WriteTagLe(std::uint8_t* tag_out, std::uint64_t tag) {
  for (std::size_t i = 0; i < kAeadTagSize; ++i) {
    tag_out[i] = static_cast<std::uint8_t>(tag >> (8 * i));
  }
}

}  // namespace

std::array<std::uint8_t, 32> Kdf32(std::span<const std::uint8_t> secret,
                                   std::string_view label) {
  SipHashKey key{};
  const std::size_t key_bytes = secret.size() < 16 ? secret.size() : 16;
  // Guard the copy: memcpy from an empty span's data() (null) is UB even
  // for zero bytes.
  if (key_bytes > 0) std::memcpy(key.data(), secret.data(), key_bytes);

  std::vector<std::uint8_t> message;
  message.reserve(secret.size() + label.size() + 1);
  if (secret.size() > 16) {
    message.insert(message.end(), secret.begin() + 16, secret.end());
  }
  message.insert(message.end(), label.begin(), label.end());
  message.push_back(0);  // counter slot

  std::array<std::uint8_t, 32> out{};
  for (std::uint8_t block = 0; block < 4; ++block) {
    message.back() = block;
    const std::uint64_t h = SipHash24(key, message);
    for (int i = 0; i < 8; ++i) {
      out[8 * block + i] = static_cast<std::uint8_t>(h >> (8 * i));
    }
  }
  return out;
}

PacketProtection::PacketProtection(const ChaChaKey& key) : cipher_key_(key) {
  const auto derived = Kdf32(key, "mpquic tag key");
  std::memcpy(tag_key_.data(), derived.data(), tag_key_.size());
}

ChaChaNonce PacketProtection::MakeNonce(PathId path, PacketNumber pn) const {
  // path id (4, little-endian) | packet number (8, big-endian). Distinct
  // paths therefore always yield distinct nonces (paper §3) — the full
  // 32-bit PathId is encoded, so paths 256 apart cannot collide.
  ChaChaNonce nonce{};
  for (int i = 0; i < 4; ++i) {
    nonce[i] = static_cast<std::uint8_t>(path.value() >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<std::uint8_t>(pn.value() >> (8 * (7 - i)));
  }
  return nonce;
}

void PacketProtection::SealInPlace(PathId path, PacketNumber pn,
                                   std::span<const std::uint8_t> aad,
                                   std::span<std::uint8_t> buf) const {
  MPQ_PROF_SCOPE("crypto/seal");
  const ChaChaNonce nonce = MakeNonce(path, pn);
  const std::span<std::uint8_t> text = buf.first(buf.size() - kAeadTagSize);

  SipHashState tag_state(tag_key_);
  AbsorbTagPrefix(tag_state, nonce, aad);
  ChaCha20Ctx ctx;
  ChaCha20Init(ctx, cipher_key_, 1, nonce);

  // Fused walk: encrypt a chunk, then absorb the ciphertext into the tag
  // while it is still cache-hot — one pass over the packet instead of two.
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t n = std::min(kFuseChunk, text.size() - offset);
    const std::span<std::uint8_t> chunk = text.subspan(offset, n);
    ChaCha20XorUpdate(ctx, chunk);
    tag_state.Absorb(chunk);
    offset += n;
  }
  WriteTagLe(buf.data() + text.size(), tag_state.Finalize());
}

bool PacketProtection::OpenInPlace(PathId path, PacketNumber pn,
                                   std::span<const std::uint8_t> aad,
                                   std::span<std::uint8_t> buf,
                                   std::size_t& plaintext_len) const {
  MPQ_PROF_SCOPE("crypto/open");
  if (buf.size() < kAeadTagSize) return false;
  const std::span<std::uint8_t> ciphertext =
      buf.first(buf.size() - kAeadTagSize);

  const ChaChaNonce nonce = MakeNonce(path, pn);
  SipHashState tag_state(tag_key_);
  AbsorbTagPrefix(tag_state, nonce, aad);
  ChaCha20Ctx ctx;
  ChaCha20Init(ctx, cipher_key_, 1, nonce);

  // Optimistic fused walk: absorb the ciphertext chunk into the tag,
  // then decrypt it in place — the verdict only lands at the end.
  std::size_t offset = 0;
  while (offset < ciphertext.size()) {
    const std::size_t n = std::min(kFuseChunk, ciphertext.size() - offset);
    const std::span<std::uint8_t> chunk = ciphertext.subspan(offset, n);
    tag_state.Absorb(chunk);
    ChaCha20XorUpdate(ctx, chunk);
    offset += n;
  }
  const std::uint64_t expected = tag_state.Finalize();
  // Constant-time comparison is irrelevant in a simulator but cheap.
  if ((expected ^ ReadTagLe(buf.data() + ciphertext.size())) != 0) {
    // Rare path: re-encrypt to hand the buffer back exactly as passed
    // (XOR with the same keystream is involutive).
    ChaCha20Init(ctx, cipher_key_, 1, nonce);
    ChaCha20XorUpdate(ctx, ciphertext);
    return false;
  }
  plaintext_len = ciphertext.size();
  return true;
}

std::vector<std::uint8_t> PacketProtection::Seal(
    PathId path, PacketNumber pn, std::span<const std::uint8_t> aad,
    std::span<const std::uint8_t> plaintext) const {
  std::vector<std::uint8_t> out(plaintext.size() + kAeadTagSize);
  if (!plaintext.empty()) {
    std::memcpy(out.data(), plaintext.data(), plaintext.size());
  }
  SealInPlace(path, pn, aad, out);
  return out;
}

bool PacketProtection::Open(PathId path, PacketNumber pn,
                            std::span<const std::uint8_t> aad,
                            std::span<const std::uint8_t> sealed,
                            std::vector<std::uint8_t>& out) const {
  if (sealed.size() < kAeadTagSize) return false;
  // Copy ciphertext | tag into the scratch and run the fused in-place
  // open there: one walk decrypt+authenticate, and the caller's input
  // stays pristine without a restore pass (on failure only `out` — whose
  // contents are unspecified then — holds the restored ciphertext).
  out.assign(sealed.begin(), sealed.end());
  std::size_t plaintext_len = 0;
  if (!OpenInPlace(path, pn, aad, out, plaintext_len)) return false;
  out.resize(plaintext_len);
  return true;
}

SessionKeys DeriveSessionKeys(
    std::span<const std::uint8_t> client_nonce,
    std::span<const std::uint8_t> server_nonce,
    std::span<const std::uint8_t> server_config_secret) {
  // Length-prefix each field (8 bytes little-endian, like the tag frames
  // the AAD) so distinct (client_nonce, server_nonce, secret) splits of
  // the same concatenated bytes can never alias into one master secret.
  std::vector<std::uint8_t> master;
  master.reserve(client_nonce.size() + server_nonce.size() +
                 server_config_secret.size() + 24);
  const auto append_framed = [&master](std::span<const std::uint8_t> field) {
    for (int i = 0; i < 8; ++i) {
      master.push_back(static_cast<std::uint8_t>(field.size() >> (8 * i)));
    }
    master.insert(master.end(), field.begin(), field.end());
  };
  append_framed(client_nonce);
  append_framed(server_nonce);
  append_framed(server_config_secret);
  SessionKeys keys;
  keys.client_to_server = Kdf32(master, "client to server");
  keys.server_to_client = Kdf32(master, "server to client");
  return keys;
}

}  // namespace mpq::crypto
