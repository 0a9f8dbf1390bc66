// Micro-benchmarks (google-benchmark) of the crypto substrate: ChaCha20
// keystream/XOR throughput, SipHash-2-4, the packet-protection seal/open
// path at MTU size (per SIMD dispatch level), and the handshake key
// schedule.
//
//   --selftest   print a deterministic digest of seal/open/ChaCha20
//                outputs over a length/path/pn sweep and exit. The
//                output is independent of the active SIMD level by
//                construction — ci.sh byte-compares it between the
//                default build and a -DMPQ_NO_SIMD=ON build, which is
//                the end-to-end "vector kernels are byte-identical to
//                scalar" gate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/cpu.h"
#include "crypto/siphash.h"

namespace {

using namespace mpq::crypto;
using mpq::PacketNumber;
using mpq::PathId;

ChaChaKey TestKey() {
  ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7);
  }
  return key;
}

// --- selftest --------------------------------------------------------------

/// Deterministic digests over a sweep of lengths (crossing every SIMD
/// width boundary: 4x64=256 for SSE2, 8x64=512 for AVX2, plus partial
/// blocks and odd tails), paths (including >255, which exercises the
/// full 32-bit path id in the nonce) and packet numbers.
int RunSelftest() {
  const std::size_t kLengths[] = {0,   1,   8,    15,   16,   63,  64,
                                  65,  127, 128,  129,  255,  256, 257,
                                  500, 511, 512,  513,  1023, 1024, 1025,
                                  1350, 2048, 4096};
  SipHashKey digest_key{};
  for (std::size_t i = 0; i < digest_key.size(); ++i) {
    digest_key[i] = static_cast<std::uint8_t>(0xC5 ^ i);
  }
  const PacketProtection protection(TestKey());
  std::printf("MPQ_CRYPTO_SELFTEST v1\n");
  for (const std::size_t len : kLengths) {
    std::vector<std::uint8_t> plaintext(len);
    for (std::size_t i = 0; i < len; ++i) {
      plaintext[i] = static_cast<std::uint8_t>(i * 31 + len);
    }
    std::uint8_t aad[14];
    for (std::size_t i = 0; i < sizeof(aad); ++i) {
      aad[i] = static_cast<std::uint8_t>(i + len);
    }
    const PathId path{static_cast<std::uint32_t>((len % 5) * 67 + 1)};
    const PacketNumber pn{len * 13 + 1};

    // Raw cipher digest.
    std::vector<std::uint8_t> stream = plaintext;
    const ChaChaNonce nonce{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    ChaCha20Xor(TestKey(), 1, nonce, stream);
    const std::uint64_t cipher_digest = SipHash24(digest_key, stream);

    // Seal digest + open round trip.
    const auto sealed = protection.Seal(path, pn, aad, plaintext);
    const std::uint64_t seal_digest = SipHash24(digest_key, sealed);
    std::vector<std::uint8_t> opened;
    if (!protection.Open(path, pn, aad, sealed, opened) ||
        opened != plaintext) {
      std::printf("len=%zu OPEN ROUNDTRIP FAILED\n", len);
      return 1;
    }
    std::printf("len=%zu chacha=%016llx seal=%016llx\n", len,
                static_cast<unsigned long long>(cipher_digest),
                static_cast<unsigned long long>(seal_digest));
  }
  // The level goes to stderr so stdout stays comparable across builds.
  std::fprintf(stderr, "active SIMD level: %s\n",
               SimdLevelName(ActiveSimdLevel()));
  return 0;
}

// --- benchmarks ------------------------------------------------------------

void BM_ChaCha20Xor(benchmark::State& state) {
  const ChaChaKey key = TestKey();
  const ChaChaNonce nonce{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  std::vector<std::uint8_t> data(state.range(0), 0xAA);
  for (auto _ : state) {
    ChaCha20Xor(key, 1, nonce, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20Xor)->Arg(64)->Arg(1350)->Arg(16384);

void BM_SipHash24(benchmark::State& state) {
  SipHashKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> data(state.range(0), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SipHash24(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SipHash24)->Arg(8)->Arg(64)->Arg(1350);

/// Per-dispatch-level seal: range(0) is the SimdLevel to force
/// (0=scalar, 1=SSE2, 2=AVX2); levels above the machine's maximum are
/// skipped. Restores the default level afterwards.
void BM_SealMtuPacketLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (level > MaxSimdLevel()) {
    state.SkipWithError("SIMD level unavailable on this machine/build");
    return;
  }
  ForceSimdLevel(level);
  state.SetLabel(SimdLevelName(level));
  PacketProtection protection(TestKey());
  std::vector<std::uint8_t> buf(1300 + kAeadTagSize, 0x42);
  const std::uint8_t aad[14] = {};
  PacketNumber pn{1};
  for (auto _ : state) {
    protection.SealInPlace(PathId{1}, pn++, aad, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * 1300);
  ForceSimdLevel(MaxSimdLevel());
}
BENCHMARK(BM_SealMtuPacketLevel)->Arg(0)->Arg(1)->Arg(2);

void BM_OpenMtuPacketLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (level > MaxSimdLevel()) {
    state.SkipWithError("SIMD level unavailable on this machine/build");
    return;
  }
  ForceSimdLevel(level);
  state.SetLabel(SimdLevelName(level));
  PacketProtection protection(TestKey());
  std::vector<std::uint8_t> plaintext(1300, 0x42);
  const std::uint8_t aad[14] = {};
  const auto sealed =
      protection.Seal(PathId{1}, PacketNumber{99}, aad, plaintext);
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.assign(sealed.begin(), sealed.end());
    std::size_t plaintext_len = 0;
    const bool ok = protection.OpenInPlace(PathId{1}, PacketNumber{99}, aad,
                                           buf, plaintext_len);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * 1300);
  ForceSimdLevel(MaxSimdLevel());
}
BENCHMARK(BM_OpenMtuPacketLevel)->Arg(0)->Arg(1)->Arg(2);

void BM_SessionKeyDerivation(benchmark::State& state) {
  const std::uint8_t client_nonce[16] = {1};
  const std::uint8_t server_nonce[16] = {2};
  const std::uint8_t config[16] = {3};
  for (auto _ : state) {
    auto keys = DeriveSessionKeys(client_nonce, server_nonce, config);
    benchmark::DoNotOptimize(keys.client_to_server.data());
  }
}
BENCHMARK(BM_SessionKeyDerivation);

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) return RunSelftest();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
