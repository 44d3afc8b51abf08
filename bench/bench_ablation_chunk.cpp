// Ablation: file-system-shield chunk size (§3.3's "files are split into
// chunks handled separately").
//
// Small chunks mean fine-grained random access and small tamper blast
// radius but more per-chunk overhead (nonce + tag + record setup); large
// chunks amortize overhead but force whole-chunk rewrites. This bench
// measures sealed-file size overhead and shield throughput across chunk
// sizes, with real AES-GCM on a moderately sized file.
#include "bench_common.h"
#include "crypto/drbg.h"
#include "runtime/fs_shield.h"

namespace {

using namespace stf;

bool run() {
  bench::print_header(
      "Ablation — file-system shield chunk size",
      "per-chunk overhead vs amortization; default 64 KB is the flat part "
      "of the curve");

  const tee::CostModel model;
  crypto::HmacDrbg rng(crypto::to_bytes("chunk-bench"));
  const auto key = crypto::HmacDrbg(crypto::to_bytes("key")).generate(32);
  const crypto::Bytes payload =
      crypto::HmacDrbg(crypto::to_bytes("payload")).generate(4 << 20);  // 4 MB

  std::printf("\n  %-12s %16s %16s\n", "chunk", "virtual MB/s",
              "size overhead");
  for (const std::size_t chunk :
       {1024ul, 4096ul, 16384ul, 65536ul, 262144ul, 1048576ul}) {
    tee::SimClock clock;
    runtime::UntrustedFs host;
    runtime::FsShield shield(
        runtime::FsShieldConfig{
            .prefixes = {{"/", runtime::ShieldPolicy::Encrypt}},
            .chunk_size = chunk},
        key, host, model, clock, rng);

    shield.write("/f", payload);
    if (shield.read("/f") != payload) {
      std::fprintf(stderr, "round trip failed at chunk %zu\n", chunk);
      return false;
    }

    const double virtual_s = clock.now_s();
    const double mb = static_cast<double>(payload.size()) / (1 << 20);
    const double sealed_overhead =
        static_cast<double>(host.read("/f")->size()) /
            static_cast<double>(payload.size()) -
        1.0;
    std::printf("  %-12zu %16.1f %15.2f%%\n", chunk, 2 * mb / virtual_s,
                sealed_overhead * 100.0);
  }
  return true;
}

}  // namespace

int main() { return run() ? 0 : 1; }
