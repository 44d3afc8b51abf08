// EPC-aware memory planner + weight streaming sweep (docs/MEMORY_PLANNER.md).
//
// Full-TensorFlow inference containers in Hardware mode, model weights swept
// below / at / above a deliberately small EPC, each size executed twice:
// with the legacy bump-cursor arena, and with the liveness-packed planner +
// layer-wise weight streaming. The figure this regenerates is the paper's
// core EPC story (§5.3) from the supply side: the same pass, same results,
// strictly smaller working set — fewer demand evictions and lower virtual
// latency once the model outgrows the EPC.
//
// The bench is also a gate: above 1.5x EPC the planner+streaming config must
// show >= 30% fewer demand evictions and lower latency than the legacy
// config, and every attribution row must decompose exactly (the conservation
// invariant now includes the epc_prefetch category). Violations exit 1.
// Output is virtual time from fixed seeds: BENCH_planner.json is
// byte-reproducible and committed under bench/baselines/.
#include <cinttypes>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/inference.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "tee/platform.h"

namespace {

using namespace stf;

// 24 MB clears sized_classifier's 12.6 MB first layer (3072x1024 floats):
// the half-EPC config genuinely fits, the 1.5x/2x configs genuinely thrash.
constexpr std::uint64_t kEpcBytes = 24ull << 20;
constexpr int kRequests = 4;

struct ConfigResult {
  std::string model;
  std::uint64_t weight_bytes = 0;
  bool planner = false;
  std::uint64_t total_latency_ns = 0;   // all requests, virtual time
  std::uint64_t evictions = 0;          // demand EWB (critical path)
  std::uint64_t advised_evictions = 0;  // proactive EWB (off critical path)
  std::uint64_t faults = 0;
  std::uint64_t prefetched_pages = 0;
};

ConfigResult run_config(const std::string& name, std::uint64_t weight_bytes,
                        bool planner) {
  tee::CostModel cost;
  cost.epc_bytes = kEpcBytes;
  tee::Platform platform("planner-bench", tee::TeeMode::Hardware, cost);

  core::InferenceOptions opts;
  opts.container_name = name + (planner ? "-planned" : "-legacy");
  opts.binary_bytes = 1ull << 20;  // keep the image small: isolate the arena
  opts.syscalls_per_inference = 4;
  opts.memory_planner = planner;
  opts.weight_streaming = planner;
  core::InferenceService service(platform,
                                 ml::sized_classifier(name, weight_bytes),
                                 opts);

  const ml::Tensor image = ml::synthetic_cifar10(1, 3).sample(0);
  const std::uint64_t t0 = platform.clock().now_ns();
  for (int i = 0; i < kRequests; ++i) (void)service.classify(image);

  const tee::EpcStats& stats = platform.epc().stats();
  ConfigResult r;
  r.model = name;
  r.weight_bytes = weight_bytes;
  r.planner = planner;
  r.total_latency_ns = platform.clock().now_ns() - t0;
  r.evictions = stats.evictions;
  r.advised_evictions = stats.advised_evictions;
  r.faults = stats.faults;
  r.prefetched_pages = stats.prefetched_pages;
  return r;
}

}  // namespace

int main() {
  obs::set_profiling_enabled(true);
  bench::print_header(
      "Memory planner + weight streaming vs EPC size (full TF, HW mode)",
      "the packed arena wins at every size; above the EPC streaming turns "
      "demand paging into off-path advise + cheap prefetch");

  const std::vector<std::pair<std::string, std::uint64_t>> sweep = {
      {"half_epc", kEpcBytes / 2},        // 4 MB: fits with room to spare
      {"at_epc", kEpcBytes},              // 8 MB: on the boundary
      {"epc_x1_5", kEpcBytes * 3 / 2},    // 12 MB: the paper's thrash regime
      {"epc_x2", kEpcBytes * 2},          // 16 MB: deep thrash
  };

  std::vector<ConfigResult> results;
  std::printf("\n  %-10s %-8s %16s %12s %12s %12s %12s\n", "model", "config",
              "latency (ms)", "evictions", "advised", "faults", "prefetched");
  bool gate_ok = true;
  for (const auto& [name, bytes] : sweep) {
    const ConfigResult legacy = run_config(name, bytes, /*planner=*/false);
    const ConfigResult planned = run_config(name, bytes, /*planner=*/true);
    for (const ConfigResult& r : {legacy, planned}) {
      std::printf("  %-10s %-8s %16.3f %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                  " %12" PRIu64 "\n",
                  r.model.c_str(), r.planner ? "planned" : "legacy",
                  static_cast<double>(r.total_latency_ns) / 1e6 / kRequests,
                  r.evictions, r.advised_evictions, r.faults,
                  r.prefetched_pages);
    }
    if (bytes >= kEpcBytes * 3 / 2) {
      // The acceptance gate: >=30% fewer demand evictions, lower latency.
      if (planned.evictions * 10 > legacy.evictions * 7 ||
          planned.total_latency_ns >= legacy.total_latency_ns) {
        std::fprintf(stderr,
                     "planner gate failed for %s: evictions %" PRIu64
                     " vs %" PRIu64 ", latency %" PRIu64 " vs %" PRIu64 "\n",
                     name.c_str(), planned.evictions, legacy.evictions,
                     planned.total_latency_ns, legacy.total_latency_ns);
        gate_ok = false;
      }
    }
    results.push_back(legacy);
    results.push_back(planned);
  }
  if (!gate_ok) return 1;
  bench::print_note(
      "advised evictions replace demand evictions: the same pages leave the "
      "EPC, but off the critical path, before the pressure hits");

  bench::check_conservation(" (incl. epc_prefetch)");
  bench::print_registry_summary();

  std::FILE* out = std::fopen("BENCH_planner.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_planner.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"planner_sweep\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(out,
                 "    {\"model\": \"%s\", \"weight_bytes\": %" PRIu64
                 ", \"planner\": %d, \"total_latency_ns\": %" PRIu64
                 ", \"evictions\": %" PRIu64 ", \"advised_evictions\": %" PRIu64
                 ", \"faults\": %" PRIu64 ", \"prefetched_pages\": %" PRIu64
                 "}%s\n",
                 r.model.c_str(), r.weight_bytes, r.planner ? 1 : 0,
                 r.total_latency_ns, r.evictions, r.advised_evictions,
                 r.faults, r.prefetched_pages, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  bench::fprint_registry_section(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_planner.json\n");
  return 0;
}
