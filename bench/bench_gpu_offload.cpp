// GPU offload crossover sweep (§7.4, docs/GPU_OFFLOAD.md) — Slalom as a
// production serving backend.
//
// Each (model size, batch, EPC pressure) cell serves the same eight
// requests twice in Hardware mode: enclave-only and with the linear layers
// offloaded to the simulated untrusted GPU (Freivalds-verified matmuls,
// spot-checked convs). The sweep exposes the crossover the scheme lives on:
// at batch 1 the Freivalds check costs the same order as the matmul itself,
// so offload buys nothing and pays PCIe on top; once verification is
// batched — one check over the stacked [B, n] product — the O(k*n) term
// amortizes across the batch and the 500 GFLOP/s GPU beats the 32 GFLOP/s
// enclave outright.
//
// The bench is also a gate (violations exit 1):
//   * at batch >= 8, offload must show lower virtual latency than
//     enclave-only for every model size (above the crossover);
//   * at batch 1, the smallest model must show offload >= enclave-only
//     (the crossover genuinely exists — offload is not a free lunch);
//   * batched verification must spend fewer enclave flops than per-request
//     verification at batch 8;
//   * a run against a permanently corrupting GPU must terminate every
//     request via the in-enclave fallback, bit-identical to enclave-only,
//     and end with the GPU distrusted;
//   * every attribution row must decompose exactly (profile.gpu and
//     profile.pcie are in the conservation invariant).
// Output is virtual time from fixed seeds: BENCH_gpu_offload.json is
// byte-reproducible and committed under bench/baselines/.
#include <cinttypes>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/inference.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "tee/platform.h"

namespace {

using namespace stf;

constexpr std::uint64_t kEpcBytes = 24ull << 20;
constexpr int kRequests = 8;  // per cell, batched or sequential

struct CellResult {
  std::string model;
  std::uint64_t weight_bytes = 0;
  int batch = 1;
  bool offload = false;
  std::uint64_t total_latency_ns = 0;
  std::uint64_t loads = 0;  // EPC demand loads (the pressure axis)
  double gpu_flops = 0;
  double verification_flops = 0;
  std::uint64_t pcie_bytes = 0;
};

core::InferenceOptions service_options(const std::string& name, bool offload) {
  core::InferenceOptions opts;
  opts.container_name = name + (offload ? "-gpu" : "-enclave");
  opts.binary_bytes = 1ull << 20;  // small image: isolate the model arena
  opts.syscalls_per_inference = 4;
  opts.gpu_offload = offload;
  return opts;
}

CellResult run_cell(const std::string& name, std::uint64_t weight_bytes,
                    const ml::lite::FlatModel& model, int batch, bool offload,
                    const std::vector<ml::Tensor>& eval,
                    std::vector<ml::Tensor>* outputs = nullptr) {
  tee::CostModel cost;
  cost.epc_bytes = kEpcBytes;
  tee::Platform platform("gpu-bench", tee::TeeMode::Hardware, cost);
  core::InferenceService service(platform, model,
                                 service_options(name, offload));

  CellResult r;
  r.model = name;
  r.weight_bytes = weight_bytes;
  r.batch = batch;
  r.offload = offload;
  const std::uint64_t t0 = platform.clock().now_ns();
  if (batch <= 1) {
    for (const ml::Tensor& sample : eval) {
      ml::Tensor probs = service.classify(sample);
      if (outputs != nullptr) outputs->push_back(std::move(probs));
    }
  } else {
    std::vector<const ml::Tensor*> ptrs;
    for (const ml::Tensor& sample : eval) ptrs.push_back(&sample);
    std::vector<ml::Tensor> probs = service.classify_batch(ptrs);
    if (outputs != nullptr) *outputs = std::move(probs);
  }
  r.total_latency_ns = platform.clock().now_ns() - t0;
  r.loads = platform.epc().stats().loads;
  if (const ml::SlalomStats* s = service.slalom_stats()) {
    r.gpu_flops = s->gpu_flops;
    r.verification_flops = s->verification_flops;
    r.pcie_bytes = s->pcie_bytes;
  }
  return r;
}

/// Gate: a permanently lying GPU must not kill a single request — every
/// classify falls back in-enclave with the right answer and the service
/// ends up distrusting the GPU.
bool run_corruption_gate(const ml::lite::FlatModel& model,
                         const std::vector<ml::Tensor>& eval,
                         std::uint64_t* fallbacks, bool* distrusted,
                         int* completed) {
  tee::CostModel cost;
  cost.epc_bytes = kEpcBytes;
  tee::Platform clean_platform("gpu-bench-ref", tee::TeeMode::Hardware, cost);
  core::InferenceService reference(clean_platform, model,
                                   service_options("corruption-ref", false));

  tee::Platform platform("gpu-bench-corrupt", tee::TeeMode::Hardware, cost);
  core::InferenceOptions opts = service_options("corruption", true);
  opts.slalom.distrust_after = 3;
  core::InferenceService service(platform, model, opts);
  service.set_gpu_corruption([](std::uint64_t, ml::Tensor& t) {
    if (t.size() > 0) t.at(t.size() / 2) += 1.0f;
  });

  *completed = 0;
  bool ok = true;
  for (const ml::Tensor& sample : eval) {
    const ml::Tensor probs = service.classify(sample);  // must not throw
    ++*completed;
    if (!(probs == reference.classify(sample))) {
      std::fprintf(stderr,
                   "corruption gate: fallback output differs from "
                   "enclave-only\n");
      ok = false;
    }
  }
  *fallbacks = service.gpu_fallbacks();
  *distrusted = service.gpu_distrusted();
  if (*fallbacks == 0 || !*distrusted) {
    std::fprintf(stderr,
                 "corruption gate: expected fallbacks and distrust, got "
                 "%" PRIu64 " fallbacks, distrusted=%d\n",
                 *fallbacks, static_cast<int>(*distrusted));
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  obs::set_profiling_enabled(true);
  bench::print_header(
      "GPU offload crossover — enclave-only vs Slalom offload "
      "(HW mode, model size x batch x EPC pressure)",
      "batched Freivalds verification amortizes the O(k*n) check across the "
      "batch; above the crossover the 500 GFLOP/s GPU beats the enclave");

  // Weight bytes relative to the 24 MB EPC: fits / at / 2x (thrashing).
  const std::vector<std::pair<std::string, std::uint64_t>> sizes = {
      {"small", 4ull << 20},
      {"at_epc", kEpcBytes},
      {"epc_x2", kEpcBytes * 2},
  };
  const std::vector<int> batches = {1, 8};

  const ml::Dataset eval_set = ml::synthetic_cifar10(kRequests, 3);
  std::vector<ml::Tensor> eval;
  for (int i = 0; i < kRequests; ++i) eval.push_back(eval_set.sample(i));

  bool gate_ok = true;
  std::vector<CellResult> results;
  std::printf("\n  %-8s %5s %-9s %16s %12s %14s %14s\n", "model", "batch",
              "config", "latency (ms)", "loads", "gpu gflops", "verify gflops");
  for (const auto& [name, bytes] : sizes) {
    ml::Graph g = ml::sized_classifier(name, bytes);
    ml::Session session(g);
    const auto model = ml::lite::FlatModel::from_frozen(
        ml::freeze(g, session), "input", "probs");

    for (const int batch : batches) {
      // Offload-off outputs are the baseline; offload must match them
      // bit-for-bit (the ISSUE acceptance bar for every existing figure).
      std::vector<ml::Tensor> plain_out, offload_out;
      const CellResult plain =
          run_cell(name, bytes, model, batch, false, eval, &plain_out);
      const CellResult gpu =
          run_cell(name, bytes, model, batch, true, eval, &offload_out);
      if (!(plain_out == offload_out)) {
        std::fprintf(stderr, "offload outputs differ for %s batch %d\n",
                     name.c_str(), batch);
        gate_ok = false;
      }
      for (const CellResult& r : {plain, gpu}) {
        std::printf("  %-8s %5d %-9s %16.3f %12" PRIu64 " %14.3f %14.3f\n",
                    r.model.c_str(), r.batch,
                    r.offload ? "gpu" : "enclave",
                    static_cast<double>(r.total_latency_ns) / 1e6, r.loads,
                    r.gpu_flops / 1e9, r.verification_flops / 1e9);
        results.push_back(r);
      }

      // The crossover gates.
      if (batch >= 8 && gpu.total_latency_ns >= plain.total_latency_ns) {
        std::fprintf(stderr,
                     "crossover gate failed: %s batch %d offload %" PRIu64
                     " ns >= enclave %" PRIu64 " ns\n",
                     name.c_str(), batch, gpu.total_latency_ns,
                     plain.total_latency_ns);
        gate_ok = false;
      }
      if (batch == 1 && name == "small" &&
          gpu.total_latency_ns < plain.total_latency_ns) {
        std::fprintf(stderr,
                     "crossover gate failed: unbatched small-model offload "
                     "must not beat enclave-only (verification costs the "
                     "matmul's order at batch 1)\n");
        gate_ok = false;
      }
    }
  }

  // Batched vs per-request verification at batch 8 (the amortization gate):
  // same model, same eight requests, verification flops must shrink.
  double per_request_verify = 0, batched_verify = 0;
  for (const CellResult& r : results) {
    if (r.model != "at_epc" || !r.offload) continue;
    if (r.batch == 1) per_request_verify = r.verification_flops;
    if (r.batch == 8) batched_verify = r.verification_flops;
  }
  std::printf("\n  verification flops at batch 8: %.3f gflops batched vs "
              "%.3f gflops per-request\n",
              batched_verify / 1e9, per_request_verify / 1e9);
  if (batched_verify >= per_request_verify) {
    std::fprintf(stderr, "batched verification gate failed\n");
    gate_ok = false;
  }

  // Corrupting-GPU gate on the small model.
  ml::Graph small_g = ml::sized_classifier("small", 4ull << 20);
  ml::Session small_session(small_g);
  const auto small_model = ml::lite::FlatModel::from_frozen(
      ml::freeze(small_g, small_session), "input", "probs");
  std::uint64_t fallbacks = 0;
  bool distrusted = false;
  int completed = 0;
  if (!run_corruption_gate(small_model, eval, &fallbacks, &distrusted,
                           &completed)) {
    gate_ok = false;
  }
  std::printf("  corrupting GPU: %d/%d requests completed via fallback, "
              "%" PRIu64 " strikes, distrusted=%s\n",
              completed, kRequests, fallbacks, distrusted ? "yes" : "no");

  if (!gate_ok) return 1;
  bench::print_note(
      "batch 1 pays the full Freivalds check per request and loses to the "
      "enclave; batch 8 pays it once for the stack and the GPU's 15x "
      "arithmetic advantage shows through");

  bench::check_conservation();
  bench::print_registry_summary();

  std::FILE* out = std::fopen("BENCH_gpu_offload.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_gpu_offload.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::fprint_config_section(
      out, {bench::config_int("epc_bytes", static_cast<long long>(kEpcBytes)),
            bench::config_int("requests", kRequests),
            bench::config_int("sweep_sizes",
                              static_cast<long long>(sizes.size())),
            bench::config_str("eval_seed", "cifar10/3")});
  std::fprintf(out, "  \"offload_sweep\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(out,
                 "    {\"model\": \"%s\", \"weight_bytes\": %" PRIu64
                 ", \"batch\": %d, \"config\": \"%s\", "
                 "\"total_latency_ns\": %" PRIu64 ", \"loads\": %" PRIu64
                 ", \"gpu_flops\": %.0f, \"verification_flops\": %.0f, "
                 "\"pcie_bytes\": %" PRIu64 "}%s\n",
                 r.model.c_str(), r.weight_bytes, r.batch,
                 r.offload ? "gpu" : "enclave", r.total_latency_ns, r.loads,
                 r.gpu_flops, r.verification_flops, r.pcie_bytes,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"corruption\": {\"completed\": %d, \"fallbacks\": %" PRIu64
               ", \"distrusted\": %d},\n",
               completed, fallbacks, distrusted ? 1 : 0);
  bench::fprint_registry_section(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\n  wrote BENCH_gpu_offload.json\n");
  return 0;
}
