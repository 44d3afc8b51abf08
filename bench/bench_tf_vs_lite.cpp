// §5.3 #4: full TensorFlow vs TensorFlow Lite for inference in HW mode.
//
// Same model (inception-v3 class, 91 MB), same image, same enclave budget.
// Paper: Lite answers in 0.697 s where full TF takes 49.782 s (~71x), because
// the Lite container is 1.9 MB and fits the EPC next to the model, while the
// 87.4 MB full-TF binary plus the framework heap thrash it continuously.
#include "bench_common.h"
#include "core/securetf.h"
#include "ml/dataset.h"

namespace {

using namespace stf;

constexpr double kInterpreterFlops = 2.66e9;

void run() {
  bench::print_header(
      "§5.3 #4 — TensorFlow vs TensorFlow Lite inference (HW mode, 91 MB "
      "model)",
      "Lite ~71x faster (0.697 s vs 49.782 s); binary 1.9 MB vs 87.4 MB");

  const auto spec = core::inception_v3_spec();
  ml::Graph g = spec.build_graph();
  ml::Session session(g);
  const ml::Graph frozen = ml::freeze(g, session);
  const auto lite_model =
      ml::lite::FlatModel::from_frozen(frozen, "input", "probs");
  const ml::Tensor image = ml::synthetic_cifar10(1, 3).sample(0);

  // --- TF-Lite container ---------------------------------------------------
  core::SecureTfConfig lite_cfg;
  lite_cfg.mode = tee::TeeMode::Hardware;
  lite_cfg.model.flops_per_second = kInterpreterFlops;
  core::SecureTfContext lite_ctx(lite_cfg);
  core::InferenceOptions lite_opts;
  lite_opts.container_name = spec.name;
  lite_opts.bytes_per_flop = spec.bytes_per_flop;
  lite_opts.extra_gflops_per_inference = spec.gflops_per_inference;
  auto lite = lite_ctx.create_lite_service(lite_model, lite_opts);
  double lite_s = 0;
  for (int i = 0; i < 4; ++i) {
    (void)lite->classify(image);
    lite_s = lite->last_latency_ms() / 1000.0;
  }

  // --- full TensorFlow container -------------------------------------------
  core::SecureTfConfig tf_cfg = lite_cfg;
  // Full TF's intra-op thread pool keeps all hyperthreads faulting
  // concurrently (the paper's desktop: 4C/8T) — reclaim contention amplifies
  // every EPC fault.
  tf_cfg.model.page_fault_ns *= 12;
  tf_cfg.model.page_load_ns *= 12;
  tf_cfg.model.page_evict_ns *= 12;
  core::SecureTfContext tf_ctx(tf_cfg);
  core::InferenceOptions tf_opts;
  tf_opts.container_name = spec.name + "-full-tf";
  tf_opts.bytes_per_flop = spec.bytes_per_flop;
  tf_opts.extra_gflops_per_inference = spec.gflops_per_inference;
  // Full TF allocates hundreds of MB of framework state (graph protos,
  // grappler, per-op temporaries) and sweeps it while executing.
  tf_opts.framework_heap_bytes = 512ull << 20;
  tf_opts.heap_passes_per_inference = 6;
  auto full_tf = tf_ctx.create_full_tf_service(frozen, tf_opts);
  double tf_s = 0;
  for (int i = 0; i < 3; ++i) {
    (void)full_tf->classify(image);
    tf_s = full_tf->last_latency_ms() / 1000.0;
  }

  bench::print_row("TF-Lite container (1.9 MB binary)", lite_s, "s",
                   "(paper: 0.697 s)");
  bench::print_row("full-TF container (87.4 MB binary)", tf_s, "s",
                   "(paper: 49.782 s)");
  bench::print_row("Lite advantage", tf_s / lite_s, "x", "(paper: ~71x)");
  bench::print_note(
      "results are identical in both containers; only the EPC behaviour "
      "differs");
}

}  // namespace

int main() {
  run();
  stf::bench::write_registry_json("BENCH_tf_vs_lite.registry.json");
  return 0;
}
