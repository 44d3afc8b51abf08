// Cost-attribution profile of the two anchor workloads (DESIGN.md §6e): a
// hardware-mode classification stream squeezed through a small EPC, and a
// short synchronous training run over the network shield. Profiling is ON
// for this bench (it is the one binary that exercises the attribution
// plane); everything is virtual time from a fixed seed, so the emitted
// BENCH_profile.json is byte-reproducible and serves as the committed
// baseline for the bench_regression gate (ctest compares it byte for byte).
#include "bench_common.h"
#include "core/securetf.h"
#include "distributed/training.h"
#include "ml/dataset.h"
#include "ml/models.h"

namespace {

using namespace stf;

void run_classification() {
  bench::print_header(
      "Profile A — HW-mode classification under EPC pressure",
      "epc_paging + compute dominate; transition/syscall visible");

  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  // Shrink the EPC well below the model + framework footprint so the
  // paging category actually shows up at this bench's small model size.
  cfg.model.epc_bytes = 256 * 1024;

  const ml::Graph graph = ml::mnist_mlp(64, 7);
  ml::Session session(graph);
  const auto model = ml::lite::FlatModel::from_frozen(
      ml::freeze(graph, session), "input", "probs");
  const ml::Dataset mnist = ml::synthetic_mnist(8, 11);

  core::SecureTfContext ctx(cfg);
  core::InferenceOptions opts;
  opts.syscalls_per_inference = 4;
  opts.extra_gflops_per_inference = 0.01;
  auto service = ctx.create_lite_service(model, opts);
  for (std::int64_t i = 0; i < 8; ++i) {
    (void)service->classify(mnist.sample(i));
  }
  bench::print_row("steady per-image latency", service->last_latency_ms(),
                   "ms");
}

void run_training() {
  bench::print_header(
      "Profile B — synchronous training round over the network shield",
      "crypto (records) + net + compute; warp absorbs shard parallelism");

  distributed::ClusterConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  cfg.network_shield = true;
  cfg.num_workers = 2;
  cfg.batch_size = 25;
  cfg.framework_scratch_bytes = 1ull << 20;

  const ml::Graph graph = ml::mnist_mlp(32, 5);
  const ml::Dataset data = ml::synthetic_mnist(100, 13);
  distributed::TrainingCluster cluster(graph, cfg);
  const auto stats = cluster.train(data, 100);  // 2 rounds of 2x25
  bench::print_row("seconds per round", stats.seconds_per_round, "s");
}

}  // namespace

int main() {
  obs::set_profiling_enabled(true);
  run_classification();
  run_training();
  bench::check_conservation();

  std::printf("\n[attribution table]\n%s",
              obs::profile_table(obs::AttributionStore::global()).c_str());
  stf::bench::print_registry_summary();
  stf::bench::write_registry_json("BENCH_profile.json");
  stf::bench::write_trace_json("trace.json");
  return 0;
}
