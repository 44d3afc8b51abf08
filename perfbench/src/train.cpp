// train_ps_hw: a closed loop of synchronous parameter-server rounds — the
// Figure 8 HW configuration (network shield on, 87.4 MB worker image plus
// framework scratch overflowing the EPC) with 2 workers and mnist_mlp(128).
// The only workload that runs distributed, net, Session autodiff and the
// real AES-GCM of runtime.secure_channel on large records.
#include <cmath>

#include "distributed/training.h"
#include "harness.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "obs/names.h"
#include "runtime/thread_pool.h"

namespace perfbench {
namespace {

using namespace stf;

constexpr unsigned kWorkers = 2;
constexpr std::int64_t kHidden = 128;
constexpr std::int64_t kBatch = 100;
constexpr std::int64_t kRounds = 4;
constexpr std::int64_t kDataSamples = 1000;
constexpr float kLearningRate = 5e-4f;
// Figure 8's HW calibration: CPU TensorFlow training throughput, and a
// multi-threaded intra-op pool whose concurrent EPC faults contend.
constexpr double kTrainingFlops = 1.5e9;
constexpr std::uint64_t kScratchBytes = 15ull << 20;
constexpr std::uint64_t kPagingContention = 4;

distributed::ClusterConfig cluster_config(std::uint64_t seed) {
  distributed::ClusterConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.network_shield = true;
  cfg.num_workers = kWorkers;
  cfg.batch_size = kBatch;
  cfg.learning_rate = kLearningRate;
  cfg.model.flops_per_second = kTrainingFlops;
  cfg.model.page_fault_ns *= kPagingContention;
  cfg.model.page_load_ns *= kPagingContention;
  cfg.model.page_evict_ns *= kPagingContention;
  cfg.framework_scratch_bytes = kScratchBytes;
  cfg.seed = seed;
  return cfg;
}

class TrainWorkload final : public Workload {
 public:
  explicit TrainWorkload(const Options& opt) : opt_(opt) {}

  std::vector<ConfigEntry> config() const override {
    const distributed::ClusterConfig cfg = cluster_config(opt_.seed);
    std::vector<ConfigEntry> c = {
        config_str("workload", "train_ps_hw"),
        config_str("loop", "closed"),
        config_num("workers", kWorkers),
        config_num("hidden", kHidden),
        config_num("batch_size", kBatch),
        config_num("rounds", kRounds),
        config_num("data_samples", kDataSamples),
        config_num("learning_rate", kLearningRate),
        config_str("network_shield", "on"),
        config_num("worker_binary_bytes",
                   static_cast<double>(cfg.worker_binary_bytes)),
        config_num("framework_scratch_bytes",
                   static_cast<double>(kScratchBytes)),
        // Session kernels run on the process-wide pool, which sizes itself
        // to the host's hardware concurrency.
        config_num("kernel_threads",
                   runtime::ThreadPool::shared().thread_count()),
    };
    const auto cost = cost_model_config("cost.", cfg.model);
    c.insert(c.end(), cost.begin(), cost.end());
    return c;
  }

  std::vector<std::string> profile_rows() const override {
    return {obs::names::kSpanTrainRound};
  }

  Rep run_rep(HostTrace& trace) override {
    Rep rep;
    const std::size_t mark = trace.spans().size();
    std::unique_ptr<ml::Graph> graph;
    std::unique_ptr<ml::Dataset> data;
    std::unique_ptr<distributed::TrainingCluster> cluster;
    {
      auto setup = trace.span("setup");
      {
        auto s = trace.span("ml.model_build");
        graph = std::make_unique<ml::Graph>(ml::mnist_mlp(kHidden, opt_.seed));
        data = std::make_unique<ml::Dataset>(
            ml::synthetic_mnist(kDataSamples, opt_.seed));
      }
      {
        auto s = trace.span("distributed.cluster_build");
        cluster = std::make_unique<distributed::TrainingCluster>(
            *graph, cluster_config(opt_.seed));
      }
      rep.setup_s = setup.elapsed_s();
    }
    distributed::TrainStats stats;
    {
      auto s = trace.span("distributed.train");
      stats = cluster->train(*data, kRounds * kBatch * kWorkers);
      rep.wall_s = s.elapsed_s();
    }

    rep.attempted = static_cast<std::int64_t>(stats.rounds);
    rep.failed = static_cast<std::int64_t>(stats.degraded_rounds);
    rep.exact["train_samples_per_s"] =
        static_cast<double>(stats.samples_processed) / stats.total_seconds;
    rep.exact["round_p50_ms"] =
        registry_quantile_ns(obs::names::kTrainRoundQuantileNs, 0.5) / 1e6;
    rep.exact["final_loss"] = stats.final_loss;

    rep.host_layer["distributed.cluster_build_s"] =
        trace.total_s("distributed.cluster_build", mark);
    rep.host_layer["distributed.train_s"] = rep.wall_s;
    rep.virtual_layer["distributed.rounds"] = static_cast<double>(stats.rounds);

    rep.checks.push_back({"train.final_loss_finite",
                          std::isfinite(stats.final_loss),
                          "final loss " + json_number(stats.final_loss)});
    rep.checks.push_back(
        {"train.all_rounds_complete",
         stats.rounds == static_cast<std::uint64_t>(kRounds) &&
             stats.degraded_rounds == 0 && stats.lost_gradients == 0,
         std::to_string(stats.rounds) + " rounds, " +
             std::to_string(stats.degraded_rounds) + " degraded"});
    return rep;
  }

 private:
  Options opt_;
};

}  // namespace

std::unique_ptr<Workload> make_train_workload(const Options& opt) {
  return std::make_unique<TrainWorkload>(opt);
}

}  // namespace perfbench
