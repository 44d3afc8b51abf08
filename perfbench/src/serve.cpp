// serve_poisson: open-loop seeded Poisson traffic against a 2-node HW-mode
// serving fleet with continuous batching and weight streaming — an 8 MB
// model against a 6 MB EPC, the E8 configuration.
//
// The headline rate, the rate ladder and the SLO are fixed absolute numbers
// (chosen near two-thirds of the batched capacity this configuration had
// when the benchmark was defined). Nothing is calibrated by probing the code
// under test, so an optimisation cannot move its own workload.
#include <algorithm>
#include <array>
#include <set>

#include "core/loadgen.h"
#include "core/serving.h"
#include "harness.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "obs/names.h"
#include "obs/profile.h"

namespace perfbench {
namespace {

using namespace stf;

constexpr std::uint64_t kModelBytes = 8ull << 20;
constexpr std::uint64_t kEpcBytes = 6ull << 20;
constexpr std::int64_t kInputDim = 1024;
constexpr std::int64_t kInputPool = 16;
constexpr unsigned kNodes = 2;
constexpr unsigned kLanesPerNode = 2;  // simulated threads per node
// Host threads the kernels of each node run on: the nodes are served one
// after another, and 2 nodes x 2 threads never exceeds a 4-core host.
constexpr unsigned kKernelThreadsPerNode = 2;
constexpr std::int64_t kMaxBatch = 8;
constexpr std::int64_t kQueueCapacity = 64;
constexpr double kBatchWindowS = 0.020;
constexpr double kSloS = 0.100;  // request deadline and ladder p99 limit
constexpr double kHeadlineRps = 900;
constexpr std::int64_t kHeadlineRequests = 3000;
constexpr std::array<double, 6> kLadderRps = {600, 900, 1100, 1250, 1400, 1600};
constexpr std::int64_t kLadderRequests = 1000;

core::ServingConfig fleet_config() {
  core::ServingConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.model.epc_bytes = kEpcBytes;
  cfg.threads = kLanesPerNode;
  cfg.physical_cores = 4;
  cfg.per_thread_scratch = 1ull << 20;
  cfg.kernel_threads = kKernelThreadsPerNode;
  cfg.inference.container_name = "serve";
  cfg.inference.binary_bytes = 1ull << 20;
  cfg.inference.syscalls_per_inference = 16;
  cfg.inference.weight_streaming = true;
  return cfg;
}

core::BatchWindowConfig batch_window() {
  core::BatchWindowConfig window;
  window.max_batch = kMaxBatch;
  window.max_wait_s = kBatchWindowS;
  window.queue_capacity = kQueueCapacity;
  return window;
}

core::LoadGenConfig load_config(std::uint64_t seed, double rps,
                                std::int64_t count) {
  core::LoadGenConfig load;
  load.seed = seed;
  load.process = core::ArrivalProcess::Poisson;
  load.offered_rps = rps;
  load.request_count = count;
  load.input_dim = kInputDim;
  load.input_pool = kInputPool;
  load.slo_s = kSloS;
  return load;
}

ml::lite::FlatModel build_model(std::uint64_t seed) {
  const ml::Graph graph =
      ml::sized_classifier("serve", kModelBytes, kInputDim, 10, seed);
  ml::Session session(graph, nullptr, ml::kernels::KernelContext{});
  return ml::lite::FlatModel::from_frozen(ml::freeze(graph, session), "input",
                                          "probs");
}

/// Every request ends in exactly one terminal outcome and the outcome
/// counts sum to the offered count.
Check check_outcomes(const std::vector<core::Request>& requests,
                     const std::vector<core::RequestOutcome>& outcomes,
                     const core::TrafficSummary& s) {
  std::set<std::int64_t> ids;
  for (const auto& o : outcomes) ids.insert(o.id);
  std::set<std::int64_t> offered;
  for (const auto& r : requests) offered.insert(r.id);
  const std::int64_t terminal = s.completed + s.retried + s.shed_queue_full +
                                s.shed_expired + s.failed_node_down;
  const bool ok = outcomes.size() == requests.size() && ids == offered &&
                  terminal == static_cast<std::int64_t>(requests.size());
  return {"serve.one_terminal_outcome_per_request", ok,
          std::to_string(outcomes.size()) + " outcomes, " +
              std::to_string(ids.size()) + " distinct ids, " +
              std::to_string(terminal) + " terminal of " +
              std::to_string(requests.size()) + " offered"};
}

/// Attribution rows decompose exactly (only populated while profiling).
Check check_conservation() {
  std::uint64_t total = 0;
  std::uint64_t exact = 0;
  for (const auto& row : obs::AttributionStore::global().rows()) {
    ++total;
    if (row.conserved()) ++exact;
  }
  for (const auto& [name, s] : obs::AttributionStore::global().summaries()) {
    std::uint64_t attributed = 0;
    for (const auto v : s.by_category) attributed += v;
    ++total;
    if (s.duration_ns == static_cast<std::int64_t>(attributed) + s.warp_ns) {
      ++exact;
    }
  }
  return {"serve.attribution_conserves", exact == total,
          std::to_string(exact) + "/" + std::to_string(total) +
              " rows and summaries decompose exactly"};
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& opt) : opt_(opt) {}

  std::vector<ConfigEntry> config() const override {
    std::vector<ConfigEntry> c = {
        config_str("workload", "serve_poisson"),
        config_str("loop", "open"),
        config_str("arrival_process", "poisson"),
        config_num("model_weight_bytes", static_cast<double>(kModelBytes)),
        config_num("input_dim", kInputDim),
        config_num("input_pool", kInputPool),
        config_num("nodes", kNodes),
        config_num("lanes_per_node", kLanesPerNode),
        config_num("kernel_threads_per_node", kKernelThreadsPerNode),
        config_num("max_batch", kMaxBatch),
        config_num("queue_capacity", kQueueCapacity),
        config_num("batch_window_s", kBatchWindowS),
        config_num("slo_s", kSloS),
        config_num("headline_rps", kHeadlineRps),
        config_num("headline_requests", kHeadlineRequests),
        config_num("ladder_requests", kLadderRequests),
        config_str("weight_streaming", "on"),
    };
    std::string ladder;
    for (const double r : kLadderRps) {
      if (!ladder.empty()) ladder += ',';
      ladder += json_number(r);
    }
    c.push_back(config_str("ladder_rps", ladder));
    const auto cost = cost_model_config("cost.", fleet_config().model);
    c.insert(c.end(), cost.begin(), cost.end());
    return c;
  }

  std::vector<std::string> profile_rows() const override {
    return {obs::names::kSpanInferenceRequest, obs::names::kSpanInferenceBatch};
  }

  Rep run_rep(HostTrace& trace) override {
    Rep rep;
    const std::size_t mark = trace.spans().size();
    std::unique_ptr<ml::lite::FlatModel> model;
    core::LoadTrace load;
    std::unique_ptr<core::ServingFleet> fleet;
    {
      auto setup = trace.span("setup");
      {
        auto s = trace.span("ml.model_build");
        model = std::make_unique<ml::lite::FlatModel>(build_model(opt_.seed));
      }
      {
        auto s = trace.span("core.loadgen.generate");
        load = core::generate_load(
            load_config(opt_.seed, kHeadlineRps, kHeadlineRequests));
      }
      {
        auto s = trace.span("core.serving.fleet_build");
        fleet = std::make_unique<core::ServingFleet>(*model, fleet_config(),
                                                     kNodes);
      }
      rep.setup_s = setup.elapsed_s();
    }
    std::vector<core::RequestOutcome> outcomes;
    {
      auto s = trace.span("core.serving.serve_trace");
      outcomes = fleet->serve_trace(load.requests, batch_window());
      rep.wall_s = s.elapsed_s();
    }

    const core::TrafficSummary sum = core::summarize(outcomes);
    const double offered = static_cast<double>(sum.offered);
    std::int64_t on_time = 0;
    double batch_sum = 0;
    for (const auto& o : outcomes) {
      const bool done = o.status == core::RequestStatus::Completed ||
                        o.status == core::RequestStatus::Retried;
      if (done && !o.slo_miss) ++on_time;
      if (done) batch_sum += static_cast<double>(o.batch_size);
    }
    const std::int64_t shed =
        sum.shed_queue_full + sum.shed_expired + sum.failed_node_down;
    rep.attempted = sum.offered;
    rep.failed = shed;

    rep.exact["goodput_rps"] = sum.throughput_rps();
    rep.exact["latency_p50_ms"] = static_cast<double>(sum.p50_ns) / 1e6;
    rep.exact["latency_p99_ms"] = static_cast<double>(sum.p99_ns) / 1e6;
    rep.exact["slo_attainment"] = static_cast<double>(on_time) / offered;
    // Latency runs from each request's scheduled arrival: the trace is
    // generated up front, so the generator can never run late.
    rep.exact["generator_lateness_ms"] = 0;
    rep.digests["serve.trace_fingerprint"] = load.fingerprint();

    rep.host_layer["core.loadgen.generate_ms"] =
        trace.total_s("core.loadgen.generate", mark) * 1e3;
    rep.host_layer["core.serving.fleet_build_s"] =
        trace.total_s("core.serving.fleet_build", mark);
    rep.host_layer["core.serving.serve_trace_s"] = rep.wall_s;
    rep.virtual_layer["core.serving.queue_wait_p99_ms"] =
        registry_quantile_ns(obs::names::kServingQueueWaitQuantileNs, 0.99) /
        1e6;
    rep.virtual_layer["core.serving.batch_size_mean"] =
        sum.goodput() > 0 ? batch_sum / static_cast<double>(sum.goodput()) : 0;
    rep.virtual_layer["core.serving.shed"] = static_cast<double>(shed);

    rep.checks.push_back(check_outcomes(load.requests, outcomes, sum));
    if (obs::profiling_enabled()) rep.checks.push_back(check_conservation());
    return rep;
  }

  void finish(std::map<std::string, double>& e2e,
              std::vector<Check>& checks) override {
    const ml::lite::FlatModel model = build_model(opt_.seed);
    std::printf("\n  rate ladder (p99 limit %.0f ms, %lld requests a rate)\n",
                kSloS * 1e3, static_cast<long long>(kLadderRequests));
    std::printf("  %10s %10s %8s %8s %12s %12s\n", "offered", "completed",
                "shed", "failed", "p99 (ms)", "goodput");
    double best = 0;
    bool ladder_ok = true;
    for (const double rps : kLadderRps) {
      const core::LoadTrace load =
          core::generate_load(load_config(opt_.seed, rps, kLadderRequests));
      core::ServingFleet fleet(model, fleet_config(), kNodes);
      const auto outcomes = fleet.serve_trace(load.requests, batch_window());
      const core::TrafficSummary s = core::summarize(outcomes);
      const Check c = check_outcomes(load.requests, outcomes, s);
      ladder_ok = ladder_ok && c.ok;
      const std::int64_t shed = s.shed_queue_full + s.shed_expired;
      const double p99_ms = static_cast<double>(s.p99_ns) / 1e6;
      std::printf("  %10.0f %10lld %8lld %8lld %12.3f %12.1f\n", rps,
                  static_cast<long long>(s.goodput()),
                  static_cast<long long>(shed),
                  static_cast<long long>(s.failed_node_down), p99_ms,
                  s.throughput_rps());
      if (p99_ms <= kSloS * 1e3 && shed == 0 && s.failed_node_down == 0) {
        best = std::max(best, rps);
      }
    }
    e2e["max_rps_under_slo"] = best;
    checks.push_back({"serve.ladder_outcomes", ladder_ok,
                      "every ladder request ends in one terminal outcome"});
  }

 private:
  Options opt_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Options& opt) {
  return std::make_unique<ServeWorkload>(opt);
}

}  // namespace perfbench
