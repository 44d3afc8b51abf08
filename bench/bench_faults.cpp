// Availability under injected faults: what the resilience layer buys.
//
// No paper figure reports this directly — the paper's claim (challenge 4,
// §3.3.4) is qualitative: workers crash, rejoin and re-attest; serving
// scales out across nodes that can fail. This bench quantifies the claim on
// the simulated testbed: resilient-RPC overhead vs link loss, fleet
// throughput with k of n nodes down, and training progress through a
// mid-round worker crash. All numbers are virtual time from a fixed fault
// seed — bit-reproducible — and are also emitted to BENCH_faults.json.
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/serving.h"
#include "distributed/training.h"
#include "faults/fault_plane.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "runtime/resilient_channel.h"
#include "runtime/shielded_link.h"

namespace {

using namespace stf;

constexpr std::uint64_t kFaultSeed = 2026;

// --- resilient RPC overhead vs loss rate ----------------------------------

struct RpcPoint {
  double drop_prob = 0;
  double seconds = 0;
  std::uint64_t retransmits = 0;
};

RpcPoint rpc_under_loss(double drop_prob) {
  tee::SimClock clock_a, clock_b;
  net::SimNetwork net;
  const auto na = net.add_node("a", clock_a);
  const auto nb = net.add_node("b", clock_b);
  tee::CostModel model;
  crypto::HmacDrbg rng(crypto::to_bytes("bench-faults"));
  auto link = runtime::ShieldedLink::establish(net, na, nb, model, clock_a,
                                               clock_b, rng);
  faults::FaultPlane plane(kFaultSeed);
  plane.attach(net);
  faults::LinkFaultSpec spec;
  spec.drop_prob = drop_prob;
  plane.set_link_faults(na, nb, spec);
  runtime::ResilientChannel a(std::move(link.a_to_b), clock_a, 1);
  runtime::ResilientChannel b(std::move(link.b_to_a), clock_b, 2);

  const auto payload = crypto::to_bytes(std::string(4096, 'x'));
  const std::uint64_t start = clock_a.now_ns();
  for (int i = 0; i < 200; ++i) {
    (void)runtime::ResilientChannel::deliver(a, b, payload);
  }
  return {drop_prob, static_cast<double>(clock_a.now_ns() - start) / 1e9,
          a.retransmits()};
}

// --- fleet availability with k of n nodes down ----------------------------

struct FleetPoint {
  unsigned dead = 0;
  double seconds = 0;
  double relative_throughput = 0;  // vs the healthy fleet
};

std::vector<FleetPoint> fleet_availability() {
  ml::Graph g = ml::sized_classifier("svc", 16ull << 20);
  ml::Session s(g);
  const auto model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const ml::Tensor image = ml::synthetic_cifar10(1, 3).sample(0);

  std::vector<FleetPoint> points;
  double healthy_seconds = 0;
  for (unsigned dead = 0; dead < 4; ++dead) {
    core::ServingConfig cfg;
    cfg.mode = tee::TeeMode::Simulation;
    cfg.threads = 2;
    cfg.per_thread_scratch = 2ull << 20;
    cfg.inference.container_name = "svc";
    core::ServingFleet fleet(model, cfg, 4);
    fleet.configure_resilience({});
    for (unsigned k = 0; k < dead; ++k) fleet.fail_node(k);
    const double seconds = fleet.estimate_stream_seconds(image, 400);
    if (dead == 0) healthy_seconds = seconds;
    points.push_back({dead, seconds, healthy_seconds / seconds});
  }
  return points;
}

// --- training through weather and a crash ---------------------------------

struct TrainPoint {
  std::string label;
  distributed::TrainStats stats;
};

std::vector<TrainPoint> training_resilience() {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  const ml::Dataset data = ml::synthetic_mnist(400, 7);

  auto base = [] {
    distributed::ClusterConfig cfg;
    cfg.mode = tee::TeeMode::Simulation;
    cfg.num_workers = 2;
    cfg.batch_size = 50;
    cfg.learning_rate = 0.05f;
    cfg.worker_binary_bytes = 8ull << 20;
    cfg.framework_scratch_bytes = 2ull << 20;
    return cfg;
  };

  std::vector<TrainPoint> points;
  {
    distributed::TrainingCluster cluster(graph, base());
    points.push_back({"clean (legacy path)", cluster.train(data, 1200)});
  }
  {
    auto cfg = base();
    cfg.faults.enabled = true;
    cfg.faults.seed = kFaultSeed;
    cfg.faults.link.drop_prob = 0.2;
    cfg.faults.link.duplicate_prob = 0.05;
    cfg.faults.link.delay_prob = 0.1;
    distributed::TrainingCluster cluster(graph, cfg);
    points.push_back({"20% drop on every link", cluster.train(data, 1200)});
  }
  {
    auto cfg = base();
    cfg.faults.enabled = true;
    cfg.faults.seed = kFaultSeed;
    distributed::TrainingCluster cluster(graph, cfg);
    cluster.schedule_worker_crash(0, 2);
    cluster.schedule_worker_crash(1, 7);
    points.push_back({"2 mid-round crashes + rejoin", cluster.train(data, 1200)});
  }
  return points;
}

void emit_json(const std::vector<RpcPoint>& rpc,
               const std::vector<FleetPoint>& fleet,
               const std::vector<TrainPoint>& training) {
  std::FILE* out = std::fopen("BENCH_faults.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_faults.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"fault_seed\": %llu,\n",
               static_cast<unsigned long long>(kFaultSeed));
  std::fprintf(out, "  \"rpc_under_loss\": [\n");
  for (std::size_t i = 0; i < rpc.size(); ++i) {
    std::fprintf(out,
                 "    {\"drop_prob\": %.2f, \"seconds\": %.6f, "
                 "\"retransmits\": %llu}%s\n",
                 rpc[i].drop_prob, rpc[i].seconds,
                 static_cast<unsigned long long>(rpc[i].retransmits),
                 i + 1 < rpc.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"fleet_availability\": [\n");
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::fprintf(out,
                 "    {\"dead_nodes\": %u, \"seconds\": %.6f, "
                 "\"relative_throughput\": %.4f}%s\n",
                 fleet[i].dead, fleet[i].seconds,
                 fleet[i].relative_throughput,
                 i + 1 < fleet.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"training\": [\n");
  for (std::size_t i = 0; i < training.size(); ++i) {
    const auto& s = training[i].stats;
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"total_seconds\": %.6f, "
        "\"final_loss\": %.6f, \"retransmits\": %llu, "
        "\"degraded_rounds\": %llu, \"worker_crashes\": %llu}%s\n",
        training[i].label.c_str(), s.total_seconds,
        static_cast<double>(s.final_loss),
        static_cast<unsigned long long>(s.retransmits),
        static_cast<unsigned long long>(s.degraded_rounds),
        static_cast<unsigned long long>(s.worker_crashes),
        i + 1 < training.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  bench::fprint_registry_section(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_faults.json\n");
}

void run() {
  bench::print_header(
      "Availability under injected faults (resilient RPC, fleet, training)",
      "qualitative in the paper (challenge 4): crash, rejoin, re-attest; "
      "here quantified on the simulated testbed");

  std::printf("\n[resilient RPC: 200 x 4 KB transfers, virtual seconds]\n");
  std::vector<RpcPoint> rpc;
  for (const double p : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    rpc.push_back(rpc_under_loss(p));
    bench::print_row("drop_prob " + std::to_string(p).substr(0, 4),
                     rpc.back().seconds, "s",
                     "retransmits=" + std::to_string(rpc.back().retransmits));
  }

  std::printf("\n[serving fleet: 400 images on 4 nodes, k dead]\n");
  const auto fleet = fleet_availability();
  for (const auto& point : fleet) {
    bench::print_row(std::to_string(point.dead) + " of 4 nodes down",
                     point.seconds, "s",
                     "relative throughput " +
                         std::to_string(point.relative_throughput)
                             .substr(0, 4));
  }
  bench::print_note(
      "graceful degradation: throughput falls with dead nodes; the stream "
      "always completes (all-dead throws instead of hanging)");

  std::printf("\n[training: 1200 samples, 2 workers, synchronous rounds]\n");
  const auto training = training_resilience();
  for (const auto& point : training) {
    bench::print_row(point.label, point.stats.total_seconds, "s",
                     "loss=" + std::to_string(point.stats.final_loss) +
                         " retx=" + std::to_string(point.stats.retransmits) +
                         " degraded=" +
                         std::to_string(point.stats.degraded_rounds));
  }
  bench::print_note(
      "crashed workers rejoin after CAS re-attestation; rounds with missing "
      "gradients apply the scaled average of what arrived");

  bench::print_registry_summary();
  emit_json(rpc, fleet, training);
}

}  // namespace

int main() {
  run();
  return 0;
}
