// The hand-off of serve_trace (docs/SERVING.md): the event loop runs each
// batch's charge step and the node's worker runs its math. The contract
// under test, on four fleets (HW with weight streaming, int8 codes, GPU
// offload with one lying GPU, and a 3-node chaos fleet): every virtual-time
// outcome and every registry series is what the inline loop produced, but
// the kernel call counters, which count the workers' grouped passes; and
// every delivered output equals a Native invoke of its request's input.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/loadgen.h"
#include "core/serving.h"
#include "crypto/sha256.h"
#include "faults/fault_plane.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::core {
namespace {

constexpr std::int64_t kInputDim = 64;

ml::lite::FlatModel float_model() {
  // 4.3 MB of weights: a 64->1024 layer, one 1024x1024 layer, the output.
  ml::Graph g = ml::sized_classifier("handoff", 6ull << 20, kInputDim);
  ml::Session s(g);
  return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
}

ml::lite::FlatModel int8_model(const ml::lite::FlatModel& model) {
  std::vector<ml::Tensor> calibration;
  for (std::int64_t i = 0; i < 4; ++i) {
    ml::Tensor t(ml::Shape{1, kInputDim});
    for (std::int64_t j = 0; j < kInputDim; ++j) {
      t.data()[j] = static_cast<float>((i * 31 + j * 7) % 53) / 53.0f - 0.5f;
    }
    calibration.push_back(std::move(t));
  }
  return model.quantized(calibration);
}

/// One fleet under test: its model, configuration, traffic and faults.
struct FleetCase {
  const char* name = "";
  const ml::lite::FlatModel* model = nullptr;
  ServingConfig config;
  unsigned nodes = 2;
  BatchWindowConfig window;
  LoadGenConfig load;
  /// Node 1's GPU lies for the whole trace.
  bool lying_gpu = false;
  /// Crash windows on nodes 0 and 1, client retries and hedging.
  bool chaos = false;
};

struct Models {
  ml::lite::FlatModel f32 = float_model();
  ml::lite::FlatModel i8 = int8_model(f32);
};

std::vector<FleetCase> fleet_cases(const Models& m) {
  const auto base = [](const char* name, tee::TeeMode mode) {
    FleetCase c;
    c.name = name;
    c.config.mode = mode;
    c.config.threads = 2;
    c.config.per_thread_scratch = 256ull << 10;
    c.config.kernel_threads = 2;
    c.config.model.epc_bytes = 2ull << 20;
    c.config.inference.container_name = name;
    c.config.inference.binary_bytes = 256ull << 10;
    c.config.inference.syscalls_per_inference = 8;
    c.window.max_batch = 8;
    c.window.max_wait_s = 0.002;
    c.window.queue_capacity = 24;
    c.load.seed = 17;
    c.load.offered_rps = 3000;
    c.load.request_count = 120;
    c.load.input_dim = kInputDim;
    c.load.input_pool = 8;
    c.load.slo_s = 0.030;
    return c;
  };
  std::vector<FleetCase> cases;
  {
    FleetCase c = base("hw-streaming", tee::TeeMode::Hardware);
    c.model = &m.f32;
    c.config.inference.weight_streaming = true;
    c.config.model.epc_bytes = 4ull << 20;
    c.window.max_wait_s = 0.005;
    c.load.offered_rps = 600;
    c.load.slo_s = 0.040;
    cases.push_back(c);
  }
  {
    FleetCase c = base("int8", tee::TeeMode::Hardware);
    c.model = &m.i8;
    c.config.inference.weight_streaming = true;
    c.config.inference.int8_compute = true;
    cases.push_back(c);
  }
  {
    FleetCase c = base("gpu-liar", tee::TeeMode::Simulation);
    c.model = &m.f32;
    c.config.inference.gpu_offload = true;
    c.config.inference.slalom.distrust_after = 3;
    c.lying_gpu = true;
    cases.push_back(c);
  }
  {
    FleetCase c = base("chaos", tee::TeeMode::Simulation);
    c.model = &m.f32;
    c.nodes = 3;
    c.window.queue_capacity = 0;
    c.load.offered_rps = 4000;
    c.load.request_count = 200;
    c.load.slo_s = 0;
    c.chaos = true;
    cases.push_back(c);
  }
  return cases;
}

struct Served {
  std::vector<RequestOutcome> outcomes;
  std::vector<FleetNodeStatus> status;
};

// Midpoint of the service interval of node 1's first batch in a run
// without faults: a crash there interrupts that batch mid-service.
std::uint64_t mid_service_on_node1(const FleetCase& c, const LoadTrace& trace) {
  ServingFleet clean(*c.model, c.config, c.nodes);
  std::uint64_t dispatch = 0;
  std::uint64_t completion = 0;
  for (const RequestOutcome& o : clean.serve_trace(trace.requests, c.window)) {
    if (o.node == 1 && (dispatch == 0 || o.dispatch_ns < dispatch)) {
      dispatch = o.dispatch_ns;
      completion = o.completion_ns;
    }
  }
  return dispatch + (completion - dispatch) / 2;
}

Served serve(const FleetCase& c, const LoadTrace& trace) {
  const std::uint64_t crash_ns = c.chaos ? mid_service_on_node1(c, trace) : 0;
  obs::Registry::global().reset();
  faults::FaultPlane plane(41);
  ServingFleet fleet(*c.model, c.config, c.nodes);
  if (c.lying_gpu) {
    plane.schedule_gpu_corruption(1, 0, ~std::uint64_t{0});
    fleet.attach_fault_plane(plane);
  }
  if (c.chaos) {
    plane.schedule_crash(1, crash_ns, crash_ns + 12'000'000);
    plane.schedule_crash(0, crash_ns + 6'000'000, crash_ns + 20'000'000);
    FleetResilienceConfig resilience;
    resilience.detect_timeout_seconds = 0.001;
    resilience.cooldown_seconds = 0.01;
    fleet.configure_resilience(resilience);
    fleet.attach_fault_plane(plane);
    RequestRetryPolicy retry;
    retry.jitter_seed = 5;
    fleet.configure_retry(retry);
    HedgePolicy hedge;
    hedge.hedge_delay_s = 0.0005;
    fleet.configure_hedging(hedge);
  }
  Served s;
  s.outcomes = fleet.serve_trace(trace.requests, c.window);
  for (unsigned i = 0; i < fleet.node_count(); ++i) {
    s.status.push_back(fleet.node_status(i));
  }
  return s;
}

// The kernel call counters count host calls, not charges: a batch lost
// mid-service runs no math, and a node's worker runs several batches in
// one pass (docs/SERVING.md).
constexpr const char* kMathCounters[] = {
    obs::names::kKernelGemmCalls, obs::names::kKernelConvCalls,
    obs::names::kQuantGemmCalls, obs::names::kQuantConvCalls};

// The registry after a run, series by series, but for kMathCounters.
std::string registry_lines() {
  const obs::Registry& reg = obs::Registry::global();
  std::string out;
  reg.visit_counters([&](const std::string& name, const obs::MetricInfo&,
                         const obs::Counter& c) {
    for (const char* math : kMathCounters) {
      if (name == math) return;
    }
    out += name + " " + std::to_string(c.value()) + "\n";
  });
  reg.visit_gauges([&](const std::string& name, const obs::MetricInfo&,
                       const obs::Gauge& g) {
    out += name + " " + std::to_string(g.value()) + "\n";
  });
  reg.visit_histograms([&](const std::string& name, const obs::MetricInfo&,
                           const obs::Histogram& h) {
    out += name + " " + std::to_string(h.count()) + " " +
           std::to_string(h.sum());
    for (std::size_t i = 0; i <= h.edges().size(); ++i) {
      out += " " + std::to_string(h.bucket(i));
    }
    out += "\n";
  });
  reg.visit_quantiles([&](const std::string& name, const obs::MetricInfo&,
                          const obs::QuantileSeries& q) {
    out += name + " " + std::to_string(q.count());
    for (const double p : {0.50, 0.95, 0.99}) {
      out += " " + std::to_string(q.quantile(p));
    }
    out += "\n";
  });
  return out;
}

// Pins every RequestOutcome field but the output, each node's status and
// the registry after the run but kMathCounters, on all four fleets.
// Computed from the code whose workers ran each batch's math on its own,
// before the grouped passes; MathRunsInGroups pins kMathCounters.
TEST(ServeTraceTest, OutcomesMatchPinnedDigest) {
  const Models m;
  crypto::Sha256 digest;
  const auto put = [&](std::uint64_t v) {
    std::uint8_t b[8];
    crypto::store_be64(b, v);
    digest.update(crypto::BytesView(b, 8));
  };
  for (const FleetCase& c : fleet_cases(m)) {
    const LoadTrace trace = generate_load(c.load);
    const Served s = serve(c, trace);
    ASSERT_EQ(s.outcomes.size(), trace.requests.size()) << c.name;
    for (const RequestOutcome& o : s.outcomes) {
      put(static_cast<std::uint64_t>(o.id));
      put(static_cast<std::uint64_t>(o.status));
      put(o.arrival_ns);
      put(o.dispatch_ns);
      put(o.completion_ns);
      put(static_cast<std::uint64_t>(o.batch_size));
      put(o.slo_miss ? 1 : 0);
      put(static_cast<std::uint64_t>(o.retries));
      put(static_cast<std::uint64_t>(o.steered_from));
      put(static_cast<std::uint64_t>(o.node));
    }
    for (const FleetNodeStatus& n : s.status) {
      put(n.alive ? 1 : 0);
      put(n.consecutive_failures);
      put(n.ejected_until_ns);
      put(n.probation ? 1 : 0);
      put(n.ejections);
      put(n.failures_total);
      put(static_cast<std::uint64_t>(n.served));
      put(n.gpu_fallbacks);
      put(n.gpu_distrusted ? 1 : 0);
    }
    digest.update(crypto::to_bytes(registry_lines()));
  }
  EXPECT_EQ(crypto::to_hex(digest.finish()),
            "40dac8555532a13d1ed33e96eda00b2757193ccfe183907e047b5bd37d166e1e");
}

// Each node's worker runs its handed-off batches four at a time, one pass
// per group (docs/SERVING.md), so kMathCounters count groups, not batches,
// and repeat exactly. Without inline math or lost batches (the first two
// fleets) a node that completes B batches runs ceil(B / 4) passes, each
// with the model's three MatMuls. The GPU fleet's honest node runs its
// batches inline, and the chaos fleet drops the math of lost batches;
// their counts are pinned as the grouped code produced them (the parent
// code ran one pass per batch: 87, 93, 249 and 150 calls).
TEST(ServeTraceTest, MathRunsInGroups) {
  const Models m;
  const std::vector<FleetCase> cases = fleet_cases(m);
  // kMathCounters per fleet, in fleet_cases order.
  const std::uint64_t want[][4] = {
      {24, 0, 0, 0}, {0, 0, 24, 0}, {222, 0, 0, 0}, {42, 0, 0, 0}};
  ASSERT_EQ(cases.size(), std::size(want));
  for (std::size_t f = 0; f < cases.size(); ++f) {
    const FleetCase& c = cases[f];
    const LoadTrace trace = generate_load(c.load);
    const Served s = serve(c, trace);
    std::uint64_t got[4];
    for (std::size_t i = 0; i < 4; ++i) {
      got[i] = obs::Registry::global().counter(kMathCounters[i]).value();
      EXPECT_EQ(got[i], want[f][i]) << c.name << " " << kMathCounters[i];
    }
    if (c.lying_gpu || c.chaos) continue;
    // Batches per node, from each completed request's batch size.
    std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> members;
    for (const RequestOutcome& o : s.outcomes) {
      if (o.status == RequestStatus::Completed) {
        ++members[{o.node, o.batch_size}];
      }
    }
    std::map<std::int64_t, std::int64_t> batches;
    for (const auto& [key, count] : members) {
      ASSERT_EQ(count % key.second, 0) << c.name;
      batches[key.first] += count / key.second;
    }
    std::uint64_t passes = 0;
    for (const auto& [node, b] : batches) {
      passes += static_cast<std::uint64_t>(
          (b + static_cast<std::int64_t>(ServingNode::kMathGroup) - 1) /
          static_cast<std::int64_t>(ServingNode::kMathGroup));
    }
    const std::size_t gemm = c.config.inference.int8_compute ? 2 : 0;
    EXPECT_EQ(got[gemm], 3 * passes) << c.name;
  }
}

// Every Completed or Retried outcome carries its request's output, equal
// bit for bit to a Native invoke of the request's input; every other
// outcome carries none. Offloaded batches run inline, the rest on the
// nodes' workers, and the lying GPU's batches fall back in-enclave.
TEST(ServeTraceTest, DeliveredOutputsMatchNativeInvoke) {
  const Models m;
  for (const FleetCase& c : fleet_cases(m)) {
    const LoadTrace trace = generate_load(c.load);
    const Served s = serve(c, trace);
    ASSERT_EQ(s.outcomes.size(), trace.requests.size()) << c.name;
    ml::lite::LiteInterpreter native(*c.model, nullptr,
                                     ml::kernels::KernelContext{}, false,
                                     c.config.inference.int8_compute);
    std::int64_t delivered = 0;
    for (const RequestOutcome& o : s.outcomes) {
      const bool completed = o.status == RequestStatus::Completed ||
                             o.status == RequestStatus::Retried;
      if (!completed) {
        EXPECT_EQ(o.output.size(), 0) << c.name << " request " << o.id;
        continue;
      }
      const ml::Tensor want =
          native.invoke(*trace.requests[static_cast<std::size_t>(o.id)].input);
      ASSERT_EQ(o.output.shape(), want.shape())
          << c.name << " request " << o.id;
      EXPECT_EQ(std::memcmp(o.output.data(), want.data(), want.byte_size()),
                0)
          << c.name << " request " << o.id;
      ++delivered;
    }
    EXPECT_GT(delivered, 0) << c.name;
  }
}

// A batch the shape rule rejects throws from serve_trace at its dispatch,
// after earlier batches' math was queued. serve_trace joins every worker
// before the exception leaves it: no step runs after the throw (it would
// count GEMMs into the next measurement and write into freed slots).
TEST(ServeTraceTest, BadBatchThrowsAfterJoiningEveryWorker) {
  const ml::lite::FlatModel model = float_model();
  LoadGenConfig load;
  load.seed = 3;
  load.offered_rps = 4000;
  load.request_count = 96;
  load.input_dim = kInputDim;
  load.input_pool = 4;
  LoadTrace trace = generate_load(load);
  const ml::Tensor bad(ml::Shape{1, kInputDim + 1});
  trace.requests.back().input = &bad;
  ServingConfig config;
  config.mode = tee::TeeMode::Simulation;
  config.threads = 2;
  config.per_thread_scratch = 256ull << 10;
  config.kernel_threads = 1;  // serial math: the loop runs ahead of it
  config.inference.container_name = "bad-batch";
  BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.001;
  window.queue_capacity = 0;
  const obs::Counter& gemm_calls =
      obs::Registry::global().counter(obs::names::kKernelGemmCalls);
  auto fleet = std::make_unique<ServingFleet>(model, config, 2);
  EXPECT_THROW((void)fleet->serve_trace(trace.requests, window),
               std::invalid_argument);
  const std::uint64_t joined = gemm_calls.value();
  EXPECT_GT(joined, 0u);
  fleet.reset();  // stops the workers
  EXPECT_EQ(gemm_calls.value(), joined);
}

}  // namespace
}  // namespace stf::core
