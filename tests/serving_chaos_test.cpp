// Chaos suite for the request plane's failover policy (docs/SERVING.md):
// seeded mid-trace node crashes from the PR-2 FaultPlane wired into
// ServingFleet::serve_trace. The contract under test: a fault plane that
// never fires changes no outcome and no registry series; with seeded
// crashes every offered request still ends in exactly one terminal
// RequestOutcome, re-steering/retries/hedging recover what the crash would
// have lost, and the whole schedule replays identically across reruns.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/loadgen.h"
#include "core/serving.h"
#include "faults/fault_plane.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "runtime/errors.h"

namespace stf::core {
namespace {

struct ChaosFixture {
  // Small dense model: chaos runs serve hundreds of requests, so per-batch
  // service must stay cheap. Simulation mode keeps timings deterministic.
  ml::lite::FlatModel model = [] {
    ml::Graph g = ml::sized_classifier("chaos-svc", 2ull << 20, 64);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();

  ServingConfig config(unsigned threads = 2) {
    ServingConfig cfg;
    cfg.mode = tee::TeeMode::Simulation;
    cfg.threads = threads;
    cfg.per_thread_scratch = 1ull << 20;
    cfg.inference.container_name = "chaos-svc";
    return cfg;
  }

  LoadGenConfig trace_config(double rps, std::int64_t count,
                             double slo_s = 0) {
    LoadGenConfig cfg;
    cfg.seed = 9;
    cfg.offered_rps = rps;
    cfg.request_count = count;
    cfg.input_dim = 64;
    cfg.input_pool = 8;
    cfg.slo_s = slo_s;
    return cfg;
  }

  BatchWindowConfig window() {
    BatchWindowConfig w;
    w.max_batch = 4;
    w.max_wait_s = 0.001;
    w.queue_capacity = 0;  // unbounded: isolate crash handling from sheds
    return w;
  }

  FleetResilienceConfig resilience() {
    FleetResilienceConfig cfg;
    cfg.failure_threshold = 3;
    cfg.detect_timeout_seconds = 0.001;
    cfg.cooldown_seconds = 0.02;
    return cfg;
  }
};

void expect_identical(const std::vector<RequestOutcome>& a,
                      const std::vector<RequestOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(static_cast<int>(a[i].status), static_cast<int>(b[i].status))
        << i;
    EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns) << i;
    EXPECT_EQ(a[i].dispatch_ns, b[i].dispatch_ns) << i;
    EXPECT_EQ(a[i].completion_ns, b[i].completion_ns) << i;
    EXPECT_EQ(a[i].batch_size, b[i].batch_size) << i;
    EXPECT_EQ(a[i].slo_miss, b[i].slo_miss) << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << i;
    EXPECT_EQ(a[i].steered_from, b[i].steered_from) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
  }
}

void expect_conserved(const TrafficSummary& s) {
  EXPECT_EQ(s.offered, s.completed + s.retried + s.shed_queue_full +
                           s.shed_expired + s.failed_node_down);
}

// Self-calibrating crash instant: serve the trace on a clean fleet, find the
// earliest-dispatched batch node 1 completes, and return the midpoint of its
// service interval. A crash scheduled there is guaranteed to interrupt that
// batch mid-service in a faulted rerun (the loop replays the clean schedule
// bit-for-bit up to the first crash-affected event), so the tests
// don't hard-code model service times.
std::uint64_t mid_service_instant_on_node1(ChaosFixture& f,
                                           const LoadTrace& trace) {
  ServingFleet clean(f.model, f.config(), 2);
  const std::vector<RequestOutcome> base =
      clean.serve_trace(trace.requests, f.window());
  std::uint64_t d = 0;
  std::uint64_t c = 0;
  for (const RequestOutcome& o : base) {
    if (o.node != 1 || o.status != RequestStatus::Completed) continue;
    if (d == 0 || o.dispatch_ns < d) {
      d = o.dispatch_ns;
      c = o.completion_ns;
    }
  }
  EXPECT_GT(d, 0u);
  EXPECT_GT(c, d + 1);
  return d + (c - d) / 2;
}

/// Every registry counter and quantile series, one line each, in the
/// registry's stable order.
std::string counters_and_quantiles() {
  std::string out;
  const obs::Registry& reg = obs::Registry::global();
  reg.visit_counters([&out](const std::string& name, const obs::MetricInfo&,
                            const obs::Counter& c) {
    out += name + " " + std::to_string(c.value()) + "\n";
  });
  reg.visit_quantiles([&out](const std::string& name, const obs::MetricInfo&,
                             const obs::QuantileSeries& q) {
    out += name + " " + std::to_string(q.count());
    for (const double p : {0.50, 0.95, 0.99}) {
      out += " " + std::to_string(q.quantile(p));
    }
    out += "\n";
  });
  return out;
}

TEST(ServingChaosTest, EmptyFaultPlaneLeavesOutcomesUnchanged) {
  // A fault plane with an empty crash schedule must not perturb a single
  // outcome, counter or quantile: attaching it configures the one request
  // loop, it does not select another.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(2000, 120));
  BatchWindowConfig w = f.window();
  w.queue_capacity = 16;  // cover the shed paths in the comparison too
  faults::FaultPlane plane(21);  // no crash windows scheduled

  auto run = [&](bool attach) {
    ServingFleet fleet(f.model, f.config(), 2);
    if (attach) fleet.attach_fault_plane(plane);
    obs::Registry::global().reset();
    auto outcomes = fleet.serve_trace(trace.requests, w);
    return std::pair{std::move(outcomes), counters_and_quantiles()};
  };
  const auto [plain, plain_metrics] = run(false);
  const auto [attached, attached_metrics] = run(true);
  expect_identical(plain, attached);
  EXPECT_EQ(plain_metrics, attached_metrics);
}

TEST(ServingChaosTest, MidTraceCrashYieldsExactlyOneTerminalOutcomeEach) {
  // Burst arrival at t~0 saturates both nodes; node 1 crashes mid-service
  // of its first batch and never comes back. The in-flight batch is lost
  // (terminal FailedNodeDown without a retry policy), its queue re-steers
  // to node 0, and every offered request still ends in exactly one outcome.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(1e6, 120));
  const std::uint64_t crash_ns = mid_service_instant_on_node1(f, trace);

  faults::FaultPlane plane(21);
  plane.schedule_crash(1, crash_ns, 1'000'000'000'000ull);

  ServingFleet fleet(f.model, f.config(), 2);
  FleetResilienceConfig res = f.resilience();
  res.failure_threshold = 1;  // first detection opens the circuit
  fleet.configure_resilience(res);
  fleet.attach_fault_plane(plane);
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, f.window());

  ASSERT_EQ(outcomes.size(), trace.requests.size());
  std::set<std::int64_t> ids;
  for (const RequestOutcome& o : outcomes) {
    EXPECT_TRUE(ids.insert(o.id).second) << "duplicate outcome " << o.id;
  }
  const TrafficSummary s = summarize(outcomes);
  expect_conserved(s);
  EXPECT_GT(s.failed_node_down, 0);  // the lost in-flight batch
  EXPECT_LT(s.failed_node_down, s.offered);  // node 0 kept serving
  EXPECT_GE(fleet.node_status(1).ejections, 1u);
  // Queued-but-unserved requests were re-steered and completed on node 0.
  bool steered = false;
  for (const RequestOutcome& o : outcomes) {
    if (o.status == RequestStatus::Completed && o.steered_from == 1) {
      EXPECT_EQ(o.node, 0);
      steered = true;
    }
  }
  EXPECT_TRUE(steered);

  // Deterministic: identical fleet + identical schedule -> identical run.
  faults::FaultPlane plane2(21);
  plane2.schedule_crash(1, crash_ns, 1'000'000'000'000ull);
  ServingFleet again(f.model, f.config(), 2);
  again.configure_resilience(res);
  again.attach_fault_plane(plane2);
  expect_identical(outcomes, again.serve_trace(trace.requests, f.window()));
}

TEST(ServingChaosTest, RetryPolicyRecoversCrashLostRequests) {
  // Same crash as above, but with client retries: the lost in-flight batch
  // backs off (exponential + seeded jitter) and re-queues on node 0, so
  // nothing is terminally lost and the recovered requests report Retried.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(1e6, 120));
  const std::uint64_t crash_ns = mid_service_instant_on_node1(f, trace);

  faults::FaultPlane plane(21);
  plane.schedule_crash(1, crash_ns, 1'000'000'000'000ull);

  ServingFleet fleet(f.model, f.config(), 2);
  fleet.configure_resilience(f.resilience());
  fleet.attach_fault_plane(plane);
  RequestRetryPolicy retry;
  retry.max_retries = 3;
  retry.jitter_seed = 5;
  fleet.configure_retry(retry);
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, f.window());

  const TrafficSummary s = summarize(outcomes);
  expect_conserved(s);
  EXPECT_EQ(s.failed_node_down, 0);
  EXPECT_GT(s.retried, 0);
  EXPECT_GE(s.retries_total, s.retried);
  EXPECT_EQ(s.goodput(), s.offered);
  for (const RequestOutcome& o : outcomes) {
    if (o.status == RequestStatus::Retried) {
      EXPECT_GE(o.retries, 1);
      EXPECT_EQ(o.node, 0);  // recovered on the survivor
      EXPECT_GT(o.completion_ns, 0u);
    }
  }
}

TEST(ServingChaosTest, PerRequestRetryBudgetOverridesPolicy) {
  // retry_budget = 0 stamped by loadgen forbids retries even though the
  // fleet-wide policy would allow three.
  ChaosFixture f;
  LoadGenConfig cfg = f.trace_config(1e6, 120);
  cfg.retry_budget = 0;
  const LoadTrace trace = generate_load(cfg);
  const std::uint64_t crash_ns = mid_service_instant_on_node1(f, trace);

  faults::FaultPlane plane(21);
  plane.schedule_crash(1, crash_ns, 1'000'000'000'000ull);

  ServingFleet fleet(f.model, f.config(), 2);
  fleet.configure_resilience(f.resilience());
  fleet.attach_fault_plane(plane);
  fleet.configure_retry(RequestRetryPolicy{});
  const TrafficSummary s =
      summarize(fleet.serve_trace(trace.requests, f.window()));
  expect_conserved(s);
  EXPECT_GT(s.failed_node_down, 0);  // budget 0: the lost batch stays lost
  EXPECT_EQ(s.retried, 0);
}

TEST(ServingChaosTest, CrashedNodeRejoinsAfterRevival) {
  // A bounded crash window mid-trace: node 1 is ejected circuit-breaker
  // style while down, then a half-open probe after the cool-down re-admits
  // it and it serves again — goodput recovers to the full offered load.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(1000, 300));
  constexpr std::uint64_t kDown = 50'000'000;   // 50 ms
  constexpr std::uint64_t kUp = 100'000'000;    // 100 ms

  faults::FaultPlane plane(21);
  plane.schedule_crash(1, kDown, kUp);

  ServingFleet fleet(f.model, f.config(), 2);
  fleet.configure_resilience(f.resilience());
  fleet.attach_fault_plane(plane);
  fleet.configure_retry(RequestRetryPolicy{});  // absorb in-flight edges
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, f.window());

  const TrafficSummary s = summarize(outcomes);
  expect_conserved(s);
  EXPECT_EQ(s.failed_node_down, 0);
  EXPECT_EQ(s.goodput(), s.offered);
  EXPECT_GE(fleet.node_status(1).ejections, 1u);
  // The revived node took traffic again after the window closed.
  bool rejoined = false;
  for (const RequestOutcome& o : outcomes) {
    if (o.node == 1 && o.dispatch_ns >= kUp) rejoined = true;
  }
  EXPECT_TRUE(rejoined);
}

TEST(ServingChaosTest, HedgingDuplicatesSlowQueueHeads) {
  // Saturating burst + a tiny hedge delay: queue heads wait far past the
  // delay, so duplicates fan out to the other node and first completion
  // wins. Conservation and determinism must survive the racing copies.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(1e6, 80));

  obs::Counter& hedge_counter = obs::Registry::global().counter(
      obs::names::kServingFailoverHedges);
  const std::uint64_t hedges_before = hedge_counter.value();

  auto run = [&]() {
    faults::FaultPlane plane(21);  // hedging works with a clean schedule too
    ServingFleet fleet(f.model, f.config(), 2);
    fleet.attach_fault_plane(plane);
    HedgePolicy hedge;
    hedge.hedge_delay_s = 1e-6;
    fleet.configure_hedging(hedge);
    return fleet.serve_trace(trace.requests, f.window());
  };

  const std::vector<RequestOutcome> a = run();
  EXPECT_GT(hedge_counter.value(), hedges_before);
  const TrafficSummary s = summarize(a);
  expect_conserved(s);
  EXPECT_EQ(s.goodput(), s.offered);
  std::set<std::int64_t> ids;
  for (const RequestOutcome& o : a) {
    EXPECT_TRUE(ids.insert(o.id).second) << "hedge produced two outcomes";
  }
  expect_identical(a, run());
}

TEST(ServingChaosTest, FullChaosScheduleIsDeterministicAcrossReruns) {
  // Everything at once — two staggered crash windows, retries and hedging —
  // must still replay bit-for-bit: identical outcome vectors on rerun.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(2000, 200));

  auto run = [&]() {
    faults::FaultPlane plane(33);
    plane.schedule_crash(0, 20'000'000, 60'000'000);
    plane.schedule_crash(1, 50'000'000, 90'000'000);
    ServingFleet fleet(f.model, f.config(), 2);
    fleet.configure_resilience(f.resilience());
    fleet.attach_fault_plane(plane);
    RequestRetryPolicy retry;
    retry.jitter_seed = 7;
    fleet.configure_retry(retry);
    HedgePolicy hedge;
    hedge.hedge_delay_s = 0.002;
    fleet.configure_hedging(hedge);
    return fleet.serve_trace(trace.requests, f.window());
  };

  const std::vector<RequestOutcome> a = run();
  const TrafficSummary s = summarize(a);
  expect_conserved(s);
  ASSERT_EQ(a.size(), trace.requests.size());
  expect_identical(a, run());
}

TEST(ServingChaosTest, PermanentFleetWideOutageTerminatesEveryRequest) {
  // Both nodes crash almost immediately and never revive. Requests bounce
  // between the dead nodes until the strike budget declares them lost —
  // the loop must terminate with a terminal outcome for every request, not
  // hang retrying forever.
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(1e6, 60));

  faults::FaultPlane plane(21);
  plane.schedule_crash(0, 1'000, 1'000'000'000'000ull);
  plane.schedule_crash(1, 1'000, 1'000'000'000'000ull);

  ServingFleet fleet(f.model, f.config(), 2);
  fleet.configure_resilience(f.resilience());
  fleet.attach_fault_plane(plane);
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, f.window());

  ASSERT_EQ(outcomes.size(), trace.requests.size());
  const TrafficSummary s = summarize(outcomes);
  expect_conserved(s);
  EXPECT_GT(s.failed_node_down, 0);
  // Whatever completed squeezed in before the first microsecond.
  for (const RequestOutcome& o : outcomes) {
    if (o.status == RequestStatus::FailedNodeDown) {
      EXPECT_EQ(o.completion_ns, 0u);
    }
  }
}

TEST(ServingChaosTest, AllNodesDeadBeforeTraceStillThrows) {
  ChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(100, 4));
  faults::FaultPlane plane(21);
  ServingFleet fleet(f.model, f.config(), 1);
  fleet.attach_fault_plane(plane);
  fleet.fail_node(0);
  EXPECT_THROW(fleet.serve_trace(trace.requests, f.window()),
               runtime::TransientError);
}

}  // namespace
}  // namespace stf::core
