// Tests for the causal request-tracing layer, the windowed timeline
// collector and the deterministic SLO monitor (docs/TRACING.md): trace
// context propagation across threads, the zero-slack phase decomposition of
// completed requests, byte-identical seeded exports, and the lazily
// registered obs.trace.dropped / obs.timeline.* / core.serving.slo.*
// counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/loadgen.h"
#include "core/serving.h"
#include "core/slo.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace stf::core {
namespace {

/// Enables tracing + timeline for one test and restores the disabled
/// default on exit, resetting the global tracer and timeline on both ends
/// so tests cannot see each other's records.
struct TracingGuard {
  TracingGuard() {
    obs::SpanTracer::global().reset();
    obs::Timeline::global().reset();
    obs::set_tracing_enabled(true);
    obs::Timeline::global().set_enabled(true);
  }
  ~TracingGuard() {
    obs::set_tracing_enabled(false);
    obs::Timeline::global().set_enabled(false);
    obs::SpanTracer::global().reset();
    obs::Timeline::global().reset();
  }
};

struct TracingFixture {
  ml::lite::FlatModel model = [] {
    ml::Graph g = ml::sized_classifier("trace", 4ull << 20, /*input_dim=*/64);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();

  static ServingConfig config() {
    ServingConfig cfg;
    cfg.mode = tee::TeeMode::Simulation;
    cfg.threads = 2;
    cfg.per_thread_scratch = 1ull << 20;
    cfg.inference.container_name = "trace";
    return cfg;
  }

  static LoadGenConfig load(std::int64_t count = 48) {
    LoadGenConfig cfg;
    cfg.seed = 5;
    cfg.offered_rps = 400;
    cfg.request_count = count;
    cfg.input_dim = 64;
    cfg.input_pool = 8;
    cfg.slo_s = 0.05;
    return cfg;
  }

  static BatchWindowConfig window() {
    BatchWindowConfig w;
    w.max_batch = 4;
    w.max_wait_s = 0.002;
    w.queue_capacity = 64;
    return w;
  }
};

struct TraceTree {
  std::map<std::uint64_t, obs::SpanRecord> roots;  ///< by trace id
  /// Direct children of each root, keyed by the root's trace id.
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> children;
};

TraceTree build_tree(const std::vector<obs::SpanRecord>& spans,
                     const obs::SpanTracer& tracer) {
  TraceTree tree;
  std::map<std::uint64_t, std::uint64_t> trace_by_root_span;
  for (const auto& s : spans) {
    if (s.trace_id != 0 && s.parent_id == 0 && s.span_id != 0 &&
        tracer.name(s.name_id) == obs::names::kSpanServingRequest) {
      tree.roots[s.trace_id] = s;
      trace_by_root_span[s.span_id] = s.trace_id;
    }
  }
  for (const auto& s : spans) {
    const auto it = trace_by_root_span.find(s.parent_id);
    if (it != trace_by_root_span.end()) tree.children[it->second].push_back(s);
  }
  return tree;
}

// --- trace context propagation -------------------------------------------

TEST(TraceContext, ScopedContextNestsAndRestores) {
  EXPECT_EQ(obs::current_trace().trace_id, 0u);
  {
    obs::ScopedTraceContext outer(7, 100);
    EXPECT_EQ(obs::current_trace().trace_id, 7u);
    EXPECT_EQ(obs::current_trace().span_id, 100u);
    {
      obs::ScopedTraceContext inner(7, 200);
      EXPECT_EQ(obs::current_trace().span_id, 200u);
    }
    EXPECT_EQ(obs::current_trace().span_id, 100u);
  }
  EXPECT_EQ(obs::current_trace().trace_id, 0u);
}

TEST(TraceContext, AnonymousRecordsInheritTheActiveContext) {
  obs::SpanTracer tracer;
  const auto id = tracer.intern("t.leaf");
  {
    obs::ScopedTraceContext ctx(9, 42);
    tracer.record(id, 10, 20);
  }
  tracer.record(id, 30, 40);  // context popped: plain legacy record
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 9u);
  EXPECT_EQ(spans[0].span_id, 0u) << "anonymous leaves have no own id";
  EXPECT_EQ(spans[0].parent_id, 42u);
  EXPECT_EQ(spans[1].trace_id, 0u);
  EXPECT_EQ(spans[1].parent_id, 0u);
}

// tsan target: contexts are thread-local, the tracer is shared. Every
// thread's records must carry exactly its own trace, with no bleed between
// pool lanes and no data race on the ring.
TEST(TraceContext, ConcurrentContextsStayThreadLocal) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  obs::SpanTracer tracer(kThreads * kPerThread);
  const auto id = tracer.intern("t.ctx");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, id, t] {
      const auto trace = static_cast<std::uint64_t>(t) + 1;
      obs::ScopedTraceContext ctx(trace, trace * 1000);
      for (int i = 0; i < kPerThread; ++i) {
        tracer.record(id, static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(i) + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::map<std::uint64_t, int> per_trace;
  for (const auto& s : tracer.snapshot()) {
    ASSERT_NE(s.trace_id, 0u);
    EXPECT_EQ(s.parent_id, s.trace_id * 1000) << "context bled across threads";
    ++per_trace[s.trace_id];
  }
  ASSERT_EQ(per_trace.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [trace, count] : per_trace) {
    EXPECT_EQ(count, kPerThread) << "trace " << trace;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

// --- causal decomposition of a served trace ------------------------------

TEST(CausalTrace, CompletedRequestsDecomposeWithZeroSlack) {
  TracingFixture f;
  TracingGuard guard;
  const LoadTrace trace = generate_load(f.load());
  ServingFleet fleet(f.model, f.config(), 2);
  const auto outcomes = fleet.serve_trace(trace.requests, f.window());
  const TrafficSummary summary = summarize(outcomes);
  ASSERT_GT(summary.completed, 0);

  const auto& tracer = obs::SpanTracer::global();
  ASSERT_EQ(tracer.dropped(), 0u) << "test trace must fit the ring";
  const TraceTree tree = build_tree(tracer.snapshot(), tracer);
  EXPECT_EQ(tree.roots.size(), static_cast<std::size_t>(summary.completed))
      << "one request root per completion";

  for (const auto& [trace_id, root] : tree.roots) {
    const auto it = tree.children.find(trace_id);
    ASSERT_NE(it, tree.children.end()) << "root without phases";
    std::uint64_t covered = 0;
    for (const auto& child : it->second) {
      EXPECT_GE(child.start_ns, root.start_ns);
      EXPECT_LE(child.end_ns, root.end_ns);
      covered += child.end_ns - child.start_ns;
    }
    // Without crashes or retries a request tiles [arrival, completion]
    // exactly: wire + queue_wait + batch_wait + service, no gaps, no
    // overlap. Any slack would be virtual time the trace cannot explain.
    EXPECT_EQ(covered, root.end_ns - root.start_ns)
        << "trace " << trace_id << " leaked unexplained latency";
  }

  // Flow arrows: one start (admission) and one finish (dispatch) per
  // completed request, chained by flow id == trace id.
  std::map<std::uint64_t, int> starts, finishes;
  for (const auto& flow : tracer.flows()) {
    if (flow.phase == obs::FlowPhase::Start) ++starts[flow.flow_id];
    if (flow.phase == obs::FlowPhase::Finish) ++finishes[flow.flow_id];
  }
  for (const auto& [trace_id, root] : tree.roots) {
    EXPECT_EQ(starts[trace_id], 1) << "trace " << trace_id;
    EXPECT_EQ(finishes[trace_id], 1) << "trace " << trace_id;
  }
}

TEST(CausalTrace, DisabledTracingRecordsNothingAndChangesNoTimestamps) {
  TracingFixture f;
  const LoadTrace trace = generate_load(f.load());
  auto run = [&](bool tracing) {
    obs::SpanTracer::global().reset();
    obs::set_tracing_enabled(tracing);
    ServingFleet fleet(f.model, f.config(), 2);
    const auto outcomes = fleet.serve_trace(trace.requests, f.window());
    obs::set_tracing_enabled(false);
    std::vector<std::uint64_t> completions;
    completions.reserve(outcomes.size());
    for (const auto& o : outcomes) completions.push_back(o.completion_ns);
    std::size_t traced = 0;
    for (const auto& s : obs::SpanTracer::global().snapshot()) {
      if (s.trace_id != 0) ++traced;
    }
    return std::tuple{completions, traced,
                      obs::SpanTracer::global().flows().size()};
  };
  const auto [plain_completions, plain_traced, plain_flows] = run(false);
  const auto [traced_completions, traced_spans, traced_flows] = run(true);
  EXPECT_EQ(plain_traced, 0u);
  EXPECT_EQ(plain_flows, 0u);
  EXPECT_GT(traced_spans, 0u);
  EXPECT_GT(traced_flows, 0u);
  EXPECT_EQ(plain_completions, traced_completions)
      << "tracing must not move a single virtual timestamp";
  obs::SpanTracer::global().reset();
}

TEST(CausalTrace, SeededRunsExportByteIdenticalTraceTimelineAndAlerts) {
  TracingFixture f;
  const LoadTrace trace = generate_load(f.load());
  SloPolicy policy;
  policy.p99_threshold_ns = 5'000'000;
  policy.miss_budget_ppm = 10'000;
  auto run = [&] {
    TracingGuard guard;
    ServingFleet fleet(f.model, f.config(), 2);
    (void)fleet.serve_trace(trace.requests, f.window());
    const SloReport report =
        evaluate_slo(obs::Timeline::global().windows(), policy);
    return std::tuple{obs::export_chrome_trace(obs::SpanTracer::global(),
                                               nullptr),
                      obs::Timeline::global().export_json(),
                      export_slo_json(report, policy)};
  };
  const auto [trace_a, timeline_a, slo_a] = run();
  const auto [trace_b, timeline_b, slo_b] = run();
  EXPECT_EQ(trace_a, trace_b) << "trace export must be byte-reproducible";
  EXPECT_EQ(timeline_a, timeline_b)
      << "timeline export must be byte-reproducible";
  EXPECT_EQ(slo_a, slo_b) << "alert export must be byte-reproducible";
  EXPECT_NE(trace_a.find("\"trace\": "), std::string::npos);
  EXPECT_NE(trace_a.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(timeline_a.find("\"window_ns\": "), std::string::npos);
}

// --- timeline ------------------------------------------------------------

TEST(Timeline, DisabledByDefaultAndRecordsNothing) {
  obs::Timeline tl;
  EXPECT_FALSE(tl.enabled());
  tl.record_offered(0);
  tl.record_completed(10, 10, false);
  EXPECT_TRUE(tl.windows().empty());
}

TEST(Timeline, BucketsEventsIntoFixedWindows) {
  obs::Timeline tl(/*window_ns=*/1000);
  tl.set_enabled(true);
  tl.record_offered(0);      // window 0
  tl.record_offered(999);    // window 0
  tl.record_offered(1000);   // window 1
  tl.record_shed(2500);      // window 2
  tl.record_completed(1100, 40, /*deadline_missed=*/false);
  tl.record_completed(1200, 80, /*deadline_missed=*/true);
  tl.record_queue_depth(1300, 5);
  tl.record_queue_depth(1400, 3);  // max keeps 5
  tl.record_batch(1500, 4);
  tl.record_epc_load(0, 7);
  tl.record_epc_eviction(2999, 2);

  const auto windows = tl.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[0].offered, 2);
  EXPECT_EQ(windows[0].epc_loads, 7);
  EXPECT_EQ(windows[1].index, 1u);
  EXPECT_EQ(windows[1].offered, 1);
  EXPECT_EQ(windows[1].completed, 2);
  EXPECT_EQ(windows[1].misses, 1);
  EXPECT_EQ(windows[1].queue_depth_max, 5);
  EXPECT_EQ(windows[1].batches, 1);
  EXPECT_EQ(windows[1].batch_occupancy_sum, 4);
  EXPECT_EQ(windows[1].latency_count, 2u);
  EXPECT_EQ(windows[1].p50_ns, 40u) << "exact nearest-rank p50";
  EXPECT_EQ(windows[1].p99_ns, 80u);
  EXPECT_EQ(windows[2].index, 2u);
  EXPECT_EQ(windows[2].shed, 1);
  EXPECT_EQ(windows[2].epc_evictions, 2);

  const std::string json = tl.export_json();
  EXPECT_NE(json.find("\"window_ns\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"index\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\": 80"), std::string::npos);
  EXPECT_EQ(json, tl.export_json()) << "export is a pure function";

  tl.reset();
  EXPECT_TRUE(tl.windows().empty());
  EXPECT_TRUE(tl.enabled()) << "reset keeps the collection gate";
}

TEST(Timeline, ExpiredShedLandsInItsDispatchWindow) {
  // A request whose deadline passes on the wire is shed when its batch
  // would launch, so the Timeline stamps the shed at that dispatch
  // instant: here one window after its client arrival. A retry policy
  // changes nothing about where a shed is stamped.
  TracingFixture f;
  const std::uint64_t window_ns = obs::Timeline::global().window_ns();
  LoadTrace trace = generate_load(f.load(1));
  Request& r = trace.requests.front();
  r.arrival_ns = window_ns - 1;  // last nanosecond of window 0
  BatchWindowConfig w = f.window();
  w.max_batch = 1;
  w.max_wait_s = 0;

  for (const bool retry : {false, true}) {
    auto serve = [&](std::uint64_t deadline_ns) {
      r.deadline_ns = deadline_ns;
      ServingFleet fleet(f.model, f.config(), 1);
      if (retry) fleet.configure_retry(RequestRetryPolicy{});
      return fleet.serve_trace(trace.requests, w).front();
    };
    // Without a deadline the request completes; its dispatch instant is
    // where the expiring copy is shed.
    const std::uint64_t dispatch_ns = serve(0).dispatch_ns;
    ASSERT_EQ(dispatch_ns / window_ns, 1u) << "the wire crosses a window";

    TracingGuard guard;
    const RequestOutcome shed = serve(r.arrival_ns + 1);
    ASSERT_EQ(static_cast<int>(shed.status),
              static_cast<int>(RequestStatus::ShedExpired));
    std::map<std::uint64_t, obs::TimelineWindow> by_index;
    for (const auto& win : obs::Timeline::global().windows()) {
      by_index[win.index] = win;
    }
    EXPECT_EQ(by_index[0].offered, 1) << "retry " << retry;
    EXPECT_EQ(by_index[0].shed, 0) << "retry " << retry;
    EXPECT_EQ(by_index[1].shed, 1) << "retry " << retry;
  }
}

// --- SLO monitor ---------------------------------------------------------

obs::TimelineWindow window_at(std::uint64_t index, std::int64_t completed,
                              std::int64_t misses, std::uint64_t p99) {
  obs::TimelineWindow w;
  w.index = index;
  w.completed = completed;
  w.misses = misses;
  w.latency_count = static_cast<std::uint64_t>(completed);
  w.p99_ns = p99;
  return w;
}

TEST(SloMonitor, LatencyThresholdFiresPerBadWindow) {
  SloPolicy policy;
  policy.p99_threshold_ns = 100;
  const std::vector<obs::TimelineWindow> windows = {
      window_at(0, 10, 0, 50), window_at(1, 10, 0, 150),
      window_at(3, 10, 0, 200)};
  const SloReport report = evaluate_slo(windows, policy);
  ASSERT_EQ(report.alerts.size(), 2u);
  EXPECT_EQ(report.alerts[0].window_index, 1u);
  EXPECT_EQ(report.alerts[0].rule, SloRule::LatencyThreshold);
  EXPECT_EQ(report.alerts[0].observed, 150u);
  EXPECT_EQ(report.alerts[0].limit, 100u);
  EXPECT_EQ(report.alerts[1].window_index, 3u);
  EXPECT_EQ(report.breached_windows, 2);
}

TEST(SloMonitor, BurnRateNeedsSustainedOverspend) {
  SloPolicy policy;
  policy.miss_budget_ppm = 10'000;  // 1% budget, fires above 2% (factor 2)
  policy.burn_windows = 2;
  // Windows 0-1: 1% misses — at budget, under the burn limit. Windows 2-3:
  // 10% misses — the trailing pair crosses 2% from window 2 on.
  const std::vector<obs::TimelineWindow> windows = {
      window_at(0, 100, 1, 0), window_at(1, 100, 1, 0),
      window_at(2, 100, 10, 0), window_at(3, 100, 10, 0)};
  const SloReport report = evaluate_slo(windows, policy);
  ASSERT_EQ(report.alerts.size(), 2u);
  EXPECT_EQ(report.alerts[0].window_index, 2u);
  EXPECT_EQ(report.alerts[0].rule, SloRule::BurnRate);
  EXPECT_EQ(report.alerts[0].observed, 55'000u)  // 11/200 in ppm
      << "burn rate averages the trailing populated windows";
  EXPECT_EQ(report.alerts[0].limit, 20'000u);
  EXPECT_EQ(report.alerts[1].window_index, 3u);
}

TEST(SloMonitor, ExportIsOrderedAndIntegerOnly) {
  SloPolicy policy;
  policy.p99_threshold_ns = 100;
  policy.miss_budget_ppm = 1000;
  policy.burn_windows = 1;
  const std::vector<obs::TimelineWindow> windows = {
      window_at(4, 100, 50, 500)};
  const SloReport report = evaluate_slo(windows, policy);
  ASSERT_EQ(report.alerts.size(), 2u)
      << "both rules fire on the same window, threshold first";
  EXPECT_EQ(report.alerts[0].rule, SloRule::LatencyThreshold);
  EXPECT_EQ(report.alerts[1].rule, SloRule::BurnRate);
  EXPECT_EQ(report.breached_windows, 1);
  const std::string json = export_slo_json(report, policy);
  EXPECT_NE(json.find("\"rule\": \"latency_threshold\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"burn_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"breached_windows\": 1"), std::string::npos);
  EXPECT_EQ(json.find('.'), json.find("\".")) << "no floats in the export";
}

// --- dropped-record accounting -------------------------------------------

TEST(TracerDropped, OverflowSurfacesInTheLazyCounter) {
  obs::Counter& mirror =
      obs::Registry::global().counter(obs::names::kTraceDropped);
  const std::uint64_t before = mirror.value();
  obs::SpanTracer tracer(/*capacity=*/2);
  const auto id = tracer.intern("t.drop");
  for (int i = 0; i < 5; ++i) tracer.record(id, 0, 1);
  tracer.record_flow(id, 1, 0, obs::FlowPhase::Start);
  tracer.record_flow(id, 1, 1, obs::FlowPhase::Step);
  tracer.record_flow(id, 1, 2, obs::FlowPhase::Finish);
  EXPECT_EQ(tracer.dropped(), 4u) << "3 span + 1 flow overwrites";
  EXPECT_EQ(mirror.value(), before + 4);
}

}  // namespace
}  // namespace stf::core
