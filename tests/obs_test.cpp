// Tests for the stf::obs observability plane.
//
// The load-bearing invariants, in order of importance:
//  1. Determinism: two identical seeded runs of an instrumented workload
//     produce byte-identical registry JSON exports, and instrumentation
//     does not move any SimClock (virtual-time figures are unchanged).
//  2. Reset semantics: Registry::reset() zeros flow metrics (counters,
//     histograms) and leaves level metrics (gauges) alone; the same
//     contract holds for the repaired EpcStats::reset_stats().
//  3. Bounded tracing: the span ring overwrites oldest-first and counts
//     drops; summaries never drop.
//  4. Thread safety: concurrent increments lose no updates (tsan-labeled).
//  5. Attribution conservation: for every finished profile,
//     duration == sum(categories) + warp, exactly — checked end to end for
//     a seeded inference and a seeded training round.
//  6. Trace export: two identical seeded runs produce byte-identical
//     Chrome-trace JSON and attribution exports.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/securetf.h"
#include "distributed/training.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/session.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "tee/cost_model.h"
#include "tee/epc.h"
#include "tee/platform.h"

namespace stf {
namespace {

// --- registry basics ------------------------------------------------------

TEST(ObsRegistry, CounterGetOrCreateReturnsSameInstance) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("t.c");
  obs::Counter& b = reg.counter("t.c");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add();
  EXPECT_EQ(a.value(), 4u);
}

TEST(ObsRegistry, VisitIsLexicographicallyOrdered) {
  obs::Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(1);
  reg.counter("m.middle").add(1);
  std::vector<std::string> order;
  reg.visit_counters([&](const std::string& name, const obs::MetricInfo&,
                         const obs::Counter&) { order.push_back(name); });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a.first");
  EXPECT_EQ(order[1], "m.middle");
  EXPECT_EQ(order[2], "z.last");
}

TEST(ObsRegistry, ResetZerosFlowMetricsButKeepsGauges) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.flow");
  obs::Gauge& g = reg.gauge("t.level");
  obs::Histogram& h = reg.histogram("t.h_ns", {10, 100});
  c.add(7);
  g.set(42);
  h.observe(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u) << "counters are flow metrics: reset zeroes them";
  EXPECT_EQ(g.value(), 42) << "gauges are level metrics: reset keeps them";
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
  // Handles stay valid and usable after reset.
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

// --- histogram edges ------------------------------------------------------

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("t.edges_ns", {10, 100, 1000});
  h.observe(0);     // <= 10            -> bucket 0
  h.observe(10);    // <= 10 (le edge)  -> bucket 0
  h.observe(11);    // <= 100           -> bucket 1
  h.observe(100);   // <= 100           -> bucket 1
  h.observe(1000);  // <= 1000          -> bucket 2
  h.observe(1001);  // overflow         -> bucket 3
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u) << "implicit overflow bucket";
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 1000 + 1001);
}

TEST(ObsHistogram, ReRegistrationWithDifferentEdgesThrows) {
  obs::Registry reg;
  reg.histogram("t.h_ns", {10, 100});
  EXPECT_NO_THROW(reg.histogram("t.h_ns", {10, 100}));
  EXPECT_THROW(reg.histogram("t.h_ns", {10, 200}), std::logic_error);
  EXPECT_THROW(reg.histogram("t.bad", {}), std::logic_error);
  EXPECT_THROW(reg.histogram("t.bad2", {100, 10}), std::logic_error);
}

TEST(ObsHistogram, SharedLatencyEdgesSpanMicrosecondsToSeconds) {
  const auto edges = obs::latency_edges_ns();
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges.front(), 1'000u);            // 1 µs
  EXPECT_EQ(edges.back(), 100'000'000'000u);   // 100 s
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i], edges[i - 1] * 10) << "decade spacing";
  }
}

// --- the fixed schema of the global registry ------------------------------

TEST(ObsSchema, GlobalRegistryListsTheTableAtStart) {
  // ctest runs every test in its own process: this is the first export.
  const std::string at_start = obs::export_json(obs::Registry::global());
  // The same export of a fresh registry holding exactly names::kSeries.
  obs::Registry table;
  for (const obs::names::Series& s : obs::names::kSeries) {
    switch (s.kind) {
      case obs::Kind::Counter: table.counter(s.name, s.unit); break;
      case obs::Kind::Gauge: table.gauge(s.name, s.unit); break;
      case obs::Kind::Histogram:
        table.histogram(s.name, obs::latency_edges_ns(), s.unit);
        break;
      case obs::Kind::Quantile: table.quantiles(s.name, s.unit); break;
    }
  }
  EXPECT_EQ(std::size(obs::names::kSeries), 94u);
  std::size_t listed = 0;
  for (std::size_t at = 0;
       (at = at_start.find("\"unit\": ", at)) != std::string::npos; ++at) {
    ++listed;
  }
  EXPECT_EQ(listed, 94u);
  EXPECT_EQ(at_start, obs::export_json(table))
      << "every series of the table, with its kind and unit, all zero";
}

TEST(ObsSchema, GlobalRegistryRefusesUndeclaredSeries) {
  obs::Registry& reg = obs::Registry::global();
  EXPECT_THROW(reg.counter("t.undeclared"), std::logic_error);
  EXPECT_THROW(reg.counter(obs::names::kSpanEpcLoad), std::logic_error)
      << "span names are not registry series";
  EXPECT_THROW(reg.gauge(obs::names::kEpcFaults), std::logic_error)
      << "a declared counter requested as a gauge";
  EXPECT_THROW(reg.quantiles(obs::names::kTrainRoundNs), std::logic_error)
      << "a declared histogram requested as quantiles";
  EXPECT_EQ(&reg.counter(obs::names::kEpcFaults),
            &obs::counter<obs::names::kEpcFaults>());
}

// --- span tracer ----------------------------------------------------------

TEST(ObsSpans, RingOverflowOverwritesOldestAndCountsDrops) {
  obs::SpanTracer tracer(/*capacity=*/4);
  const std::uint32_t id = tracer.intern("t.span");
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.record(id, i * 100, i * 100 + 50);
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-to-newest: records 6..9 survive.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].start_ns, (6 + i) * 100);
  }
  // Summaries never drop.
  const auto sums = tracer.summaries();
  ASSERT_EQ(sums.count("t.span"), 1u);
  EXPECT_EQ(sums.at("t.span").count, 10u);
  EXPECT_EQ(sums.at("t.span").total_ns, 10u * 50u);
  EXPECT_EQ(sums.at("t.span").max_ns, 50u);
}

TEST(ObsSpans, ScopedSpansRecordNestingDepth) {
  obs::SpanTracer tracer;
  tee::SimClock clock;
  const std::uint32_t outer = tracer.intern("t.outer");
  const std::uint32_t inner = tracer.intern("t.inner");
  {
    obs::ScopedSpan a(tracer, clock, outer);
    clock.advance(100);
    {
      obs::ScopedSpan b(tracer, clock, inner);
      clock.advance(10);
    }
    clock.advance(100);
  }
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Inner closes first (ring order is completion order).
  EXPECT_EQ(tracer.name(snap[0].name_id), "t.inner");
  EXPECT_EQ(snap[0].depth, 1u);
  EXPECT_EQ(snap[0].end_ns - snap[0].start_ns, 10u);
  EXPECT_EQ(tracer.name(snap[1].name_id), "t.outer");
  EXPECT_EQ(snap[1].depth, 0u);
  EXPECT_EQ(snap[1].end_ns - snap[1].start_ns, 210u);
}

TEST(ObsSpans, ResetClearsRecordsButKeepsInternedIds) {
  obs::SpanTracer tracer;
  const std::uint32_t id = tracer.intern("t.span");
  tracer.record(id, 0, 5);
  tracer.reset();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.summaries().empty());
  EXPECT_EQ(tracer.intern("t.span"), id) << "ids survive reset";
  EXPECT_EQ(tracer.name(id), "t.span");
}

// --- export ---------------------------------------------------------------

TEST(ObsExport, JsonIsStableAcrossIdenticalSequences) {
  auto run = [] {
    obs::Registry reg;
    reg.counter("b.second", obs::Unit::Bytes).add(2);
    reg.counter("a.first").add(1);
    reg.gauge("g.level", obs::Unit::Pages).set(-3);
    obs::Histogram& h = reg.histogram("h.lat_ns", {10, 100});
    h.observe(7);
    h.observe(1000);
    obs::SpanTracer tracer;
    tracer.record(tracer.intern("s.x"), 5, 25);
    return obs::export_json(reg, &tracer);
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second) << "export must be a pure function of the data";
  // Spot-check shape: ordered keys, integer values, span summary present.
  EXPECT_LT(first.find("\"a.first\""), first.find("\"b.second\""));
  EXPECT_NE(first.find("\"value\": 2"), std::string::npos);
  EXPECT_NE(first.find("\"value\": -3"), std::string::npos);
  EXPECT_NE(first.find("{\"le\": \"inf\", \"count\": 1}"), std::string::npos);
  EXPECT_NE(first.find("\"s.x\": {\"count\": 1, \"total_ns\": 20, "
                       "\"max_ns\": 20}"),
            std::string::npos);
}

// Two identical seeded runs of a real instrumented workload: the process-
// wide export must come out byte-identical, and instrumentation must charge
// zero virtual time of its own.
TEST(ObsExport, SeededWorkloadExportIsByteIdentical) {
  auto workload = [] {
    obs::Registry::global().reset();
    obs::SpanTracer::global().reset();
    tee::CostModel model;
    model.epc_bytes = 64 * model.page_size;  // tiny EPC: force paging
    tee::Platform platform("node", tee::TeeMode::Hardware, model);
    auto enclave = platform.launch_enclave(tee::EnclaveImage{
        .name = "wl", .content = crypto::to_bytes("wl"), .binary_bytes = 1});
    const auto region =
        enclave->alloc_region("data", 128 * model.page_size);
    for (int pass = 0; pass < 3; ++pass) {
      enclave->access(region, 0, 128 * model.page_size, pass == 0);
      enclave->charge_transition();
      enclave->syscall(256, /*asynchronous=*/false);
    }
    enclave->release_region(region);
    const std::uint64_t elapsed = platform.clock().now_ns();
    enclave.reset();
    return std::pair{elapsed, obs::export_json(obs::Registry::global(),
                                               &obs::SpanTracer::global())};
  };
  const auto [time_a, json_a] = workload();
  const auto [time_b, json_b] = workload();
  EXPECT_EQ(time_a, time_b) << "virtual time must not depend on telemetry";
  EXPECT_EQ(json_a, json_b) << "registry export must be byte-identical";
  EXPECT_NE(json_a.find(obs::names::kEpcFaults), std::string::npos);
  EXPECT_NE(json_a.find(obs::names::kSpanEnclaveTransition),
            std::string::npos);
}

// --- the EpcStats::reset_stats contract (fixed in this PR) ---------------

TEST(ObsEpcStats, ResetZerosFlowFieldsAndReseedsResidency) {
  tee::CostModel model;
  tee::SimClock clock;
  tee::EpcManager epc(model, /*limited=*/true);
  const auto region = epc.map_region("r", 8 * model.page_size);
  epc.access(region, 0, 8 * model.page_size, true, clock);
  const auto& before = epc.stats();
  EXPECT_EQ(before.faults, 8u);
  EXPECT_EQ(before.loads, 8u);
  EXPECT_EQ(before.accesses, 1u);
  EXPECT_EQ(before.resident_pages, 8u);

  epc.reset_stats();
  const auto& after = epc.stats();
  EXPECT_EQ(after.faults, 0u) << "flow field: zeroed";
  EXPECT_EQ(after.loads, 0u) << "flow field: zeroed";
  EXPECT_EQ(after.evictions, 0u) << "flow field: zeroed";
  EXPECT_EQ(after.accesses, 0u) << "flow field: zeroed";
  EXPECT_EQ(after.bytes_accessed, 0u) << "flow field: zeroed";
  EXPECT_EQ(after.resident_pages, 8u)
      << "level field: re-seeded from live residency, pages did not move";
  EXPECT_EQ(epc.resident_pages(), 8u);
}

// --- concurrency (tsan target) -------------------------------------------

TEST(ObsConcurrency, ConcurrentIncrementsLoseNoUpdates) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.hot");
  obs::Gauge& g = reg.gauge("t.level");
  obs::Histogram& h = reg.histogram("t.lat_ns", obs::latency_edges_ns());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(1);
        h.observe(static_cast<std::uint64_t>(t) * 1'000 + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsConcurrency, RegistrationRacesResolveToOneMetric) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<obs::Counter*> seen(kThreads, nullptr);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::Counter& c = reg.counter("t.raced");
      seen[static_cast<std::size_t>(t)] = &c;
      c.add();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->value(), static_cast<std::uint64_t>(kThreads));
}

// --- JSON escaping (names are user-extensible strings) -------------------

TEST(ObsExport, JsonEscapeHandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(obs::json_escape("plain.name"), "plain.name");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

// Minimal JSON string unescaper — the inverse of json_escape for the
// escapes it emits (\" \\ \b \f \n \r \t and \u00XX). Test-only.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        const unsigned code =
            static_cast<unsigned>(std::stoul(s.substr(i + 1, 4), nullptr, 16));
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

TEST(ObsExport, JsonEscapeRoundTripsLosslessly) {
  const std::string cases[] = {
      "",
      "plain.name",
      "a\"b\\c",
      "\b\f\n\r\t",
      "tab\there \"and\" \\slash\\",
      std::string("\x01\x02\x1f\x00zero", 8),
      "core.serving.request_flow",
  };
  for (const std::string& original : cases) {
    EXPECT_EQ(json_unescape(obs::json_escape(original)), original)
        << "escape must be invertible for: " << ::testing::PrintToString(
               original);
  }
}

TEST(ObsExport, FlowEventIdAndCatFieldsAreEscaped) {
  // A hostile interned name whose category segment (up to the first dot)
  // itself needs escaping: the flow exporter must escape name, cat and id.
  obs::SpanTracer tracer;
  const auto id = tracer.intern("f\"low\\cat.step\n");
  tracer.record_flow(id, 7, 100, obs::FlowPhase::Start);
  tracer.record_flow(id, 7, 200, obs::FlowPhase::Finish);
  const std::string json = obs::export_chrome_trace(tracer, nullptr);
  EXPECT_NE(json.find("\"name\": \"f\\\"low\\\\cat.step\\n\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"f\\\"low\\\\cat\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"7\""), std::string::npos)
      << "flow ids are JSON strings per the trace-event spec";
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_EQ(json.find("step\n"), std::string::npos)
      << "raw control characters must never reach the document";
}

TEST(ObsExport, SpecialCharactersInNamesCannotCorruptTheDocument) {
  obs::Registry reg;
  reg.counter("t.we\"ird\\name").add(1);
  obs::SpanTracer tracer;
  tracer.record(tracer.intern("s.line\nbreak"), 0, 5);
  const std::string json = obs::export_json(reg, &tracer);
  EXPECT_NE(json.find("\"t.we\\\"ird\\\\name\""), std::string::npos);
  EXPECT_NE(json.find("\"s.line\\nbreak\""), std::string::npos);
  EXPECT_EQ(json.find("s.line\nbreak"), std::string::npos)
      << "raw control characters must never reach the document";
}

// --- exact quantiles ------------------------------------------------------

TEST(ObsQuantile, NearestRankQuantilesAreExact) {
  obs::Registry reg;
  obs::QuantileSeries& q = reg.quantiles("t.q_ns");
  EXPECT_EQ(q.quantile(0.50), 0u) << "empty series reads as zero";
  // 1..100 inserted in reverse: order of observation must not matter.
  for (std::uint64_t v = 100; v >= 1; --v) q.observe(v);
  EXPECT_EQ(q.count(), 100u);
  EXPECT_EQ(q.quantile(0.50), 50u) << "nearest rank: ceil(0.50*100) = 50th";
  EXPECT_EQ(q.quantile(0.95), 95u);
  EXPECT_EQ(q.quantile(0.99), 99u);
  EXPECT_EQ(q.quantile(1.00), 100u);

  obs::QuantileSeries& single = reg.quantiles("t.single_ns");
  single.observe(7'777);
  EXPECT_EQ(single.quantile(0.50), 7'777u);
  EXPECT_EQ(single.quantile(0.99), 7'777u);

  reg.reset();
  EXPECT_EQ(q.count(), 0u) << "quantiles are flow metrics: reset clears";
  EXPECT_EQ(q.quantile(0.95), 0u);
}

TEST(ObsQuantile, EdgeCasesBackUserFacingSloNumbers) {
  obs::Registry reg;

  // Empty series: every quantile reads zero, including the extremes.
  obs::QuantileSeries& empty = reg.quantiles("t.empty_ns");
  EXPECT_EQ(empty.quantile(0.0), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);

  // Single sample: every quantile is that sample (rank clamps to [1, n]).
  obs::QuantileSeries& one = reg.quantiles("t.one_ns");
  one.observe(42);
  EXPECT_EQ(one.quantile(0.0), 42u) << "rank ceil(0*1)=0 clamps up to 1";
  EXPECT_EQ(one.quantile(0.01), 42u);
  EXPECT_EQ(one.quantile(0.50), 42u);
  EXPECT_EQ(one.quantile(1.00), 42u);

  // All-equal samples: the answer is the common value at every quantile
  // (a stalled SLO series must not fabricate spread).
  obs::QuantileSeries& flat = reg.quantiles("t.flat_ns");
  for (int i = 0; i < 64; ++i) flat.observe(1'000);
  EXPECT_EQ(flat.quantile(0.01), 1'000u);
  EXPECT_EQ(flat.quantile(0.50), 1'000u);
  EXPECT_EQ(flat.quantile(0.99), 1'000u);
  EXPECT_EQ(flat.quantile(1.00), 1'000u);

  // Nearest-rank boundary indices, n = 4 (values 10, 20, 30, 40):
  // rank = clamp(ceil(q * 4), 1, 4).
  obs::QuantileSeries& four = reg.quantiles("t.four_ns");
  for (const std::uint64_t v : {40u, 10u, 30u, 20u}) four.observe(v);
  EXPECT_EQ(four.quantile(0.24), 10u) << "ceil(0.96) = 1st smallest";
  EXPECT_EQ(four.quantile(0.25), 10u) << "ceil(1.00) = 1st smallest";
  EXPECT_EQ(four.quantile(0.26), 20u) << "ceil(1.04) = 2nd smallest";
  EXPECT_EQ(four.quantile(0.50), 20u);
  EXPECT_EQ(four.quantile(0.51), 30u);
  EXPECT_EQ(four.quantile(0.75), 30u);
  EXPECT_EQ(four.quantile(0.76), 40u);
  EXPECT_EQ(four.quantile(0.99), 40u);
  EXPECT_EQ(four.quantile(1.00), 40u);
  EXPECT_EQ(four.quantile(0.001), 10u) << "tiny q still clamps to rank 1";
}

// --- skip_empty spans -----------------------------------------------------

TEST(ObsSpans, SkipEmptySuppressesZeroLengthRecordsOnly) {
  obs::SpanTracer tracer;
  tee::SimClock clock;
  const std::uint32_t id = tracer.intern("t.maybe_idle");
  { obs::ScopedSpan s(tracer, clock, id, /*skip_empty=*/true); }
  EXPECT_TRUE(tracer.snapshot().empty())
      << "zero-length skip_empty span leaves no record";
  EXPECT_TRUE(tracer.summaries().empty());
  {
    obs::ScopedSpan s(tracer, clock, id, /*skip_empty=*/true);
    clock.advance(5);
  }
  ASSERT_EQ(tracer.snapshot().size(), 1u);
  { obs::ScopedSpan s(tracer, clock, id); }  // default keeps empty spans
  ASSERT_EQ(tracer.snapshot().size(), 2u);
  EXPECT_EQ(tracer.summaries().at("t.maybe_idle").count, 2u);
}

// --- cost attribution: unit-level conservation ---------------------------

namespace profile_test {

/// Enables profiling for one test body and resets the global observability
/// state so seeded workloads start from a clean epoch.
struct ProfilingGuard {
  ProfilingGuard() {
    obs::Registry::global().reset();
    obs::SpanTracer::global().reset();
    obs::AttributionStore::global().reset();
    obs::set_profiling_enabled(true);
  }
  ~ProfilingGuard() { obs::set_profiling_enabled(false); }
};

}  // namespace profile_test

TEST(ObsProfile, DisabledProfilingInstallsNoSinkAndRecordsNothing) {
  ASSERT_FALSE(obs::profiling_enabled()) << "off by default";
  obs::AttributionStore store;
  tee::SimClock clock;
  {
    obs::ScopedAttribution profile(clock, "t.noop", store);
    EXPECT_FALSE(profile.active());
    EXPECT_EQ(clock.sink(), nullptr);
    clock.advance(100);
  }
  EXPECT_TRUE(store.rows().empty());
}

TEST(ObsProfile, CategoriesAndWarpSumExactlyToDuration) {
  profile_test::ProfilingGuard guard;
  obs::AttributionStore store;
  tee::SimClock clock;
  clock.advance(1'000);  // nonzero origin: start_ns is captured, not assumed
  {
    obs::ScopedAttribution profile(clock, "t.unit", store);
    ASSERT_TRUE(profile.active());
    {
      obs::ScopedCategory c(obs::Category::kCrypto);
      clock.advance(100);
      {
        obs::ScopedCategory inner(obs::Category::kNet);
        clock.advance(40);
      }
      clock.advance(10);  // back to crypto: innermost wins, stack restores
    }
    clock.set_ns(1'050);  // rewind: warp -100
    clock.advance(25);    // uncategorized -> other
  }
  const auto rows = store.rows();
  ASSERT_EQ(rows.size(), 1u);
  const obs::AttributionRow& row = rows[0];
  EXPECT_EQ(row.start_ns, 1'000u);
  EXPECT_EQ(row.end_ns, 1'075u);
  EXPECT_EQ(row.warp_ns, -100);
  using C = obs::Category;
  EXPECT_EQ(row.by_category[static_cast<std::size_t>(C::kCrypto)], 110u);
  EXPECT_EQ(row.by_category[static_cast<std::size_t>(C::kNet)], 40u);
  EXPECT_EQ(row.by_category[static_cast<std::size_t>(C::kOther)], 25u);
  EXPECT_EQ(row.duration_ns(), 75);
  EXPECT_TRUE(row.conserved())
      << "duration == sum(categories) + warp must hold exactly";
}

TEST(ObsProfile, NestedProfilesChainAndBothConserve) {
  profile_test::ProfilingGuard guard;
  obs::AttributionStore store;
  tee::SimClock clock;
  {
    obs::ScopedAttribution outer(clock, "t.outer", store);
    {
      obs::ScopedCategory c(obs::Category::kCompute);
      clock.advance(50);
    }
    {
      obs::ScopedAttribution inner(clock, "t.inner", store);
      obs::ScopedCategory c(obs::Category::kFsShield);
      clock.advance(30);
    }
    clock.advance(20);
  }
  const auto rows = store.rows();
  ASSERT_EQ(rows.size(), 2u);  // inner finishes first
  EXPECT_EQ(rows[0].name, "t.inner");
  EXPECT_EQ(rows[0].duration_ns(), 30);
  EXPECT_TRUE(rows[0].conserved());
  EXPECT_EQ(rows[1].name, "t.outer");
  EXPECT_EQ(rows[1].duration_ns(), 100);
  EXPECT_TRUE(rows[1].conserved())
      << "the outer profile must see charges made while the inner one was "
         "installed (sink chaining)";
  using C = obs::Category;
  EXPECT_EQ(rows[1].by_category[static_cast<std::size_t>(C::kFsShield)], 30u);
}

// --- cost attribution: end-to-end conservation ---------------------------

namespace profile_test {

/// A seeded hardware-mode classification workload small enough for a unit
/// test but big enough to exercise EPC paging, syscalls and transitions.
void run_seeded_inference() {
  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.model.epc_bytes = 256 * 1024;  // force paging at this model size
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  ml::Session session(graph);
  const auto model = ml::lite::FlatModel::from_frozen(
      ml::freeze(graph, session), "input", "probs");
  const ml::Dataset mnist = ml::synthetic_mnist(3, 5);
  core::SecureTfContext ctx(cfg);
  core::InferenceOptions opts;
  opts.sync_syscalls = true;  // cover the transition+kernel split too
  auto service = ctx.create_lite_service(model, opts);
  for (std::int64_t i = 0; i < 3; ++i) (void)service->classify(mnist.sample(i));
}

}  // namespace profile_test

TEST(ObsProfile, SeededInferenceDecomposesExactlyWithNoOtherLeakage) {
  profile_test::ProfilingGuard guard;
  profile_test::run_seeded_inference();
  const auto rows = obs::AttributionStore::global().rows();
  ASSERT_EQ(rows.size(), 3u);
  using C = obs::Category;
  for (const auto& row : rows) {
    EXPECT_EQ(row.name, obs::names::kSpanInferenceRequest);
    EXPECT_TRUE(row.conserved()) << "request " << row.start_ns;
    EXPECT_EQ(row.warp_ns, 0) << "straight-line workload: no clock warps";
    EXPECT_EQ(row.by_category[static_cast<std::size_t>(C::kOther)], 0u)
        << "every inference-path charge site is categorized (the documented "
           "other-leakage bound for inference is zero, docs/PROFILING.md)";
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kEpcPaging)], 0u);
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kCompute)], 0u);
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kTransition)], 0u);
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kSyscall)], 0u);
  }
  // The attribution interval is the request span's interval: totals agree.
  const auto sums = obs::SpanTracer::global().summaries();
  ASSERT_EQ(sums.count(obs::names::kSpanInferenceRequest), 1u);
  std::int64_t attributed_total = 0;
  for (const auto& row : rows) attributed_total += row.duration_ns();
  EXPECT_EQ(static_cast<std::uint64_t>(attributed_total),
            sums.at(obs::names::kSpanInferenceRequest).total_ns);
}

TEST(ObsProfile, SeededTrainingRoundConservesThroughClockWarps) {
  profile_test::ProfilingGuard guard;
  distributed::ClusterConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  cfg.network_shield = true;
  cfg.num_workers = 2;
  cfg.batch_size = 10;
  cfg.framework_scratch_bytes = 1ull << 20;
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(20, 7);
  distributed::TrainingCluster cluster(graph, cfg);
  (void)cluster.train(data, 20);  // one round of 2x10

  bool saw_round = false;
  bool saw_warp = false;
  for (const auto& row : obs::AttributionStore::global().rows()) {
    if (row.name != obs::names::kSpanTrainRound) continue;
    saw_round = true;
    EXPECT_TRUE(row.conserved())
        << "round starting at " << row.start_ns
        << ": duration == sum(categories) + warp must hold exactly";
    if (row.warp_ns != 0) saw_warp = true;
  }
  EXPECT_TRUE(saw_round);
  EXPECT_TRUE(saw_warp) << "the PS replays parallel shards by rewinding its "
                           "clock; warp accounting must be exercised";
}

// --- trace export determinism --------------------------------------------

TEST(ObsProfile, SeededRunsProduceByteIdenticalTraceAndProfileExports) {
  auto run = [] {
    profile_test::ProfilingGuard guard;
    profile_test::run_seeded_inference();
    return std::pair{
        obs::export_chrome_trace(obs::SpanTracer::global(),
                                 &obs::AttributionStore::global()),
        obs::export_profile_json(obs::AttributionStore::global())};
  };
  const auto [trace_a, profile_a] = run();
  const auto [trace_b, profile_b] = run();
  EXPECT_EQ(trace_a, trace_b) << "trace.json must be byte-reproducible";
  EXPECT_EQ(profile_a, profile_b)
      << "attribution export must be byte-reproducible";
  // Shape spot-checks: metadata first, integer-only complete events, the
  // attribution rows ride along as "profile:" events.
  EXPECT_EQ(trace_a.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(trace_a.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"profile:core.inference.request\""),
            std::string::npos);
  EXPECT_NE(trace_a.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(profile_a.find(obs::names::kCatEpcPaging), std::string::npos);
}

TEST(ObsConcurrency, TracerRecordsConcurrentlyWithoutCorruption) {
  obs::SpanTracer tracer(/*capacity=*/64);
  const std::uint32_t id = tracer.intern("t.par");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) tracer.record(id, 0, 10);
    });
  }
  for (auto& th : threads) th.join();
  const auto sums = tracer.summaries();
  EXPECT_EQ(sums.at("t.par").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.snapshot().size(), 64u);
  EXPECT_EQ(tracer.dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - 64u);
}

TEST(ObsConcurrency, ConcurrentAttributionOnDistinctClocksIsRaceFree) {
  // One lane = one clock = one ScopedAttribution, all publishing into one
  // shared store; the category stack is thread-local. tsan-checked.
  obs::AttributionStore store(/*capacity=*/64);
  obs::set_profiling_enabled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 50; ++i) {
        tee::SimClock clock;
        obs::ScopedAttribution profile(clock, "t.lane", store);
        {
          obs::ScopedCategory c(obs::Category::kCrypto);
          clock.advance(static_cast<std::uint64_t>(t) * 100 + 10);
        }
        {
          obs::ScopedCategory c(obs::Category::kNet);
          clock.advance(40);
        }
        clock.set_ns(25);  // warp: exercised concurrently too
        clock.advance(5);
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::set_profiling_enabled(false);
  const auto sums = store.summaries();
  ASSERT_EQ(sums.count("t.lane"), 1u);
  EXPECT_EQ(sums.at("t.lane").count, 8u * 50u);
  for (const auto& row : store.rows()) {
    EXPECT_TRUE(row.conserved());
  }
}

TEST(ObsConcurrency, ConcurrentPlannedSessionsShareTheGlobalPlaneSafely) {
  // Two planned sessions on distinct graphs/platforms run concurrently; the
  // only shared state is the global registry + span tracer (ml.planner.*,
  // tee.epc.*). tsan-checked: the planner must not add unsynchronized
  // global state.
  auto& plans = obs::Registry::global().counter(obs::names::kPlannerPlans);
  const std::uint64_t plans_before = plans.value();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      tee::CostModel cost;
      cost.epc_bytes = 256 * cost.page_size;
      tee::Platform platform("plan-" + std::to_string(t),
                             tee::TeeMode::Hardware, cost);
      auto enclave = platform.launch_enclave(
          {.name = "sess", .content = crypto::to_bytes("sess")});
      tee::EnclaveEnv env(*enclave);
      ml::Graph g = ml::mnist_mlp(16, static_cast<std::uint64_t>(t) + 1);
      ml::Session session(
          g, &env, ml::kernels::KernelContext::shared(),
          {.use_memory_planner = true, .weight_streaming = true});
      const ml::Dataset d =
          ml::synthetic_mnist(8, static_cast<std::uint64_t>(t) + 3);
      for (int i = 0; i < 5; ++i) {
        (void)session.run1("probs", d.batch_feeds(0, 8));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(plans.value(), plans_before + kThreads)
      << "one plan per session (then cached), regardless of interleaving";
}

}  // namespace
}  // namespace stf
