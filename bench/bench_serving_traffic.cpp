// Continuous-batching traffic sweep: offered load x batch window (E8,
// docs/SERVING.md).
//
// A 2-node serving fleet in Hardware mode with an EPC deliberately smaller
// than the model, so every single-request invocation re-pages weights
// layer by layer. An open-loop seeded Poisson trace is replayed against the
// fleet twice per offered-load point: unbatched (max_batch=1) and batched
// (max_batch=8 with a bounded batch window). Batching pays the per-layer
// weight paging once per batch — the Privado-style amortization — so at
// saturation the batched fleet completes strictly more requests per second,
// while below saturation its p99 stays within the SLO despite the added
// batch-window wait.
//
// The bench is also a gate: batched throughput must strictly exceed
// unbatched at both saturated load points, and batched p99 must stay within
// the SLO below saturation; every attribution row must decompose exactly.
// Violations exit 1. Output is virtual time from fixed seeds:
// BENCH_serving_traffic.json is byte-reproducible and committed under
// bench/baselines/.
#include <cinttypes>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/loadgen.h"
#include "core/serving.h"
#include "core/slo.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "obs/timeline.h"
#include "tee/platform.h"

namespace {

using namespace stf;

constexpr std::uint64_t kSeed = 42;
constexpr std::int64_t kRequests = 300;
constexpr std::int64_t kInputDim = 1024;
// 8 MB of weights against a 6 MB EPC: an unbatched request cannot keep the
// whole model resident, so every inference re-pages per layer.
constexpr std::uint64_t kModelBytes = 8ull << 20;
constexpr std::uint64_t kEpcBytes = 6ull << 20;
constexpr unsigned kNodes = 2;
constexpr unsigned kThreads = 2;
constexpr std::int64_t kMaxBatch = 8;
constexpr std::int64_t kQueueCapacity = 64;

core::ServingConfig fleet_config() {
  core::ServingConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.model.epc_bytes = kEpcBytes;
  cfg.threads = kThreads;
  cfg.physical_cores = 4;
  cfg.per_thread_scratch = 1ull << 20;
  cfg.inference.container_name = "traffic";
  cfg.inference.binary_bytes = 1ull << 20;
  cfg.inference.syscalls_per_inference = 16;
  cfg.inference.weight_streaming = true;
  return cfg;
}

struct SweepRow {
  std::int64_t offered_rps = 0;
  bool batched = false;
  core::TrafficSummary summary;
  std::string timeline_json;  ///< this point's windowed telemetry export
  std::string slo_json;       ///< this point's SLO alert export

  [[nodiscard]] double throughput_rps() const {
    return summary.throughput_rps();
  }
};

/// The SLO policy every sweep point is audited against: the per-request
/// deadline doubles as the per-window p99 bound, and the miss budget is 1%
/// of completions at a 2x burn factor (core/slo.h).
core::SloPolicy slo_policy(double slo_s) {
  core::SloPolicy policy;
  policy.p99_threshold_ns =
      static_cast<std::uint64_t>(std::llround(slo_s * 1e9));
  policy.miss_budget_ppm = 10'000;
  return policy;
}

SweepRow run_point(const ml::lite::FlatModel& model, std::int64_t offered_rps,
                   bool batched, double window_s, double slo_s) {
  core::LoadGenConfig load;
  load.seed = kSeed;
  load.process = core::ArrivalProcess::Poisson;
  load.offered_rps = static_cast<double>(offered_rps);
  load.request_count = kRequests;
  load.input_dim = kInputDim;
  load.input_pool = 16;
  load.slo_s = slo_s;
  const core::LoadTrace trace = core::generate_load(load);

  core::BatchWindowConfig window;
  window.max_batch = batched ? kMaxBatch : 1;
  window.max_wait_s = batched ? window_s : 0;
  window.queue_capacity = kQueueCapacity;

  // A fresh fleet per point: every run starts from cold virtual clocks, so
  // each (load, window) cell is independently byte-reproducible. The span
  // ring and timeline reset with it — each point owns a complete causal
  // trace and an undiluted window series (the registry and attribution
  // store stay cumulative, as before).
  obs::SpanTracer::global().reset();
  obs::Timeline::global().reset();
  core::ServingFleet fleet(model, fleet_config(), kNodes);
  SweepRow row;
  row.offered_rps = offered_rps;
  row.batched = batched;
  row.summary = core::summarize(fleet.serve_trace(trace.requests, window));

  const core::SloPolicy policy = slo_policy(slo_s);
  const core::SloReport report =
      core::evaluate_slo(obs::Timeline::global().windows(), policy);
  row.summary.slo_alerts = static_cast<std::int64_t>(report.alerts.size());
  row.summary.slo_breached_windows = report.breached_windows;
  row.timeline_json = obs::Timeline::global().export_json();
  row.slo_json = core::export_slo_json(report, policy);
  return row;
}

}  // namespace

int main() {
  obs::set_profiling_enabled(true);
  // Causal tracing + windowed telemetry on: this bench is the reference
  // producer for the trace/timeline/SLO exports (docs/TRACING.md). Both are
  // pure observers of virtual time, so every figure below is identical to a
  // run with them disabled.
  obs::set_tracing_enabled(true);
  obs::Timeline::global().set_enabled(true);
  bench::print_header(
      "Continuous batching under open-loop traffic (2-node fleet, HW mode)",
      "batched throughput pulls ahead of unbatched at saturation because "
      "per-layer weight paging is paid once per batch; below saturation the "
      "batch window keeps p99 within the SLO");

  const ml::Graph graph = ml::sized_classifier("traffic", kModelBytes,
                                               kInputDim);
  ml::Session session(graph);
  const ml::lite::FlatModel model = ml::lite::FlatModel::from_frozen(
      ml::freeze(graph, session), "input", "probs");

  // Calibrate the fleet's unbatched capacity from a throwaway node: probe
  // per-image service seconds, then pick offered loads below and above it.
  double per_image_s = 0;
  {
    core::ServingNode probe(model, fleet_config());
    const ml::Tensor image = ml::Tensor(ml::Shape{1, kInputDim});
    const std::int64_t count = static_cast<std::int64_t>(kThreads) * 8;
    per_image_s = probe.estimate_stream_seconds(image, count) /
                  static_cast<double>(count);
  }
  // estimate_stream_seconds already folds the thread lanes into wall time,
  // so node capacity is 1/per_image_s and fleet capacity scales by nodes.
  const double fleet_capacity_rps = static_cast<double>(kNodes) / per_image_s;
  const std::int64_t load_low =
      std::max<std::int64_t>(1, std::llround(fleet_capacity_rps * 0.6));
  const std::int64_t load_mid =
      std::max<std::int64_t>(1, std::llround(fleet_capacity_rps * 1.6));
  const std::int64_t load_high =
      std::max<std::int64_t>(1, std::llround(fleet_capacity_rps * 3.0));
  const double window_s = 2.0 * per_image_s;
  const double slo_s = 10.0 * per_image_s;

  std::printf("\n  unbatched service/image: %.3f ms -> fleet capacity %.1f "
              "rps; loads {%" PRId64 ", %" PRId64 ", %" PRId64 "} rps, "
              "window %.3f ms, SLO %.3f ms\n",
              per_image_s * 1e3, fleet_capacity_rps, load_low, load_mid,
              load_high, window_s * 1e3, slo_s * 1e3);

  std::vector<SweepRow> rows;
  std::printf("\n  %-12s %-9s %10s %10s %10s %10s %12s %12s %8s\n", "offered",
              "config", "completed", "shed_q", "shed_exp", "slo_miss",
              "tput (rps)", "p99 (ms)", "alerts");
  for (const std::int64_t load : {load_low, load_mid, load_high}) {
    for (const bool batched : {false, true}) {
      SweepRow row = run_point(model, load, batched, window_s, slo_s);
      const core::TrafficSummary& s = row.summary;
      std::printf("  %-12" PRId64 " %-9s %10" PRId64 " %10" PRId64
                  " %10" PRId64 " %10" PRId64 " %12.1f %12.3f %8" PRId64 "\n",
                  row.offered_rps, batched ? "batched" : "unbatched",
                  s.completed, s.shed_queue_full, s.shed_expired, s.slo_misses,
                  row.throughput_rps(),
                  static_cast<double>(s.p99_ns) / 1e6, s.slo_alerts);
      rows.push_back(std::move(row));
    }
  }

  // The acceptance gate (ISSUE 6): batched strictly beats unbatched on
  // throughput at both saturated points; batched p99 meets the SLO below
  // saturation.
  bool gate_ok = true;
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const SweepRow& unbatched = rows[i];
    const SweepRow& batched = rows[i + 1];
    const bool saturated =
        static_cast<double>(unbatched.offered_rps) > fleet_capacity_rps;
    if (saturated &&
        batched.throughput_rps() <= unbatched.throughput_rps()) {
      std::fprintf(stderr,
                   "traffic gate failed at %" PRId64 " rps: batched %.1f rps "
                   "<= unbatched %.1f rps\n",
                   unbatched.offered_rps, batched.throughput_rps(),
                   unbatched.throughput_rps());
      gate_ok = false;
    }
    if (!saturated &&
        static_cast<double>(batched.summary.p99_ns) > slo_s * 1e9) {
      std::fprintf(stderr,
                   "traffic gate failed at %" PRId64 " rps: batched p99 "
                   "%.3f ms exceeds SLO %.3f ms\n",
                   unbatched.offered_rps,
                   static_cast<double>(batched.summary.p99_ns) / 1e6,
                   slo_s * 1e3);
      gate_ok = false;
    }
  }
  if (!gate_ok) return 1;
  bench::print_note(
      "same trace, same fleet: the batched columns complete more of the "
      "offered load per virtual second once arrivals outpace capacity");

  bench::check_conservation();
  bench::print_registry_summary();

  std::FILE* out = std::fopen("BENCH_serving_traffic.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving_traffic.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::fprint_config_section(
      out,
      {bench::config_int("seed", static_cast<long long>(kSeed)),
       bench::config_str("arrival_process", "poisson"),
       bench::config_int("request_count", kRequests),
       bench::config_int("input_dim", kInputDim),
       bench::config_int("model_weight_bytes",
                         static_cast<long long>(kModelBytes)),
       bench::config_int("epc_bytes", static_cast<long long>(kEpcBytes)),
       bench::config_int("nodes", kNodes),
       bench::config_int("threads", kThreads),
       bench::config_int("max_batch", kMaxBatch),
       bench::config_int("queue_capacity", kQueueCapacity),
       bench::config_int("batch_window_us",
                         std::llround(window_s * 1e6)),
       bench::config_int("slo_us", std::llround(slo_s * 1e6)),
       bench::config_int("offered_rps_low", load_low),
       bench::config_int("offered_rps_mid", load_mid),
       bench::config_int("offered_rps_high", load_high),
       bench::config_int("slo_p99_threshold_us", std::llround(slo_s * 1e6)),
       bench::config_int("slo_miss_budget_ppm", 10'000),
       bench::config_int("slo_burn_factor", 2),
       bench::config_int("slo_burn_windows", 5)});
  std::fprintf(out, "  \"traffic_sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"offered_rps\": %" PRId64 ", \"batched\": %d, "
                 "\"summary\": %s}%s\n",
                 r.offered_rps, r.batched ? 1 : 0,
                 bench::detail::indent_json(
                     core::export_traffic_summary_json(r.summary), "    ")
                     .c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // The saturated batched point's windowed telemetry and SLO audit, the
  // richest cell of the sweep (and the one whose causal trace is written
  // below). Byte-reproducible like every other section.
  bench::fprint_json_member(out, "timeline", rows.back().timeline_json);
  bench::fprint_json_member(out, "slo", rows.back().slo_json);
  bench::fprint_registry_section(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_serving_traffic.json\n");

  // Causal trace of the last point (load_high, batched): request roots,
  // phase children, flow arrows. tools/trace_report reads this file.
  bench::write_trace_json("BENCH_serving_traffic.trace.json");
  return 0;
}
