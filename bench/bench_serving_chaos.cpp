// Serving-fleet chaos sweep: crash density x failover policy (E9,
// docs/SERVING.md).
//
// A 3-node serving fleet in Simulation mode replays the same seeded Poisson
// trace under three crash schedules (clean, one mid-trace crash window, two
// staggered windows) and three failover policies (fail-fast baseline,
// client retries, retries + hedging). Crashes come from the PR-2 FaultPlane
// in virtual time: a node inside its window loses its in-flight batch, the
// dispatcher detects the timeout, opens the node's circuit and re-steers the
// queue; after the window a half-open probe re-admits the node.
//
// The bench is also a gate, exiting 1 on violation:
//   - conservation: every offered request reaches exactly one terminal
//     outcome in every cell;
//   - clean cells lose nothing (goodput == offered, zero failures);
//   - with retries every crash cell recovers completely; the fail-fast
//     baseline loses at most the in-flight batch per crash window, so
//     goodput degrades no worse than the capacity the crash removed;
//   - every crashed node serves again after its window closes (revival);
//   - the heaviest cell (staggered crashes, retry + hedging) replays
//     bit-for-bit when rerun.
// Output is virtual time from fixed seeds: BENCH_serving_chaos.json is
// byte-reproducible and committed under bench/baselines/.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/loadgen.h"
#include "core/serving.h"
#include "faults/fault_plane.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "tee/platform.h"

namespace {

using namespace stf;

constexpr std::uint64_t kSeed = 17;
constexpr std::int64_t kRequests = 240;
constexpr std::int64_t kInputDim = 64;
constexpr std::uint64_t kModelBytes = 2ull << 20;
constexpr unsigned kNodes = 3;
constexpr unsigned kThreads = 2;
constexpr std::int64_t kMaxBatch = 8;

core::ServingConfig fleet_config() {
  core::ServingConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  cfg.threads = kThreads;
  cfg.per_thread_scratch = 1ull << 20;
  cfg.inference.container_name = "chaos";
  return cfg;
}

struct CrashWindow {
  unsigned node = 0;
  std::uint64_t down_ns = 0;
  std::uint64_t up_ns = 0;
};

struct Schedule {
  const char* name;
  std::vector<CrashWindow> windows;
};

enum class Policy { Baseline, Retry, RetryHedge };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::Baseline: return "baseline";
    case Policy::Retry: return "retry";
    case Policy::RetryHedge: return "retry_hedge";
  }
  return "?";
}

struct Cell {
  const char* schedule = nullptr;
  Policy policy = Policy::Baseline;
  core::TrafficSummary summary;
  std::vector<core::RequestOutcome> outcomes;
};

Cell run_cell(const ml::lite::FlatModel& model, const core::LoadTrace& trace,
              const core::BatchWindowConfig& window, const Schedule& sched,
              Policy policy, const core::FleetResilienceConfig& res,
              double hedge_delay_s) {
  // A fresh fleet and fault plane per cell: cold virtual clocks make each
  // (schedule, policy) point independently byte-reproducible.
  core::ServingFleet fleet(model, fleet_config(), kNodes);
  fleet.configure_resilience(res);
  faults::FaultPlane plane(kSeed);
  for (const CrashWindow& w : sched.windows) {
    plane.schedule_crash(w.node, w.down_ns, w.up_ns);
  }
  if (!sched.windows.empty() || policy != Policy::Baseline) {
    fleet.attach_fault_plane(plane);
  }
  if (policy != Policy::Baseline) {
    core::RequestRetryPolicy retry;
    retry.max_retries = 3;
    retry.jitter_seed = 11;
    fleet.configure_retry(retry);
  }
  if (policy == Policy::RetryHedge) {
    core::HedgePolicy hedge;
    hedge.hedge_delay_s = hedge_delay_s;
    fleet.configure_hedging(hedge);
  }
  Cell cell;
  cell.schedule = sched.name;
  cell.policy = policy;
  cell.outcomes = fleet.serve_trace(trace.requests, window);
  cell.summary = core::summarize(cell.outcomes);
  return cell;
}

bool conserved(const core::TrafficSummary& s) {
  return s.offered == s.completed + s.retried + s.shed_queue_full +
                          s.shed_expired + s.failed_node_down;
}

bool served_after(const std::vector<core::RequestOutcome>& outcomes,
                  unsigned node, std::uint64_t t) {
  for (const core::RequestOutcome& o : outcomes) {
    if (o.node == static_cast<std::int64_t>(node) && o.completion_ns != 0 &&
        o.dispatch_ns >= t) {
      return true;
    }
  }
  return false;
}

bool identical(const std::vector<core::RequestOutcome>& a,
               const std::vector<core::RequestOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].status != b[i].status ||
        a[i].arrival_ns != b[i].arrival_ns ||
        a[i].dispatch_ns != b[i].dispatch_ns ||
        a[i].completion_ns != b[i].completion_ns ||
        a[i].batch_size != b[i].batch_size || a[i].slo_miss != b[i].slo_miss ||
        a[i].retries != b[i].retries ||
        a[i].steered_from != b[i].steered_from || a[i].node != b[i].node) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "Serving failover under seeded crashes (3-node fleet, sim mode)",
      "a crash loses at most the in-flight batch; re-steering keeps the "
      "survivors busy, retries recover the losses entirely, and the node "
      "rejoins after its crash window closes");

  const ml::Graph graph = ml::sized_classifier("chaos", kModelBytes,
                                               kInputDim);
  ml::Session session(graph);
  const ml::lite::FlatModel model = ml::lite::FlatModel::from_frozen(
      ml::freeze(graph, session), "input", "probs");

  // Calibrate per-image service cost on a throwaway node, then offer 6x unbatched
  // fleet capacity so a persistent backlog keeps queues deep: crash windows always find work
  // and slow queue heads outlive the hedge delay.
  double per_image_s = 0;
  {
    core::ServingNode probe(model, fleet_config());
    const ml::Tensor image = ml::Tensor(ml::Shape{1, kInputDim});
    const std::int64_t count = static_cast<std::int64_t>(kThreads) * 8;
    per_image_s = probe.estimate_stream_seconds(image, count) /
                  static_cast<double>(count);
  }
  const double capacity_rps = static_cast<double>(kNodes) / per_image_s;
  const std::int64_t offered_rps =
      std::max<std::int64_t>(1, std::llround(capacity_rps * 6.0));
  const double trace_s =
      static_cast<double>(kRequests) / static_cast<double>(offered_rps);
  const auto frac_ns = [&](double f) {
    return static_cast<std::uint64_t>(std::llround(f * trace_s * 1e9));
  };

  core::LoadGenConfig load;
  load.seed = kSeed;
  load.process = core::ArrivalProcess::Poisson;
  load.offered_rps = static_cast<double>(offered_rps);
  load.request_count = kRequests;
  load.input_dim = kInputDim;
  load.input_pool = 16;
  const core::LoadTrace trace = core::generate_load(load);

  core::BatchWindowConfig window;
  window.max_batch = kMaxBatch;
  window.max_wait_s = 2.0 * per_image_s;
  window.queue_capacity = 0;  // unbounded: isolate crash losses from sheds

  core::FleetResilienceConfig res;
  res.failure_threshold = 1;  // open the circuit on the first detection
  res.detect_timeout_seconds = 0.002 * trace_s;
  res.cooldown_seconds = 0.03 * trace_s;
  const double hedge_delay_s = 1.0 * per_image_s;

  const std::vector<Schedule> schedules = {
      {"clean", {}},
      {"single", {{1, frac_ns(0.30), frac_ns(0.50)}}},
      {"staggered",
       {{1, frac_ns(0.30), frac_ns(0.50)}, {2, frac_ns(0.55), frac_ns(0.75)}}},
  };

  std::printf("\n  service/image %.3f ms -> capacity %.1f rps; offered %"
              PRId64 " rps over %.3f s, detect %.3f ms, cooldown %.3f ms\n",
              per_image_s * 1e3, capacity_rps, offered_rps, trace_s,
              res.detect_timeout_seconds * 1e3, res.cooldown_seconds * 1e3);

  std::vector<Cell> cells;
  bool gate_ok = true;
  std::printf("\n  %-10s %-12s %9s %9s %9s %8s %8s %12s\n", "schedule",
              "policy", "completed", "retried", "failed", "retries",
              "goodput", "p99 (ms)");
  for (const Schedule& sched : schedules) {
    for (const Policy policy :
         {Policy::Baseline, Policy::Retry, Policy::RetryHedge}) {
      Cell cell = run_cell(model, trace, window, sched, policy, res,
                           hedge_delay_s);
      const core::TrafficSummary& s = cell.summary;
      std::printf("  %-10s %-12s %9" PRId64 " %9" PRId64 " %9" PRId64
                  " %8" PRId64 " %8" PRId64 " %12.3f\n",
                  sched.name, policy_name(policy), s.completed, s.retried,
                  s.failed_node_down, s.retries_total, s.goodput(),
                  static_cast<double>(s.p99_ns) / 1e6);

      if (!conserved(s)) {
        std::fprintf(stderr, "chaos gate: %s/%s lost a request outcome\n",
                     sched.name, policy_name(policy));
        gate_ok = false;
      }
      const auto lost_cap =
          static_cast<std::int64_t>(sched.windows.size()) * kMaxBatch;
      if (sched.windows.empty() || policy != Policy::Baseline) {
        // Clean cells and every retry policy must recover everything.
        if (s.goodput() != s.offered || s.failed_node_down != 0) {
          std::fprintf(stderr,
                       "chaos gate: %s/%s goodput %" PRId64 "/%" PRId64
                       " with %" PRId64 " failed\n",
                       sched.name, policy_name(policy), s.goodput(),
                       s.offered, s.failed_node_down);
          gate_ok = false;
        }
      } else if (s.failed_node_down > lost_cap ||
                 s.goodput() < s.offered - lost_cap) {
        // Fail-fast: at most the in-flight batch dies per crash window.
        std::fprintf(stderr,
                     "chaos gate: %s/%s lost %" PRId64
                     " requests, more than %" PRId64 " in-flight slots\n",
                     sched.name, policy_name(policy), s.failed_node_down,
                     lost_cap);
        gate_ok = false;
      }
      for (const CrashWindow& w : sched.windows) {
        if (!served_after(cell.outcomes, w.node, w.up_ns)) {
          std::fprintf(stderr,
                       "chaos gate: %s/%s node %u never served after its "
                       "window closed at %" PRIu64 " ns\n",
                       sched.name, policy_name(policy), w.node, w.up_ns);
          gate_ok = false;
        }
      }
      cells.push_back(std::move(cell));
    }
  }

  // Determinism gate: the heaviest cell replays bit-for-bit.
  {
    const Cell rerun = run_cell(model, trace, window, schedules.back(),
                                Policy::RetryHedge, res, hedge_delay_s);
    if (!identical(rerun.outcomes, cells.back().outcomes)) {
      std::fprintf(stderr, "chaos gate: staggered/retry_hedge rerun "
                           "diverged from the first run\n");
      gate_ok = false;
    }
  }
  if (!gate_ok) return 1;
  bench::print_note(
      "same trace, same fleet: the retry columns hand back every request a "
      "crash window took, and goodput in the fail-fast column never drops "
      "below offered minus the interrupted batches");

  bench::print_registry_summary();

  std::FILE* out = std::fopen("BENCH_serving_chaos.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving_chaos.json\n");
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
       bench::config_int("nodes", kNodes),
       bench::config_int("threads", kThreads),
       bench::config_int("max_batch", kMaxBatch),
       bench::config_int("offered_rps", offered_rps),
       bench::config_int("failure_threshold", res.failure_threshold),
       bench::config_int("detect_us",
                         std::llround(res.detect_timeout_seconds * 1e6)),
       bench::config_int("cooldown_us",
                         std::llround(res.cooldown_seconds * 1e6)),
       bench::config_int("hedge_delay_us", std::llround(hedge_delay_s * 1e6)),
       bench::config_int("max_retries", 3)});
  std::fprintf(out, "  \"chaos_sweep\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "    {\"schedule\": \"%s\", \"policy\": \"%s\", "
                 "\"summary\": %s}%s\n",
                 c.schedule, policy_name(c.policy),
                 bench::detail::indent_json(
                     core::export_traffic_summary_json(c.summary), "    ")
                     .c_str(),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  bench::fprint_registry_section(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_serving_chaos.json\n");
  return 0;
}
