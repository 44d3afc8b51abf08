// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload <serve_poisson|train_ps_hw|cold_start_shielded>
//             --seed N --seconds S --trace <0|1> --out RESULT.json
//             [--host-trace TRACE.json] [--inject-read-delay-ms MS]
//
// Repeats the workload's set-up + fixed work until S host seconds have
// passed (at least kMinReps times) and reports medians. With --trace 0 every
// repetition runs with the library's tracing and profiling off and the
// end-to-end metrics are measured; with --trace 1 repetitions alternate
// untraced / traced, the per-layer metrics come from the traced ones, and
// the wall-time ratio of the two is the tracing overhead. Prints tables,
// writes the full result (config, metrics, checks) as JSON, and exits 1
// when an output check fails.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace perfbench {
namespace {

namespace names = stf::obs::names;

constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 4;  // two untraced, two traced
constexpr int kMaxReps = 1000;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* clock;
  const char* moves;  ///< per-layer: end-to-end metric it should move
};

// The twelve end-to-end metrics (README.md). A workload reports the ones
// that apply to it; wall_s, setup_s, peak_rss_mb and error_rate apply to all.
constexpr MetricDef kEndToEnd[] = {
    {"goodput_rps", "req/s", "higher", "virtual", ""},
    {"latency_p50_ms", "ms", "lower", "virtual", ""},
    {"latency_p99_ms", "ms", "lower", "virtual", ""},
    {"max_rps_under_slo", "req/s", "higher", "virtual", ""},
    {"slo_attainment", "fraction", "higher", "virtual", ""},
    {"train_samples_per_s", "samples/s", "higher", "virtual", ""},
    {"round_p50_ms", "ms", "lower", "virtual", ""},
    {"cold_start_ms", "ms", "lower", "virtual", ""},
    {"wall_s", "s", "lower", "host", ""},
    {"setup_s", "s", "lower", "host", ""},
    {"peak_rss_mb", "MB", "lower", "host", ""},
    {"error_rate", "fraction", "lower", "count", ""},
};

// Per-layer metrics of the traced run. Every workload reports every one;
// a layer the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"core.loadgen.generate_ms", "ms", "lower", "host", "setup_s on serve"},
    {"core.serving.fleet_build_s", "s", "lower", "host", "setup_s on serve"},
    {"core.serving.serve_trace_s", "s", "lower", "host", "wall_s on serve"},
    {"core.serving.queue_wait_p99_ms", "ms", "lower", "virtual",
     "latency_p99_ms on serve"},
    {"core.serving.batch_size_mean", "requests", "higher", "virtual",
     "goodput_rps, max_rps_under_slo on serve"},
    {"core.serving.shed", "count", "lower", "count",
     "error_rate, slo_attainment on serve"},
    {"core.inference.batches", "count", "lower", "count",
     "goodput_rps on serve"},
    {"core.inference.create_ms", "ms", "lower", "host", "wall_s on cold"},
    {"core.inference.classify_ms", "ms", "lower", "host",
     "wall_s, latency_p50_ms on cold"},
    {"ml.lite.deserialize_ms", "ms", "lower", "host", "wall_s on cold"},
    {"ml.kernels.gemm_calls", "count", "lower", "count",
     "wall_s on serve and train"},
    {"ml.session.flops", "flops", "lower", "count",
     "wall_s on serve and train"},
    {"profile.compute_ms", "ms", "lower", "virtual",
     "latencies on serve, train_samples_per_s on train"},
    {"tee.epc.faults_per_op", "pages/op", "lower", "count",
     "latency_p99_ms on serve, train_samples_per_s on train"},
    {"tee.epc.loads_per_op", "pages/op", "lower", "count",
     "latency_p99_ms on serve, train_samples_per_s on train"},
    {"tee.epc.evictions_per_op", "pages/op", "lower", "count",
     "latency_p99_ms on serve, train_samples_per_s on train"},
    {"tee.epc.prefetched_pages_per_op", "pages/op", "lower", "count",
     "latency_p99_ms on serve, train_samples_per_s on train"},
    {"profile.epc_paging_ms", "ms", "lower", "virtual",
     "latency_p99_ms on serve, train_samples_per_s on train"},
    {"profile.epc_prefetch_ms", "ms", "lower", "virtual",
     "latency_p99_ms on serve, train_samples_per_s on train"},
    {"tee.enclave.transitions_per_op", "count/op", "lower", "count",
     "latency_p50_ms on serve and cold"},
    {"tee.enclave.syscalls_per_op", "count/op", "lower", "count",
     "latency_p50_ms on serve and cold"},
    {"profile.transition_ms", "ms", "lower", "virtual",
     "latency_p50_ms on serve and cold"},
    {"profile.syscall_ms", "ms", "lower", "virtual",
     "latency_p50_ms on serve and cold"},
    {"runtime.channel.records_sent", "count", "lower", "count",
     "wall_s, train_samples_per_s on train"},
    {"runtime.channel.bytes_sent", "bytes", "lower", "count",
     "wall_s, train_samples_per_s on train"},
    {"profile.crypto_ms", "ms", "lower", "virtual",
     "wall_s, train_samples_per_s on train"},
    {"runtime.fs_shield.write_s", "s", "lower", "host", "wall_s on cold"},
    {"runtime.fs_shield.read_s", "s", "lower", "host", "wall_s on cold"},
    {"runtime.fs_shield.read_MBps", "MB/s", "higher", "host",
     "wall_s on cold (bytes_opened / read_s)"},
    {"runtime.fs_shield.bytes_opened", "bytes", "lower", "count",
     "base of read_MBps"},
    {"profile.fs_shield_ms", "ms", "lower", "virtual", "cold_start_ms"},
    {"cas.attest_ms", "ms", "lower", "virtual", "cold_start_ms"},
    {"cas.quote_verify_ms", "ms", "lower", "virtual", "cold_start_ms"},
    {"cas.attest_wall_ms", "ms", "lower", "host", "cold_start_ms (wall_s)"},
    {"distributed.cluster_build_s", "s", "lower", "host", "setup_s on train"},
    {"distributed.train_s", "s", "lower", "host", "wall_s on train"},
    {"distributed.rounds", "count", "higher", "count",
     "round_p50_ms on train"},
    {"net.bytes_sent", "bytes", "lower", "count",
     "train_samples_per_s, round_p50_ms"},
    {"profile.net_ms", "ms", "lower", "virtual",
     "train_samples_per_s, round_p50_ms"},
    {"obs.tracing_overhead_pct", "%", "lower", "host",
     "traced wall_s / untraced wall_s - 1"},
    {"obs.trace.dropped", "count", "zero", "count", "must be 0"},
    {"profile.other_ms", "ms", "zero", "virtual", "must be 0"},
};

const MetricDef* find_def(const MetricDef* begin, const MetricDef* end,
                          const std::string& name) {
  for (const MetricDef* d = begin; d != end; ++d) {
    if (name == d->name) return d;
  }
  return nullptr;
}

/// Registry-derived layer metrics of one repetition (the registry was reset
/// when the repetition started). Counts are normalised per operation where
/// the metric says so.
void read_registry_layers(Rep& rep) {
  const double ops = rep.attempted > 0 ? static_cast<double>(rep.attempted) : 1;
  auto& v = rep.virtual_layer;
  v["core.inference.batches"] = registry_counter(names::kInferenceBatches);
  v["ml.kernels.gemm_calls"] = registry_counter(names::kKernelGemmCalls);
  v["ml.session.flops"] = registry_counter(names::kSessionFlops);
  v["tee.epc.faults_per_op"] = registry_counter(names::kEpcFaults) / ops;
  v["tee.epc.loads_per_op"] = registry_counter(names::kEpcLoads) / ops;
  v["tee.epc.evictions_per_op"] = registry_counter(names::kEpcEvictions) / ops;
  v["tee.epc.prefetched_pages_per_op"] =
      registry_counter(names::kEpcPrefetchedPages) / ops;
  v["tee.enclave.transitions_per_op"] =
      registry_counter(names::kEnclaveTransitions) / ops;
  v["tee.enclave.syscalls_per_op"] =
      registry_counter(names::kEnclaveSyscalls) / ops;
  v["runtime.channel.records_sent"] =
      registry_counter(names::kChannelRecordsSent);
  v["runtime.channel.bytes_sent"] = registry_counter(names::kChannelBytesSent);
  v["runtime.fs_shield.bytes_opened"] =
      registry_counter(names::kFsShieldBytesOpened);
  v["net.bytes_sent"] = registry_counter(names::kNetBytesSent);
}

/// Virtual-time category totals (ms) over the workload's profile rows.
std::map<std::string, double> read_profile(const Workload& w) {
  using stf::obs::Category;
  const auto summaries = stf::obs::AttributionStore::global().summaries();
  std::map<std::string, double> out;
  const std::pair<Category, const char*> cats[] = {
      {Category::kCompute, "profile.compute_ms"},
      {Category::kEpcPaging, "profile.epc_paging_ms"},
      {Category::kEpcPrefetch, "profile.epc_prefetch_ms"},
      {Category::kTransition, "profile.transition_ms"},
      {Category::kSyscall, "profile.syscall_ms"},
      {Category::kCrypto, "profile.crypto_ms"},
      {Category::kFsShield, "profile.fs_shield_ms"},
      {Category::kNet, "profile.net_ms"},
      {Category::kOther, "profile.other_ms"},
  };
  for (const auto& [cat, name] : cats) {
    std::uint64_t ns = 0;
    for (const std::string& row : w.profile_rows()) {
      const auto it = summaries.find(row);
      if (it != summaries.end()) {
        ns += it->second.by_category[static_cast<std::size_t>(cat)];
      }
    }
    out[name] = static_cast<double>(ns) / 1e6;
  }
  return out;
}

void reset_observability(bool traced) {
  stf::obs::set_tracing_enabled(traced);
  stf::obs::set_profiling_enabled(traced);
  stf::obs::Registry::global().reset();
  stf::obs::AttributionStore::global().reset();
  stf::obs::SpanTracer::global().reset();
}

std::string config_json(const std::vector<ConfigEntry>& config) {
  std::map<std::string, std::string> sorted;
  for (const auto& e : config) sorted[e.key] = e.value;
  std::string out = "{";
  for (const auto& [k, v] : sorted) {
    out += (out.size() > 1 ? ", " : "") + json_quote(k) + ": " + v;
  }
  return out + "}";
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    out += (out.size() > 1 ? ",\n    " : "\n    ") + json_quote(name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_quote(m.unit) +
           ", \"better\": " + json_quote(m.better) +
           ", \"clock\": " + json_quote(m.clock) + "}";
  }
  return out + "\n  }";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_poisson|train_ps_hw|"
               "cold_start_shielded --seed N --seconds S --trace 0|1 "
               "--out RESULT.json [--host-trace TRACE.json] "
               "[--inject-read-delay-ms MS]\n");
}

int run(int argc, char** argv) {
  Options opt;
  std::string out_path;
  std::string host_trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out") {
      out_path = val;
    } else if (key == "--host-trace") {
      host_trace_path = val;
    } else if (key == "--inject-read-delay-ms") {
      opt.inject_read_delay_ms = std::strtod(val.c_str(), nullptr);
    } else {
      usage();
      return 2;
    }
  }
  std::unique_ptr<Workload> workload;
  if (opt.workload == "serve_poisson") {
    workload = make_serve_workload(opt);
  } else if (opt.workload == "train_ps_hw") {
    workload = make_train_workload(opt);
  } else if (opt.workload == "cold_start_shielded") {
    workload = make_cold_workload(opt);
  }
  if (!workload || out_path.empty() || (argc - 1) % 2 != 0) {
    usage();
    return 2;
  }

  std::vector<ConfigEntry> config = workload->config();
  config.push_back(config_num("run_seconds", opt.seconds));
  config.push_back(
      config_num("inject_read_delay_ms", opt.inject_read_delay_ms));
  config.push_back(config_num("hardware_concurrency",
                              std::thread::hardware_concurrency()));
  const std::string cfg_json = config_json(config);
  const std::string digest = stf::crypto::to_hex(
      stf::crypto::sha256(stf::crypto::to_bytes(cfg_json)));
  std::printf("perfbench %s  seed %llu  trace %d  config %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, digest.substr(0, 16).c_str());

  // --- repetitions ---------------------------------------------------------
  HostTrace trace;
  std::vector<Rep> reps;
  std::vector<bool> traced;
  const auto t0 = std::chrono::steady_clock::now();
  const int min_reps = opt.trace ? kMinTracedReps : kMinReps;
  double rss_mb = 0;
  std::printf("\n  %4s %7s %12s %12s\n", "rep", "traced", "setup_s", "wall_s");
  for (int i = 0;; ++i) {
    const bool on = opt.trace && i % 2 == 1;
    reset_observability(on);
    Rep rep = workload->run_rep(trace);
    read_registry_layers(rep);
    if (on) {
      for (const auto& [k, v] : read_profile(*workload)) {
        rep.virtual_layer[k] = v;
      }
    }
    std::printf("  %4d %7s %12.6f %12.6f\n", i, on ? "yes" : "no",
                rep.setup_s, rep.wall_s);
    reps.push_back(std::move(rep));
    traced.push_back(on);
    // Peak RSS is read at a fixed point, not at the end: the allocator's
    // footprint drifts up over many repetitions, and the repetition count
    // depends on speed.
    if (i + 1 == min_reps) rss_mb = peak_rss_mb();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (i + 1 >= min_reps && (elapsed >= opt.seconds || i + 1 >= kMaxReps)) {
      break;
    }
  }
  reset_observability(false);

  // --- checks ----------------------------------------------------------------
  std::vector<Check> checks;
  std::map<std::string, Check> by_name;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    for (const Check& c : r.checks) {
      Check& kept = by_name.emplace(c.name, c).first->second;
      if (!c.ok && kept.ok) kept = c;
    }
  }
  for (const auto& [name, c] : by_name) checks.push_back(c);

  // Virtual time and result digests repeat exactly in every repetition;
  // profile categories exist only in traced ones.
  std::string diverged;
  const Rep& first = reps.front();
  const Rep* first_traced = nullptr;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (r.exact != first.exact || r.digests != first.digests) {
      diverged += " rep" + std::to_string(i);
    }
    for (const auto& [k, v] : r.virtual_layer) {
      const bool profiled = k.rfind("profile.", 0) == 0;
      const Rep* base = profiled ? first_traced : &first;
      if (profiled && base == nullptr) continue;
      const auto it = base->virtual_layer.find(k);
      if (it == base->virtual_layer.end() || it->second != v) {
        diverged += " rep" + std::to_string(i) + ":" + k;
      }
    }
    if (traced[i] && first_traced == nullptr) first_traced = &r;
  }
  checks.push_back({"virtual_time_repeats_exactly", diverged.empty(),
                    diverged.empty() ? std::to_string(reps.size()) +
                                           " repetitions identical"
                                     : "diverged:" + diverged});

  // --- end-to-end metrics ----------------------------------------------------
  std::vector<double> wall, setup, wall_traced;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    (traced[i] ? wall_traced : wall).push_back(reps[i].wall_s);
    if (!traced[i]) setup.push_back(reps[i].setup_s);
  }
  std::map<std::string, double> e2e_values = first.exact;
  e2e_values["wall_s"] = median(wall);
  e2e_values["setup_s"] = median(setup);
  e2e_values["peak_rss_mb"] = rss_mb;
  e2e_values["error_rate"] = attempted > 0 ? static_cast<double>(failed) /
                                                 static_cast<double>(attempted)
                                           : 1;
  if (!opt.trace) workload->finish(e2e_values, checks);

  std::map<std::string, Metric> e2e;
  std::map<std::string, double> info;
  for (const auto& [k, v] : e2e_values) {
    const MetricDef* d =
        find_def(std::begin(kEndToEnd), std::end(kEndToEnd), k);
    if (d == nullptr) {
      info[k] = v;
      continue;
    }
    e2e[k] = {v, d->unit, d->better, d->clock};
  }
  std::printf("\n  end-to-end (%zu repetitions, medians of %zu untraced)\n",
              reps.size(), wall.size());
  for (const MetricDef& d : kEndToEnd) {
    const auto it = e2e.find(d.name);
    if (it == e2e.end()) continue;
    std::printf("  %-28s %18.6f %-10s %-7s %s\n", d.name, it->second.value,
                d.unit, d.better, d.clock);
  }
  for (const auto& [k, v] : info) {
    std::printf("  %-28s %18.6f (%s)\n", k.c_str(), v,
                k == "generator_lateness_ms"
                    ? "latency is timed from each scheduled arrival"
                    : "recorded, exact per seed");
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  std::map<std::string, Metric> layers;
  if (opt.trace) {
    std::map<std::string, std::vector<double>> host;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (!traced[i]) continue;
      for (const auto& [k, v] : reps[i].host_layer) host[k].push_back(v);
    }
    for (const MetricDef& d : kPerLayer) {
      double v = 0;
      if (const auto it = host.find(d.name); it != host.end()) {
        v = median(it->second);
      } else if (first_traced != nullptr) {
        if (const auto jt = first_traced->virtual_layer.find(d.name);
            jt != first_traced->virtual_layer.end()) {
          v = jt->second;
        }
      }
      layers[d.name] = {v, d.unit, d.better, d.clock};
    }
    layers["obs.tracing_overhead_pct"].value =
        (median(wall_traced) / median(wall) - 1) * 100;
    layers["obs.trace.dropped"].value = static_cast<double>(trace.dropped());
    checks.push_back({"obs.trace.dropped_is_zero", trace.dropped() == 0,
                      std::to_string(trace.dropped()) + " host spans dropped"});
    checks.push_back({"profile.other_is_zero",
                      layers["profile.other_ms"].value == 0,
                      json_number(layers["profile.other_ms"].value) +
                          " ms charged with no category"});
    std::printf("\n  per layer (medians of %zu traced repetitions)\n",
                wall_traced.size());
    for (const MetricDef& d : kPerLayer) {
      std::printf("  %-34s %16.6f %-9s %-7s -> %s\n", d.name,
                  layers[d.name].value, d.unit, d.clock, d.moves);
    }
  }

  bool correct = true;
  std::printf("\n  checks\n");
  for (const Check& c : checks) {
    correct = correct && c.ok;
    std::printf("  %-4s %-40s %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  }

  // --- result file ---------------------------------------------------------
  std::string reps_json;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    reps_json += std::string(i ? ", " : "") + "{\"traced\": " +
                 (traced[i] ? "true" : "false") +
                 ", \"setup_s\": " + json_number(reps[i].setup_s) +
                 ", \"wall_s\": " + json_number(reps[i].wall_s) + "}";
  }
  std::string checks_json;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    checks_json += std::string(i ? ",\n    " : "\n    ") +
                   "{\"name\": " + json_quote(checks[i].name) +
                   ", \"ok\": " + (checks[i].ok ? "true" : "false") +
                   ", \"detail\": " + json_quote(checks[i].detail) + "}";
  }
  std::string info_json = "{";
  for (const auto& [k, v] : info) {
    info_json += (info_json.size() > 1 ? ", " : "") + json_quote(k) + ": " +
                 json_number(v);
  }
  info_json += "}";
  const std::string result =
      "{\n  \"workload\": " + json_quote(opt.workload) +
      ",\n  \"seed\": " + std::to_string(opt.seed) +
      ",\n  \"trace\": " + (opt.trace ? "1" : "0") +
      ",\n  \"config_digest\": " + json_quote(digest) +
      ",\n  \"config\": " + cfg_json +
      ",\n  \"correct\": " + (correct ? "true" : "false") +
      ",\n  \"attempted\": " + std::to_string(attempted) +
      ",\n  \"failed\": " + std::to_string(failed) +
      ",\n  \"repetitions\": [" + reps_json + "]" +
      ",\n  \"end_to_end\": " + metrics_json(e2e) +
      ",\n  \"per_layer\": " + metrics_json(layers) +
      ",\n  \"recorded\": " + info_json +
      ",\n  \"checks\": [" + checks_json + "\n  ]\n}\n";
  if (!write_file(out_path, result)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (opt.trace && !host_trace_path.empty() &&
      !write_file(host_trace_path, trace.chrome_json())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 host_trace_path.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
