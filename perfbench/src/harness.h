// Measurement harness of the repository benchmark (perfbench/README.md).
//
// The benchmark times the system from outside: every layer is measured by
// wrapping the benchmark's own calls into that layer's public functions in
// host-time spans (HostTrace), and by reading the library's virtual-time
// registry and attribution exports after each repetition. Nothing here
// reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tee/cost_model.h"

namespace perfbench {

/// Which of the system's two clocks a metric is read from: `virtual` is the
/// modeled SGX latency (deterministic for a seed), `host` is how long the
/// simulator itself took (noisy), `count` is an exact tally.
struct Metric {
  double value = 0;
  std::string unit;
  std::string better;  ///< "lower", "higher" or "zero" (must stay 0)
  std::string clock;   ///< "virtual", "host" or "count"
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One workload parameter recorded in the result. Values are pre-rendered
/// JSON (numbers or quoted strings) so the config digest is byte-stable.
struct ConfigEntry {
  std::string key;
  std::string value;
};

[[nodiscard]] ConfigEntry config_num(const std::string& key, double value);
[[nodiscard]] ConfigEntry config_str(const std::string& key,
                                     const std::string& value);

/// Host-time spans recorded around the benchmark's own calls into each
/// layer. Spans stay in memory (up to a fixed capacity; overflow is counted,
/// never silent) and are written as a Chrome trace when the run ends.
class HostTrace {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;  ///< since the trace was created
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for a root span
  };

  /// RAII span; nested scopes become children of the innermost open one.
  class Scope {
   public:
    Scope(HostTrace& trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Host seconds since the scope opened.
    [[nodiscard]] double elapsed_s() const;

   private:
    HostTrace& trace_;
    std::string name_;
    std::uint64_t id_;
    std::uint64_t parent_;
    std::uint64_t start_ns_;
  };

  static constexpr std::size_t kCapacity = 1u << 20;

  [[nodiscard]] Scope span(std::string name) {
    return Scope(*this, std::move(name));
  }

  /// Durations (seconds) of every span named `name` recorded since `from`
  /// (an index into spans(), e.g. the size before a repetition started).
  [[nodiscard]] std::vector<double> durations_s(const std::string& name,
                                                std::size_t from = 0) const;
  [[nodiscard]] double total_s(const std::string& name,
                               std::size_t from = 0) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON (ts/dur in microseconds of host time).
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;  ///< ids of open scopes, innermost last
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
};

/// What one repetition of a workload measured. A repetition sets the
/// workload up (timed as setup_s) and then runs its fixed work (wall_s).
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  std::int64_t attempted = 0;  ///< operations of the fixed work
  std::int64_t failed = 0;     ///< failed, shed or wrong
  /// Virtual-time results and result digests: must repeat exactly in every
  /// repetition of a seed, traced or not.
  std::map<std::string, double> exact;
  std::map<std::string, std::string> digests;
  /// Host-time layer metrics of this repetition (span durations).
  std::map<std::string, double> host_layer;
  /// Virtual-time / count layer metrics the workload derives itself.
  std::map<std::string, double> virtual_layer;
  std::vector<Check> checks;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Harness-only regression injection: sleep this long around every
  /// SecureTfContext::read_file call the benchmark makes (self-test).
  double inject_read_delay_ms = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Workload parameters, fixed rates/SLOs, thread counts and every cost
  /// model constant the workload runs with.
  [[nodiscard]] virtual std::vector<ConfigEntry> config() const = 0;
  /// Attribution-row names whose virtual-time categories make up the
  /// workload's profile.* metrics (one non-nested row per operation).
  [[nodiscard]] virtual std::vector<std::string> profile_rows() const = 0;
  virtual Rep run_rep(HostTrace& trace) = 0;
  /// End-to-end metrics measured once per process after the repetitions
  /// (the serve rate ladder); not run in traced mode.
  virtual void finish(std::map<std::string, double>& /*end_to_end*/,
                      std::vector<Check>& /*checks*/) {}
};

[[nodiscard]] std::unique_ptr<Workload> make_serve_workload(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_train_workload(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_cold_workload(const Options& opt);

// --- helpers shared by the workloads ---------------------------------------

/// Median (mean of the middle pair for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1], like obs::QuantileSeries.
[[nodiscard]] double nearest_rank(std::vector<double> v, double q);
/// Value of a registry counter (0 when nothing registered it).
[[nodiscard]] double registry_counter(const char* name);
/// Nearest-rank quantile of a registry quantile series, in nanoseconds.
[[nodiscard]] double registry_quantile_ns(const char* name, double q);
/// Every CostModel constant as a config entry named `prefix` + field.
[[nodiscard]] std::vector<ConfigEntry> cost_model_config(
    const std::string& prefix, const stf::tee::CostModel& model);
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Deterministic uniform floats in [0, 1) from `seed` (splitmix64).
[[nodiscard]] std::vector<float> seeded_floats(std::uint64_t seed,
                                               std::size_t n);
[[nodiscard]] std::string json_quote(const std::string& s);
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
