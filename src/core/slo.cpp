#include "core/slo.h"

#include "obs/metrics.h"
#include "obs/names.h"

namespace stf::core {

const char* to_string(SloRule rule) {
  switch (rule) {
    case SloRule::LatencyThreshold: return "latency_threshold";
    case SloRule::BurnRate: return "burn_rate";
  }
  return "?";
}

SloReport evaluate_slo(const std::vector<obs::TimelineWindow>& windows,
                       const SloPolicy& policy) {
  SloReport report;
  const std::size_t burn_span =
      policy.burn_windows == 0 ? 1 : policy.burn_windows;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& w = windows[i];
    bool breached = false;

    if (policy.p99_threshold_ns > 0 && w.latency_count > 0 &&
        w.p99_ns > policy.p99_threshold_ns) {
      report.alerts.push_back(SloAlert{w.index, SloRule::LatencyThreshold,
                                       w.p99_ns, policy.p99_threshold_ns});
      breached = true;
    }

    if (policy.miss_budget_ppm >= 0) {
      // Trailing burn_span populated windows ending at i, integer ppm.
      std::int64_t completed = 0;
      std::int64_t misses = 0;
      const std::size_t first = i + 1 >= burn_span ? i + 1 - burn_span : 0;
      for (std::size_t j = first; j <= i; ++j) {
        completed += windows[j].completed;
        misses += windows[j].misses;
      }
      if (completed > 0) {
        const std::int64_t observed_ppm = misses * 1'000'000 / completed;
        const std::int64_t limit_ppm =
            policy.miss_budget_ppm * policy.burn_factor;
        if (observed_ppm > limit_ppm) {
          report.alerts.push_back(
              SloAlert{w.index, SloRule::BurnRate,
                       static_cast<std::uint64_t>(observed_ppm),
                       static_cast<std::uint64_t>(limit_ppm)});
          breached = true;
        }
      }
    }

    if (breached) ++report.breached_windows;
  }

  obs::counter<obs::names::kSloAlerts>().add(report.alerts.size());
  obs::counter<obs::names::kSloBreachedWindows>().add(
      static_cast<std::uint64_t>(report.breached_windows));
  return report;
}

std::string export_slo_json(const SloReport& report, const SloPolicy& policy) {
  std::string out = "{\n  \"policy\": {\"p99_threshold_ns\": " +
                    std::to_string(policy.p99_threshold_ns) +
                    ", \"miss_budget_ppm\": " +
                    std::to_string(policy.miss_budget_ppm) +
                    ", \"burn_factor\": " + std::to_string(policy.burn_factor) +
                    ", \"burn_windows\": " +
                    std::to_string(policy.burn_windows) + "},\n  \"alerts\": [";
  bool first = true;
  for (const auto& a : report.alerts) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"window_index\": " + std::to_string(a.window_index) +
           ", \"rule\": \"" + to_string(a.rule) +
           "\", \"observed\": " + std::to_string(a.observed) +
           ", \"limit\": " + std::to_string(a.limit) + "}";
  }
  out += report.alerts.empty() ? "],\n" : "\n  ],\n";
  out += "  \"breached_windows\": " + std::to_string(report.breached_windows) +
         "\n}\n";
  return out;
}

}  // namespace stf::core
