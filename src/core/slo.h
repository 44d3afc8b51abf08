// Deterministic SLO monitor over timeline windows.
//
// Production SLO tooling evaluates rules over time-series telemetry and
// pages when a rule fires. We reproduce that loop deterministically: the
// monitor walks the Timeline's populated windows in ascending order and
// fires byte-reproducible alert events from two rule families —
//
//   latency_threshold — the window's exact p99 exceeds the policy's
//       per-window latency bound (a fast-burn page: one bad window).
//   burn_rate — the deadline-miss rate over the trailing `burn_windows`
//       populated windows exceeds `burn_factor` times the miss budget (a
//       slow-burn page: sustained budget spend, Google SRE-style
//       multiwindow burn alerting on integer ppm arithmetic).
//
// Everything is integer math over integer telemetry, so two identical
// seeded runs produce identical alert sequences and identical exported
// JSON. The `core.serving.slo.*` counters stay zero in runs that never
// evaluate a policy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeline.h"

namespace stf::core {

struct SloPolicy {
  /// latency_threshold rule: fires per window with p99 above this. 0
  /// disables the rule.
  std::uint64_t p99_threshold_ns = 0;
  /// burn_rate rule: deadline-miss budget in parts-per-million of
  /// completions (e.g. 10'000 = 1%). Negative disables the rule.
  std::int64_t miss_budget_ppm = -1;
  /// burn_rate fires when observed miss ppm > budget * factor.
  std::int64_t burn_factor = 2;
  /// Trailing *populated* windows the burn rate averages over (the timeline
  /// is sparse; idle gaps do not dilute the rate).
  std::size_t burn_windows = 5;
};

enum class SloRule : std::uint8_t { LatencyThreshold, BurnRate };

[[nodiscard]] const char* to_string(SloRule rule);

/// One fired rule. `observed`/`limit` are the rule's own unit: virtual ns
/// for latency_threshold, miss ppm for burn_rate.
struct SloAlert {
  std::uint64_t window_index = 0;
  SloRule rule = SloRule::LatencyThreshold;
  std::uint64_t observed = 0;
  std::uint64_t limit = 0;
};

struct SloReport {
  /// Ascending by window, latency_threshold before burn_rate within one.
  std::vector<SloAlert> alerts;
  /// Windows with at least one alert (each counted once).
  std::int64_t breached_windows = 0;
};

/// Evaluates `policy` over `windows` (must be ascending by index, as
/// Timeline::windows() returns them). Mirrors totals into the
/// core.serving.slo.alerts / .breached_windows counters.
[[nodiscard]] SloReport evaluate_slo(
    const std::vector<obs::TimelineWindow>& windows, const SloPolicy& policy);

/// Deterministic integer-only JSON: the policy echoed back, the ordered
/// alert list, and the breached-window count.
[[nodiscard]] std::string export_slo_json(const SloReport& report,
                                          const SloPolicy& policy);

}  // namespace stf::core
