// Shared helpers for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure of the paper's evaluation
// (§5) and prints the same series the paper plots, plus the paper's reported
// shape for side-by-side comparison. All latencies are *virtual time* from
// the TEE/network cost simulation (see DESIGN.md §1) — deterministic and
// machine-independent.
// Every bench emits its structured payload through the obs registry export
// (one code path for EXPERIMENTS tables, BENCH_*.json trajectories, and ad
// hoc inspection): figure-specific series first, then the registry section
// appended via fprint_registry_section(). The registry JSON is stable-ordered
// and integer-valued, so a fixed seed reproduces it byte for byte.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace stf::bench {

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper shape: %s\n", paper.c_str());
  std::printf("==================================================================\n");
}

inline void print_row(const std::string& label, double value,
                      const char* unit, const std::string& note = "") {
  std::printf("  %-42s %12.3f %-6s %s\n", label.c_str(), value, unit,
              note.c_str());
}

inline void print_note(const std::string& note) {
  std::printf("  -- %s\n", note.c_str());
}

/// The process-wide registry + span export for this bench run.
inline std::string registry_json() {
  return obs::export_json(obs::Registry::global(), &obs::SpanTracer::global());
}

/// The process-wide cost-attribution export (empty object when profiling
/// stayed disabled for the run — still byte-deterministic).
inline std::string profile_json() {
  return obs::export_profile_json(obs::AttributionStore::global());
}

namespace detail {

/// Re-indents a multi-line export by appending `pad` after every newline,
/// dropping the trailing newline so callers control the separator. Lets a
/// top-level export nest at any depth (object member, array element).
inline std::string indent_json(const std::string& json, const char* pad) {
  std::string indented;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\n' && i + 1 == json.size()) break;  // exports end in '\n'
    indented.push_back(c);
    if (c == '\n') indented += pad;
  }
  return indented;
}

/// Renders `"name": <json>` re-indented two spaces so a top-level export
/// nests as an object member.
inline std::string indent_member(const char* name, const std::string& json) {
  return std::string("  \"") + name + "\": " + indent_json(json, "  ");
}

}  // namespace detail

/// Appends `"name": <json>,\n` — a top-level export nested as a member of
/// the BENCH object (same shape fprint_registry_section uses). The serving
/// benches embed the timeline and SLO exports this way (docs/TRACING.md).
inline void fprint_json_member(std::FILE* out, const char* name,
                               const std::string& json) {
  const std::string block = detail::indent_member(name, json) + ",\n";
  std::fputs(block.c_str(), out);
}

/// Prints how many attribution rows decompose exactly (`note` follows the
/// sentence) and exits 1 unless all of them do: a bench whose profile does
/// not add up writes no payload.
inline void check_conservation(const char* note = "") {
  std::uint64_t total = 0, exact = 0;
  for (const auto& row : obs::AttributionStore::global().rows()) {
    ++total;
    if (row.conserved()) ++exact;
  }
  std::printf("\n  conservation: %" PRIu64 "/%" PRIu64
              " attribution rows decompose exactly%s\n",
              exact, total, note);
  if (exact != total) {
    std::fprintf(stderr, "conservation invariant violated\n");
    std::exit(1);
  }
}

/// One workload-config entry for the BENCH JSON "config" section. `value`
/// is pre-rendered JSON: a bare integer ("42") or a quoted string
/// ("\"poisson\"") — never a float, per the integer-only export contract.
struct ConfigEntry {
  std::string key;
  std::string value;
};

inline ConfigEntry config_int(const std::string& key, long long value) {
  return {key, std::to_string(value)};
}

inline ConfigEntry config_str(const std::string& key,
                              const std::string& value) {
  return {key, "\"" + value + "\""};
}

/// Appends `"config": {...},\n`: the workload parameters (seed, arrival
/// model, offered load, batch window, ...) that produced the run, so a
/// committed baseline says which workload it holds and a run of another
/// workload fails the byte comparison.
inline void fprint_config_section(std::FILE* out,
                                  const std::vector<ConfigEntry>& entries) {
  std::fputs("  \"config\": {\n", out);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(out, "    \"%s\": %s%s\n", entries[i].key.c_str(),
                 entries[i].value.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fputs("  },\n", out);
}

/// Appends `"registry": {...},\n"profile": {...}\n` (call between the last
/// figure section's "],\n" and the closing "}"). Every BENCH_*.json thus
/// carries both the metric registry and the cost-attribution table, and
/// ctest compares it byte for byte with bench/baselines/.
inline void fprint_registry_section(std::FILE* out) {
  const std::string block = detail::indent_member("registry", registry_json()) +
                            ",\n" +
                            detail::indent_member("profile", profile_json()) +
                            "\n";
  std::fputs(block.c_str(), out);
}

/// Writes `{"registry": {...}, "profile": {...}}` to `path` (e.g.
/// "BENCH_x.registry.json").
inline void write_registry_json(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("{\n", out);
  fprint_registry_section(out);
  std::fputs("}\n", out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

/// Writes the Chrome trace-event export (spans + attribution rows) to
/// `path`; load it at chrome://tracing or https://ui.perfetto.dev.
inline void write_trace_json(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = obs::export_chrome_trace(
      obs::SpanTracer::global(), &obs::AttributionStore::global());
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

/// Per-run telemetry summary table on stdout (skips zero series).
inline void print_registry_summary() {
  std::printf("\n[telemetry: obs registry summary for this run]\n");
  const std::string table = obs::summary_table(obs::Registry::global(),
                                               &obs::SpanTracer::global());
  std::fputs(table.c_str(), stdout);
}

}  // namespace stf::bench
