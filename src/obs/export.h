// Exporters: the one code path every figure flows through.
//
// `export_json` dumps a registry (and optionally a span tracer) as a JSON
// document whose bytes are a pure function of the recorded values: keys are
// emitted in std::map (lexicographic) order, all values are integers
// (virtual nanoseconds, counts, bytes — never floats), and no timestamps,
// hostnames or pointers appear. Two identical seeded runs therefore produce
// byte-identical exports — tests/obs_test.cpp holds this as an invariant.
//
// `summary_table` renders the same data as a fixed-width text table for
// bench stdout.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/span.h"

namespace stf::obs {

/// Escapes `s` for embedding inside a JSON string literal: `"`, `\` and
/// control characters (U+0000..U+001F) become their JSON escape sequences
/// (`\uXXXX` for controls without a short form). Every name that reaches
/// an exported document goes through this, so a hostile or merely unlucky
/// metric/span name cannot corrupt the JSON.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Serializes `reg` (counters, gauges, histograms, quantiles) and, when
/// non-null, `tracer` summaries + drop count. 2-space indented, trailing
/// newline.
[[nodiscard]] std::string export_json(const Registry& reg,
                                      const SpanTracer* tracer = nullptr);

/// Fixed-width table: one row per counter/gauge, then histogram and span
/// summary sections. Rows with zero activity are skipped.
[[nodiscard]] std::string summary_table(const Registry& reg,
                                        const SpanTracer* tracer = nullptr);

}  // namespace stf::obs
