#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace stf::obs {
namespace {

// All emission goes through these helpers so the byte layout has exactly
// one definition. Values are integers only — see the header contract.

std::string pad(int level) {
  return std::string(2 * static_cast<std::size_t>(level), ' ');
}

void append_kv(std::string& out, const std::string& key, std::uint64_t v,
               bool last, int level) {
  out += pad(level) + "\"" + key + "\": " + std::to_string(v);
  out += last ? "\n" : ",\n";
}

void append_kv(std::string& out, const std::string& key, std::int64_t v,
               bool last, int level) {
  out += pad(level) + "\"" + key + "\": " + std::to_string(v);
  out += last ? "\n" : ",\n";
}

void append_kv(std::string& out, const std::string& key, const char* v,
               bool last, int level) {
  out += pad(level) + "\"" + key + "\": \"" + v + "\"";
  out += last ? "\n" : ",\n";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string export_json(const Registry& reg, const SpanTracer* tracer) {
  std::string out = "{\n";

  // -- counters -----------------------------------------------------------
  out += pad(1) + "\"counters\": {\n";
  {
    std::vector<std::string> blocks;
    reg.visit_counters([&](const std::string& name, const MetricInfo& info,
                           const Counter& c) {
      std::string b = pad(2) + "\"" + json_escape(name) + "\": {\n";
      append_kv(b, "unit", to_string(info.unit), false, 3);
      append_kv(b, "value", c.value(), true, 3);
      b += pad(2) + "}";
      blocks.push_back(std::move(b));
    });
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      out += blocks[i] + (i + 1 < blocks.size() ? ",\n" : "\n");
    }
  }
  out += pad(1) + "},\n";

  // -- gauges -------------------------------------------------------------
  out += pad(1) + "\"gauges\": {\n";
  {
    std::vector<std::string> blocks;
    reg.visit_gauges([&](const std::string& name, const MetricInfo& info,
                         const Gauge& g) {
      std::string b = pad(2) + "\"" + json_escape(name) + "\": {\n";
      append_kv(b, "unit", to_string(info.unit), false, 3);
      append_kv(b, "value", g.value(), true, 3);
      b += pad(2) + "}";
      blocks.push_back(std::move(b));
    });
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      out += blocks[i] + (i + 1 < blocks.size() ? ",\n" : "\n");
    }
  }
  out += pad(1) + "},\n";

  // -- histograms ---------------------------------------------------------
  out += pad(1) + "\"histograms\": {";
  {
    std::vector<std::string> blocks;
    reg.visit_histograms([&](const std::string& name, const MetricInfo& info,
                             const Histogram& h) {
      std::string b = pad(2) + "\"" + json_escape(name) + "\": {\n";
      append_kv(b, "unit", to_string(info.unit), false, 3);
      append_kv(b, "count", h.count(), false, 3);
      append_kv(b, "sum", h.sum(), false, 3);
      b += pad(3) + "\"buckets\": [";
      const auto& edges = h.edges();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        b += "{\"le\": " + std::to_string(edges[i]) +
             ", \"count\": " + std::to_string(h.bucket(i)) + "}, ";
      }
      b += "{\"le\": \"inf\", \"count\": " +
           std::to_string(h.bucket(edges.size())) + "}]\n";
      b += pad(2) + "}";
      blocks.push_back(std::move(b));
    });
    out += blocks.empty() ? "" : "\n";
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      out += blocks[i] + (i + 1 < blocks.size() ? ",\n" : "\n");
    }
    out += blocks.empty() ? "}" : pad(1) + "}";
  }

  // -- quantiles ----------------------------------------------------------
  out += ",\n" + pad(1) + "\"quantiles\": {";
  {
    std::vector<std::string> blocks;
    reg.visit_quantiles([&](const std::string& name, const MetricInfo& info,
                            const QuantileSeries& q) {
      std::string b = pad(2) + "\"" + json_escape(name) + "\": {\n";
      append_kv(b, "unit", to_string(info.unit), false, 3);
      append_kv(b, "count", q.count(), false, 3);
      append_kv(b, "p50", q.quantile(0.50), false, 3);
      append_kv(b, "p95", q.quantile(0.95), false, 3);
      append_kv(b, "p99", q.quantile(0.99), true, 3);
      b += pad(2) + "}";
      blocks.push_back(std::move(b));
    });
    out += blocks.empty() ? "" : "\n";
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      out += blocks[i] + (i + 1 < blocks.size() ? ",\n" : "\n");
    }
    out += blocks.empty() ? "}" : pad(1) + "}";
  }

  // -- spans --------------------------------------------------------------
  if (tracer != nullptr) {
    out += ",\n" + pad(1) + "\"spans\": {\n";
    append_kv(out, "dropped", tracer->dropped(), false, 2);
    out += pad(2) + "\"summaries\": {";
    const auto sums = tracer->summaries();
    if (!sums.empty()) {
      out += "\n";
      std::size_t i = 0;
      for (const auto& [name, s] : sums) {
        out += pad(3) + "\"" + json_escape(name) + "\": {\"count\": " +
               std::to_string(s.count) +
               ", \"total_ns\": " + std::to_string(s.total_ns) +
               ", \"max_ns\": " + std::to_string(s.max_ns) + "}";
        out += (++i < sums.size()) ? ",\n" : "\n";
      }
      out += pad(2) + "}\n";
    } else {
      out += "}\n";
    }
    out += pad(1) + "}\n";
  } else {
    out += "\n";
  }

  out += "}\n";
  return out;
}

std::string summary_table(const Registry& reg, const SpanTracer* tracer) {
  std::string out;
  char line[256];

  out += "-- counters ------------------------------------------------\n";
  reg.visit_counters([&](const std::string& name, const MetricInfo& info,
                         const Counter& c) {
    if (c.value() == 0) return;
    std::snprintf(line, sizeof(line), "%-44s %14llu %s\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()),
                  to_string(info.unit));
    out += line;
  });

  out += "-- gauges --------------------------------------------------\n";
  reg.visit_gauges([&](const std::string& name, const MetricInfo& info,
                       const Gauge& g) {
    if (g.value() == 0) return;
    std::snprintf(line, sizeof(line), "%-44s %14lld %s\n", name.c_str(),
                  static_cast<long long>(g.value()), to_string(info.unit));
    out += line;
  });

  out += "-- histograms ----------------------------------------------\n";
  reg.visit_histograms([&](const std::string& name, const MetricInfo& info,
                           const Histogram& h) {
    if (h.count() == 0) return;
    const std::uint64_t mean = h.sum() / h.count();
    std::snprintf(line, sizeof(line),
                  "%-44s n=%-10llu mean=%llu %s\n", name.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(mean),
                  to_string(info.unit));
    out += line;
  });

  out += "-- quantiles -----------------------------------------------\n";
  reg.visit_quantiles([&](const std::string& name, const MetricInfo& info,
                          const QuantileSeries& q) {
    if (q.count() == 0) return;
    std::snprintf(line, sizeof(line),
                  "%-44s n=%-10llu p50=%llu p95=%llu p99=%llu %s\n",
                  name.c_str(), static_cast<unsigned long long>(q.count()),
                  static_cast<unsigned long long>(q.quantile(0.50)),
                  static_cast<unsigned long long>(q.quantile(0.95)),
                  static_cast<unsigned long long>(q.quantile(0.99)),
                  to_string(info.unit));
    out += line;
  });

  if (tracer != nullptr) {
    out += "-- spans ---------------------------------------------------\n";
    for (const auto& [name, s] : tracer->summaries()) {
      std::snprintf(line, sizeof(line),
                    "%-44s n=%-10llu total=%lluns max=%lluns\n", name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.total_ns),
                    static_cast<unsigned long long>(s.max_ns));
      out += line;
    }
    if (tracer->dropped() > 0) {
      std::snprintf(line, sizeof(line), "%-44s %14llu\n", "(spans dropped)",
                    static_cast<unsigned long long>(tracer->dropped()));
      out += line;
    }
  }
  return out;
}

}  // namespace stf::obs
