#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

ConfigEntry config_num(const std::string& key, double value) {
  return {key, json_number(value)};
}

ConfigEntry config_str(const std::string& key, const std::string& value) {
  return {key, json_quote(value)};
}

HostTrace::Scope::Scope(HostTrace& trace, std::string name)
    : trace_(trace),
      name_(std::move(name)),
      id_(++trace.next_id_),
      parent_(trace.open_.empty() ? 0 : trace.open_.back()),
      start_ns_(trace.now_ns()) {
  trace_.open_.push_back(id_);
}

HostTrace::Scope::~Scope() {
  const std::uint64_t end_ns = trace_.now_ns();
  trace_.open_.pop_back();
  if (trace_.spans_.size() >= kCapacity) {
    ++trace_.dropped_;
    return;
  }
  trace_.spans_.push_back({std::move(name_), start_ns_, end_ns, id_, parent_});
}

double HostTrace::Scope::elapsed_s() const {
  return static_cast<double>(trace_.now_ns() - start_ns_) / 1e9;
}

std::uint64_t HostTrace::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

std::vector<double> HostTrace::durations_s(const std::string& name,
                                           std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) /
                    1e9);
    }
  }
  return out;
}

double HostTrace::total_s(const std::string& name, std::size_t from) const {
  double sum = 0;
  for (const double d : durations_s(name, from)) sum += d;
  return sum;
}

std::string HostTrace::chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu}}",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += "  {\"name\": " + json_quote(s.name) + ", " + buf;
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": " +
         std::to_string(dropped_) + "}}\n";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double registry_counter(const char* name) {
  double value = 0;
  stf::obs::Registry::global().visit_counters(
      [&](const std::string& n, const stf::obs::MetricInfo&,
          const stf::obs::Counter& c) {
        if (n == name) value = static_cast<double>(c.value());
      });
  return value;
}

double registry_quantile_ns(const char* name, double q) {
  double value = 0;
  stf::obs::Registry::global().visit_quantiles(
      [&](const std::string& n, const stf::obs::MetricInfo&,
          const stf::obs::QuantileSeries& s) {
        if (n == name) value = static_cast<double>(s.quantile(q));
      });
  return value;
}

std::vector<ConfigEntry> cost_model_config(const std::string& prefix,
                                           const stf::tee::CostModel& m) {
  const auto num = [&](const char* field, double v) {
    return config_num(prefix + field, v);
  };
  return {
      num("flops_per_second", m.flops_per_second),
      num("dram_bandwidth", m.dram_bandwidth),
      num("mee_overhead_per_byte_ns", m.mee_overhead_per_byte_ns),
      num("compute_bytes_per_flop", m.compute_bytes_per_flop),
      num("int8_ops_multiple", m.int8_ops_multiple),
      num("runtime_overhead_inference", m.runtime_overhead_inference),
      num("runtime_overhead_training", m.runtime_overhead_training),
      num("netshield_stall_ns_per_byte", m.netshield_stall_ns_per_byte),
      num("page_size", static_cast<double>(m.page_size)),
      num("epc_bytes", static_cast<double>(m.epc_bytes)),
      num("page_evict_ns", static_cast<double>(m.page_evict_ns)),
      num("page_load_ns", static_cast<double>(m.page_load_ns)),
      num("page_fault_ns", static_cast<double>(m.page_fault_ns)),
      num("page_prefetch_ns", static_cast<double>(m.page_prefetch_ns)),
      num("page_advise_evict_ns", static_cast<double>(m.page_advise_evict_ns)),
      num("gpu_flops_per_second", m.gpu_flops_per_second),
      num("pcie_bandwidth", m.pcie_bandwidth),
      num("transition_ns", static_cast<double>(m.transition_ns)),
      num("async_syscall_ns", static_cast<double>(m.async_syscall_ns)),
      num("syscall_kernel_ns", static_cast<double>(m.syscall_kernel_ns)),
      num("uthread_switch_ns", static_cast<double>(m.uthread_switch_ns)),
      num("aead_bandwidth", m.aead_bandwidth),
      num("hw_aead_bandwidth", m.hw_aead_bandwidth),
      num("aead_record_ns", static_cast<double>(m.aead_record_ns)),
      num("quote_generation_ns", static_cast<double>(m.quote_generation_ns)),
      num("cas_quote_verify_ns", static_cast<double>(m.cas_quote_verify_ns)),
      num("ias_quote_verify_ns", static_cast<double>(m.ias_quote_verify_ns)),
      num("tls_handshake_ns", static_cast<double>(m.tls_handshake_ns)),
      num("lan_bandwidth", m.lan_bandwidth),
      num("lan_rtt_ns", static_cast<double>(m.lan_rtt_ns)),
      num("wan_bandwidth", m.wan_bandwidth),
      num("wan_rtt_ns", static_cast<double>(m.wan_rtt_ns)),
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<float> seeded_floats(std::uint64_t seed, std::size_t n) {
  std::vector<float> out(n);
  std::uint64_t state = seed;
  for (float& f : out) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    f = static_cast<float>(z >> 40) / static_cast<float>(1u << 24);
  }
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
