// Open-loop load generation for the serving request plane (docs/SERVING.md).
//
// A LoadGenerator turns a seed into a reproducible request trace: per-request
// virtual arrival timestamps drawn from a configurable arrival process
// (Poisson, Markov-modulated bursty, diurnal) plus distinct input images.
// Open loop means arrivals do not depend on service times — the generator
// commits to the schedule up front, so offered load keeps pressing on a
// saturated fleet instead of politely waiting, which is the regime where
// batching and shedding earn their keep. Everything is derived from one
// HMAC-DRBG stream: the same config produces a byte-identical trace
// (fingerprint()) on every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/tensor.h"

namespace stf::core {

/// Arrival process families for the open-loop generator.
enum class ArrivalProcess {
  /// Memoryless arrivals at a constant mean rate (exponential gaps).
  Poisson,
  /// Two-state Markov-modulated Poisson process: a high-rate burst state
  /// and a low-rate quiet state with exponentially distributed dwell times.
  Bursty,
  /// Sinusoidally rate-modulated Poisson arrivals (a compressed day), drawn
  /// by Lewis-Shedler thinning against the peak rate.
  Diurnal,
};

[[nodiscard]] const char* to_string(ArrivalProcess p);

struct LoadGenConfig {
  std::uint64_t seed = 1;
  ArrivalProcess process = ArrivalProcess::Poisson;
  /// Mean offered load in requests per virtual second (all processes are
  /// normalized so the long-run mean rate is this value).
  double offered_rps = 100.0;
  /// Number of requests to generate.
  std::int64_t request_count = 100;
  /// Bursty: burst-state arrival rate as a multiple of `offered_rps`.
  double burst_rate_factor = 4.0;
  /// Bursty: long-run fraction of time spent in the burst state, in (0, 1).
  double burst_duty = 0.2;
  /// Bursty: mean dwell in the burst state, virtual seconds.
  double burst_dwell_s = 0.05;
  /// Diurnal: modulation period, virtual seconds (one compressed "day").
  double diurnal_period_s = 10.0;
  /// Diurnal: rate swings by this fraction around the mean, in [0, 1).
  double diurnal_amplitude = 0.8;
  /// Flattened element count of each input image ([1, input_dim] tensors).
  std::int64_t input_dim = 3072;
  /// Distinct images in the trace; request i uses image i % input_pool.
  std::int64_t input_pool = 32;
  /// Per-request deadline: arrival + slo. 0 disables deadlines.
  double slo_s = 0;
  /// Per-request retry budget stamped on every request: how many client
  /// retries it may consume if its node crashes mid-trace. -1 defers to the
  /// fleet's RequestRetryPolicy::max_retries; 0 forbids retries.
  std::int64_t retry_budget = -1;
};

/// One request of the open-loop trace. `input` points into the owning
/// LoadTrace's image pool, which must outlive any use of the request.
struct Request {
  std::int64_t id = 0;
  std::uint64_t arrival_ns = 0;
  /// Absolute virtual deadline; 0 means no deadline.
  std::uint64_t deadline_ns = 0;
  /// Client retry budget for crash-lost dispatches; -1 defers to the
  /// serving fleet's policy (LoadGenConfig::retry_budget).
  std::int64_t retry_budget = -1;
  /// Causal trace id (docs/TRACING.md), stamped as id + 1 so 0 keeps
  /// meaning "untraced". The serving plane only uses it while
  /// obs::tracing_enabled(); it does not enter fingerprint().
  std::uint64_t trace_id = 0;
  const ml::Tensor* input = nullptr;
};

/// A generated trace: requests sorted by arrival plus the image pool that
/// backs their `input` pointers. Movable; copying would dangle the
/// pointers, so it is disabled.
struct LoadTrace {
  std::vector<ml::Tensor> images;
  std::vector<Request> requests;

  LoadTrace() = default;
  LoadTrace(LoadTrace&&) = default;
  LoadTrace& operator=(LoadTrace&&) = default;
  LoadTrace(const LoadTrace&) = delete;
  LoadTrace& operator=(const LoadTrace&) = delete;

  /// SHA-256 over every arrival/deadline/id, each request's image index,
  /// and the image bytes themselves, as a hex string. Two traces from the
  /// same config compare equal byte-for-byte via this digest (the
  /// reproducibility contract the serving bench baselines rely on).
  [[nodiscard]] std::string fingerprint() const;
};

/// Generates a trace deterministically from `config` (see LoadGenConfig).
/// Throws std::invalid_argument on nonsensical configs (non-positive rate,
/// count, pool, or out-of-range burst/diurnal parameters).
[[nodiscard]] LoadTrace generate_load(const LoadGenConfig& config);

}  // namespace stf::core
