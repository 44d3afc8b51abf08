// Multi-threaded serving node: the scale-up/scale-out machinery of Figure 7
// as a reusable component.
//
// One ServingNode = one machine running a classification container with N
// worker threads sharing the EPC. Each thread has its own interpreter
// scratch; the node models hyperthread sharing beyond the physical core
// count and the fault-reclaim contention of concurrent EPC misses. A
// ServingFleet serves a request stream across nodes (scale-out); even one
// node serves traffic through a one-node fleet.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/inference.h"
#include "core/loadgen.h"
#include "ml/lite/flat_model.h"
#include "runtime/thread_pool.h"
#include "tee/platform.h"

namespace stf::faults {
class FaultPlane;
}  // namespace stf::faults

namespace stf::core {

/// Dynamic cross-request batching policy (docs/SERVING.md). A batch
/// launches when it reaches `max_batch` requests or when `max_wait_s` has
/// elapsed since the queue head arrived, whichever comes first — the
/// classic batch-window tradeoff between amortization and queueing delay.
struct BatchWindowConfig {
  /// Requests per batched container invocation; 1 disables batching.
  std::int64_t max_batch = 8;
  /// Longest the queue head waits for the batch to fill, virtual seconds.
  double max_wait_s = 0.002;
  /// Admission bound on queued requests; arrivals beyond it are shed
  /// immediately (ShedQueueFull). <= 0 means unbounded.
  std::int64_t queue_capacity = 64;
  /// Drop requests whose deadline already passed at dispatch time instead
  /// of wasting a batch slot on a guaranteed SLO miss.
  bool shed_expired = true;
};

enum class RequestStatus {
  Completed,
  /// Shed at admission: the queue was at capacity when the request arrived.
  ShedQueueFull,
  /// Shed at dispatch: the deadline had already passed.
  ShedExpired,
  /// Terminal loss: its node crashed mid-trace and the retry budget (if
  /// any) was exhausted before another node could complete it.
  FailedNodeDown,
  /// Completed, but only after at least one client-side retry (a re-steer
  /// without a retry stays Completed — see steered_from).
  Retried,
};

/// Per-request result of a serve_trace run (virtual timestamps).
struct RequestOutcome {
  std::int64_t id = 0;
  RequestStatus status = RequestStatus::Completed;
  std::uint64_t arrival_ns = 0;
  std::uint64_t dispatch_ns = 0;     ///< batch launch time (0 when shed)
  std::uint64_t completion_ns = 0;   ///< batch completion time (0 when shed)
  std::int64_t batch_size = 0;       ///< size of the batch it rode in
  bool slo_miss = false;             ///< completed after its deadline
  std::int64_t retries = 0;          ///< client-side retry attempts consumed
  std::int64_t steered_from = -1;    ///< node it was re-steered away from
  std::int64_t node = -1;            ///< node that produced the outcome
};

/// Causal linkage for one batch dispatch (docs/TRACING.md). Only built when
/// obs::tracing_enabled(): `trace_id`/`parent_span_id` name the head
/// member's trace and service span (interior spans recorded during the
/// batch nest under them), and `member_trace_ids` carries every member so
/// serve_batch can terminate each request's flow arrow at the dispatch.
struct BatchTraceInfo {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::vector<std::uint64_t> member_trace_ids;
};

/// Aggregate view of a serve_trace run.
struct TrafficSummary {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_expired = 0;
  std::int64_t slo_misses = 0;
  std::int64_t failed_node_down = 0;  ///< terminal losses to crashed nodes
  std::int64_t retried = 0;           ///< completed after >= 1 retry
  std::int64_t retries_total = 0;     ///< sum of retry attempts consumed
  std::uint64_t first_arrival_ns = 0;
  std::uint64_t last_completion_ns = 0;
  /// Exact nearest-rank quantiles of completed requests' e2e latency
  /// (completion - arrival), same rule as obs::QuantileSeries.
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  /// Filled by the caller from evaluate_slo (core/slo.h) when an SLO policy
  /// was evaluated over the run's timeline; 0 otherwise.
  std::int64_t slo_alerts = 0;
  std::int64_t slo_breached_windows = 0;

  /// Requests that reached a completion, with or without retries.
  [[nodiscard]] std::int64_t goodput() const { return completed + retried; }
  [[nodiscard]] double duration_s() const {
    // An all-shed trace never completes anything (last_completion_ns == 0),
    // so the unsigned difference would wrap; report an empty interval.
    if (last_completion_ns <= first_arrival_ns) return 0;
    return static_cast<double>(last_completion_ns - first_arrival_ns) / 1e9;
  }
  [[nodiscard]] double throughput_rps() const {
    const double d = duration_s();
    return d > 0 ? static_cast<double>(goodput()) / d : 0;
  }
};

[[nodiscard]] TrafficSummary summarize(
    const std::vector<RequestOutcome>& outcomes);

/// Deterministic integer-only JSON for one TrafficSummary (throughput is
/// reported as integer milli-rps so the export stays byte-reproducible).
/// Embedded by the serving benches next to their sweep rows.
[[nodiscard]] std::string export_traffic_summary_json(const TrafficSummary& s);

struct ServingConfig {
  tee::TeeMode mode = tee::TeeMode::Hardware;
  tee::CostModel model;
  unsigned threads = 4;
  /// Physical cores on the machine. Threads beyond this run as hyperthreads
  /// at 65% per-thread throughput (the paper's 4C8T desktop), and their EPC
  /// faults pay 1.5x more reclaim contention.
  unsigned physical_cores = 4;
  /// Per-thread interpreter state (activation arenas, input staging).
  std::uint64_t per_thread_scratch = 10ull << 20;
  /// Host threads the real ML kernels run on: 0 uses the process-wide pool
  /// (hardware concurrency), 1 runs serial, N gives the node its own pool.
  /// Affects wall time only — the virtual `threads` lanes above model the
  /// simulated machine and are entirely separate.
  unsigned kernel_threads = 0;
  InferenceOptions inference;
};

class ServingNode {
 public:
  /// `model` must outlive the node. `ordinal` is the node's stable index in
  /// its fleet, used as the pid of spans/profiles recorded on its lanes
  /// (deterministic across identical runs, unlike anything address-based).
  /// Throws std::invalid_argument when `config.threads` is 0.
  ServingNode(const ml::lite::FlatModel& model, ServingConfig config,
              unsigned ordinal = 0);

  /// Classifies `count` copies of `image`, dispatching each to the
  /// least-loaded thread lane; returns the virtual seconds until the last
  /// lane finishes.
  double classify_stream(const ml::Tensor& image, std::int64_t count);

  /// Steady-state estimate for long streams: warms the EPC (3 rounds, one
  /// request per lane each), measures 5 steady rounds for real, and
  /// extrapolates (exact for the deterministic cost model up to reclaim
  /// jitter, which the averaging absorbs).
  double estimate_stream_seconds(const ml::Tensor& image, std::int64_t count);

  /// Runs one batch on the least-loaded lane as a single batched container
  /// invocation launching at `dispatch_ns` (the lane clock is advanced to
  /// it first); returns the batch completion time. Building block of
  /// ServingFleet::serve_trace, which owns queueing and shedding. `trace`,
  /// when non-null with a nonzero trace_id, installs the head member's
  /// trace context for the batch and finishes every member's flow arrow at
  /// the dispatch (docs/TRACING.md).
  std::uint64_t serve_batch(const std::vector<const ml::Tensor*>& inputs,
                            std::uint64_t dispatch_ns,
                            const BatchTraceInfo* trace = nullptr);

  /// Clock of the least-loaded lane: the earliest time a new batch could
  /// start computing on this node.
  [[nodiscard]] std::uint64_t next_free_ns() const;

  [[nodiscard]] const tee::Platform& platform() const { return *platform_; }
  [[nodiscard]] std::uint64_t epc_faults() const {
    return platform_->epc().stats().faults;
  }
  /// The node's container (GPU offload health and fault hooks live there).
  [[nodiscard]] InferenceService& service() { return *service_; }

 private:
  void classify_on_lane(unsigned lane, const ml::Tensor& image);
  /// Lane whose clock is furthest behind (ties to the lowest index), so
  /// dispatch keeps lane finish times balanced when per-request costs
  /// diverge (reclaim jitter, mixed batch sizes).
  [[nodiscard]] unsigned least_loaded_lane() const;

  ServingConfig config_;
  unsigned ordinal_ = 0;
  std::unique_ptr<runtime::ThreadPool> kernel_pool_;  // when kernel_threads > 1
  std::unique_ptr<tee::Platform> platform_;
  std::unique_ptr<InferenceService> service_;
  std::vector<tee::RegionId> scratch_;
  std::vector<tee::SimClock> lanes_;
};

/// Circuit-breaker resilience knobs for a fleet facing node failures and
/// lossy request links. All timings are virtual; with a fixed config the
/// degradation path is bit-reproducible.
struct FleetResilienceConfig {
  /// Consecutive dispatch failures before a node's circuit opens.
  unsigned failure_threshold = 3;
  /// Circuit-open time before a half-open probe re-admits the node.
  double cooldown_seconds = 4.0;
  /// Dispatcher-side cost of detecting one failed dispatch (timeout).
  double detect_timeout_seconds = 0.010;
  /// Per-request loss probability on the client->node links; lost requests
  /// are retransmitted after a 5 ms RPC timeout (expected-cost model,
  /// deterministic).
  double request_drop_prob = 0;
};

/// Client-side retry policy for requests lost to a mid-trace node crash
/// (docs/SERVING.md). Uses the one ResilientChannel backoff schedule:
/// attempt k waits `runtime::timeout_for(k)` plus a jitter draw from the
/// fleet's own seeded stream before re-queueing on another node. Off unless
/// configure_retry() is called.
struct RequestRetryPolicy {
  /// Retry attempts per request beyond the first dispatch. A request's own
  /// retry_budget (loadgen) overrides this when >= 0.
  unsigned max_retries = 3;
  /// Seed of the fleet's jitter DRBG (virtual-time jitter, deterministic).
  std::uint64_t jitter_seed = 1;
};

/// Optional request hedging (docs/SERVING.md), on once configure_hedging()
/// is called: when the queue head has waited `hedge_delay_s` without
/// dispatching, a duplicate is enqueued on a second node; the first
/// completion wins and the loser is cancelled.
struct HedgePolicy {
  double hedge_delay_s = 0.005;
};

/// Health the fleet tracks per node (all counters deterministic).
struct FleetNodeStatus {
  bool alive = true;                    ///< physical state (fail/restore_node)
  unsigned consecutive_failures = 0;    ///< resets on any success
  std::uint64_t ejected_until_ns = 0;   ///< circuit open until this time
  bool probation = false;               ///< next failure re-ejects immediately
  std::uint64_t ejections = 0;
  std::uint64_t failures_total = 0;
  std::int64_t served = 0;
  /// GPU offload health (docs/GPU_OFFLOAD.md): verification failures this
  /// node's service absorbed, and whether it stopped trusting its GPU.
  std::uint64_t gpu_fallbacks = 0;
  bool gpu_distrusted = false;
};

/// Scale-out: a fleet of identical serving nodes splitting one stream.
/// With resilience configured (or any node failed) the fleet tracks health:
/// failing nodes accumulate failure counts, get ejected circuit-breaker
/// style, are probed again after a cool-down, and their load is re-steered
/// so the stream always completes — reduced throughput, never a hang.
class ServingFleet {
 public:
  /// Throws std::invalid_argument when `nodes` is 0.
  ServingFleet(const ml::lite::FlatModel& model, ServingConfig config,
               unsigned nodes);

  /// Virtual seconds to serve `count` images split across the healthy
  /// nodes, including shipping each request through the network shield.
  /// With every node down, throws runtime::TransientError instead of
  /// spinning. Without faults/resilience this is the exact legacy estimate.
  double estimate_stream_seconds(const ml::Tensor& image, std::int64_t count);

  /// Serves an open-loop trace (sorted by arrival) across the live nodes:
  /// requests are partitioned round-robin by request order, each arrival is
  /// delayed by its network shield + LAN shipping cost before reaching its
  /// node's queue, and every node batches and sheds per `window`, each batch
  /// running on its least-loaded lane as ONE batched container invocation.
  /// A fault plane, retry or hedging policy (below) only configures how the
  /// same loop reacts to crashes (docs/SERVING.md). Deterministic in virtual
  /// time; returns one outcome per request, in request order, with
  /// client-side arrival times, so e2e latency includes the wire. Throws
  /// runtime::TransientError when no node is alive.
  std::vector<RequestOutcome> serve_trace(const std::vector<Request>& requests,
                                          const BatchWindowConfig& window);

  /// Enables health tracking with the given knobs (fail_node() implies a
  /// default-configured enable).
  void configure_resilience(FleetResilienceConfig cfg);

  /// Wires a PR-2 fault plane's crash schedule into serve_trace: nodes
  /// crash and revive at the plane's seeded virtual times mid-trace, and
  /// serve_trace detects, ejects, re-steers and half-open re-admits them.
  /// Fleet node `i` maps to plane node id `base_node_id + i`.
  /// When the fleet serves with gpu_offload, the plane's GPU-corruption
  /// windows (schedule_gpu_corruption) are wired into each node's offload
  /// engine too: inside a window the node's GPU returns wrong results,
  /// verification rejects them, and the batch falls back in-enclave
  /// (docs/GPU_OFFLOAD.md). The plane must outlive the fleet.
  void attach_fault_plane(faults::FaultPlane& plane,
                          std::uint32_t base_node_id = 0);

  /// Enables client-side retries for crash-lost requests in serve_trace.
  void configure_retry(RequestRetryPolicy policy);

  /// Enables queue-head hedging in serve_trace.
  void configure_hedging(HedgePolicy policy);

  /// Crash-stops node `index`; dispatches to it fail until restore_node().
  void fail_node(unsigned index);

  /// Brings node `index` back; it re-joins traffic at its next half-open
  /// probe — after the cool-down within a running stream, or immediately at
  /// the start of the next stream (each estimate is its own timeline).
  void restore_node(unsigned index);

  [[nodiscard]] const FleetNodeStatus& node_status(unsigned index) const {
    return status_.at(index);
  }
  [[nodiscard]] unsigned alive_node_count() const;
  [[nodiscard]] unsigned node_count() const {
    return static_cast<unsigned>(nodes_.size());
  }

 private:
  double estimate_resilient(const ml::Tensor& image, std::int64_t count);

  ServingConfig config_;
  std::vector<std::unique_ptr<ServingNode>> nodes_;
  std::vector<FleetNodeStatus> status_;
  std::optional<FleetResilienceConfig> resilience_;
  faults::FaultPlane* fault_plane_ = nullptr;
  std::uint32_t fault_base_id_ = 0;
  std::optional<RequestRetryPolicy> retry_;
  std::optional<HedgePolicy> hedge_;
};

}  // namespace stf::core
