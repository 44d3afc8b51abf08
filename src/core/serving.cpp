#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "crypto/bytes.h"
#include "crypto/drbg.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "runtime/errors.h"

namespace stf::core {
namespace {

// Causal-trace events (docs/TRACING.md) at the queue level (request phase
// spans, flow arrows) are recorded on a dedicated per-node "queue row" lane
// (tid 0xffff) so Perfetto keeps the compute lanes clean.
constexpr std::uint16_t kQueueLaneTid = 0xffff;

/// Pre-computed decomposition of one completed request. The four child
/// intervals tile [client_arrival, completion] with no overlap; any
/// uncovered gap (a retry's backoff wait) is deliberate, reported by
/// trace_report as explicit slack.
struct MemberTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t client_arrival_ns = 0;
  std::uint64_t wire_end_ns = 0;     ///< client_arrival + wire cost
  std::uint64_t node_arrival_ns = 0; ///< when this copy hit the node queue
  std::uint64_t queue_end_ns = 0;    ///< lane/circuit free, clamped to dispatch
  std::uint64_t service_span_id = 0; ///< pre-allocated: batch spans nest here
};

/// Records the causal tree of one completed member: a root span over the
/// whole request plus wire -> queue_wait -> batch_wait -> service children.
/// Zero-length phases are skipped (they add nothing to coverage).
void record_member_trace(const MemberTrace& m, std::uint16_t node,
                         std::uint64_t dispatch_ns,
                         std::uint64_t completion_ns) {
  obs::SpanTracer& tracer = obs::SpanTracer::global();
  obs::ScopedLane lane(node, kQueueLaneTid);
  const std::uint64_t root = tracer.alloc_span_id();
  tracer.record_traced(obs::span_id<obs::names::kSpanServingRequest>(),
                       m.client_arrival_ns, completion_ns, m.trace_id, root,
                       0);
  if (m.wire_end_ns > m.client_arrival_ns) {
    tracer.record_traced(obs::span_id<obs::names::kSpanServingWire>(),
                         m.client_arrival_ns, m.wire_end_ns, m.trace_id,
                         tracer.alloc_span_id(), root);
  }
  if (m.queue_end_ns > m.node_arrival_ns) {
    tracer.record_traced(obs::span_id<obs::names::kSpanServingQueueWait>(),
                         m.node_arrival_ns, m.queue_end_ns, m.trace_id,
                         tracer.alloc_span_id(), root);
  }
  if (dispatch_ns > m.queue_end_ns) {
    tracer.record_traced(obs::span_id<obs::names::kSpanServingBatchWait>(),
                         m.queue_end_ns, dispatch_ns, m.trace_id,
                         tracer.alloc_span_id(), root);
  }
  tracer.record_traced(obs::span_id<obs::names::kSpanServingService>(),
                       dispatch_ns, completion_ns, m.trace_id,
                       m.service_span_id, root);
}

/// The fleet's circuit breaker over FleetNodeStatus, shared by serve_trace
/// and estimate_resilient. Every failed dispatch is a strike; the circuit
/// opens for the cool-down at `failure_threshold` consecutive strikes, or
/// at the first strike while on probation. The first dispatch after the
/// cool-down is the half-open probe: success closes the circuit.
struct CircuitBreaker {
  explicit CircuitBreaker(const FleetResilienceConfig& cfg)
      : threshold(cfg.failure_threshold),
        cooldown_ns(static_cast<std::uint64_t>(cfg.cooldown_seconds * 1e9)) {}

  /// A dispatch found the node dead; the dispatcher knew at `detected_ns`.
  void strike(FleetNodeStatus& s, std::uint64_t detected_ns) const {
    ++s.failures_total;
    ++s.consecutive_failures;
    obs::counter<obs::names::kServingDispatchFailures>().add();
    if (s.probation || s.consecutive_failures >= threshold) {
      s.ejected_until_ns = detected_ns + cooldown_ns;
      s.probation = true;  // half-open next time: one strike re-ejects
      ++s.ejections;
      obs::counter<obs::names::kServingEjections>().add();
      s.consecutive_failures = 0;
    }
  }

  /// A dispatch succeeded. Returns true when it was the half-open probe
  /// that re-admitted the node.
  static bool succeed(FleetNodeStatus& s) {
    s.consecutive_failures = 0;
    return std::exchange(s.probation, false);
  }

  unsigned threshold;
  std::uint64_t cooldown_ns;
};

}  // namespace

TrafficSummary summarize(const std::vector<RequestOutcome>& outcomes) {
  TrafficSummary s;
  std::vector<std::uint64_t> e2e;
  bool first = true;
  for (const RequestOutcome& o : outcomes) {
    ++s.offered;
    if (first || o.arrival_ns < s.first_arrival_ns) {
      s.first_arrival_ns = o.arrival_ns;
      first = false;
    }
    switch (o.status) {
      case RequestStatus::Completed:
        ++s.completed;
        if (o.slo_miss) ++s.slo_misses;
        s.last_completion_ns = std::max(s.last_completion_ns, o.completion_ns);
        e2e.push_back(o.completion_ns - o.arrival_ns);
        break;
      case RequestStatus::Retried:
        ++s.retried;
        s.retries_total += o.retries;
        if (o.slo_miss) ++s.slo_misses;
        s.last_completion_ns = std::max(s.last_completion_ns, o.completion_ns);
        e2e.push_back(o.completion_ns - o.arrival_ns);
        break;
      case RequestStatus::ShedQueueFull: ++s.shed_queue_full; break;
      case RequestStatus::ShedExpired: ++s.shed_expired; break;
      case RequestStatus::FailedNodeDown: ++s.failed_node_down; break;
    }
  }
  s.p50_ns = obs::nearest_rank(e2e, 0.50);
  s.p95_ns = obs::nearest_rank(e2e, 0.95);
  s.p99_ns = obs::nearest_rank(e2e, 0.99);
  return s;
}

std::string export_traffic_summary_json(const TrafficSummary& s) {
  // Throughput is the one derived float; exported as integer milli-rps so
  // two identical seeded runs stay byte-identical.
  const auto throughput_mrps =
      static_cast<std::int64_t>(std::llround(s.throughput_rps() * 1000.0));
  std::string out = "{\n";
  out += "  \"offered\": " + std::to_string(s.offered) + ",\n";
  out += "  \"completed\": " + std::to_string(s.completed) + ",\n";
  out += "  \"shed_queue_full\": " + std::to_string(s.shed_queue_full) + ",\n";
  out += "  \"shed_expired\": " + std::to_string(s.shed_expired) + ",\n";
  out += "  \"slo_misses\": " + std::to_string(s.slo_misses) + ",\n";
  out += "  \"failed_node_down\": " + std::to_string(s.failed_node_down) +
         ",\n";
  out += "  \"retried\": " + std::to_string(s.retried) + ",\n";
  out += "  \"retries_total\": " + std::to_string(s.retries_total) + ",\n";
  out += "  \"goodput\": " + std::to_string(s.goodput()) + ",\n";
  out += "  \"first_arrival_ns\": " + std::to_string(s.first_arrival_ns) +
         ",\n";
  out += "  \"last_completion_ns\": " + std::to_string(s.last_completion_ns) +
         ",\n";
  out += "  \"p50_ns\": " + std::to_string(s.p50_ns) + ",\n";
  out += "  \"p95_ns\": " + std::to_string(s.p95_ns) + ",\n";
  out += "  \"p99_ns\": " + std::to_string(s.p99_ns) + ",\n";
  out += "  \"throughput_mrps\": " + std::to_string(throughput_mrps) + ",\n";
  out += "  \"slo_alerts\": " + std::to_string(s.slo_alerts) + ",\n";
  out += "  \"slo_breached_windows\": " +
         std::to_string(s.slo_breached_windows) + "\n";
  out += "}\n";
  return out;
}

ServingNode::ServingNode(const ml::lite::FlatModel& model,
                         ServingConfig config, unsigned ordinal)
    : config_(std::move(config)), ordinal_(ordinal) {
  if (config_.threads < 1) {
    throw std::invalid_argument("serving node: threads must be at least 1");
  }
  tee::CostModel cost = config_.model;
  if (config_.threads > config_.physical_cores) {
    cost.flops_per_second *= config_.hyperthread_efficiency;
  }
  if (config_.mode == tee::TeeMode::Hardware && config_.threads > 1) {
    const double contention =
        config_.threads * (config_.threads > config_.physical_cores
                               ? config_.oversubscribed_fault_factor
                               : 1.0);
    cost.page_fault_ns =
        static_cast<std::uint64_t>(cost.page_fault_ns * contention);
    cost.page_load_ns =
        static_cast<std::uint64_t>(cost.page_load_ns * contention);
    cost.page_evict_ns =
        static_cast<std::uint64_t>(cost.page_evict_ns * contention);
  }
  if (config_.kernel_threads == 1) {
    config_.inference.kernels = ml::kernels::KernelContext{};  // serial
  } else if (config_.kernel_threads > 1) {
    kernel_pool_ =
        std::make_unique<runtime::ThreadPool>(config_.kernel_threads);
    config_.inference.kernels = ml::kernels::KernelContext{
        kernel_pool_.get(), kernel_pool_->thread_count()};
  }  // 0: keep the shared-pool default from InferenceOptions
  platform_ = std::make_unique<tee::Platform>("serving-node", config_.mode,
                                              cost, config_.threads);
  service_ = std::make_unique<InferenceService>(*platform_, model,
                                                config_.inference);
  lanes_.resize(config_.threads);
  if (auto* enclave = const_cast<tee::Enclave*>(service_->enclave())) {
    for (unsigned t = 0; t < config_.threads; ++t) {
      scratch_.push_back(enclave->alloc_region(
          "thread-scratch-" + std::to_string(t), config_.per_thread_scratch));
    }
  }
}

void ServingNode::classify_on_lane(unsigned lane, const ml::Tensor& image) {
  // Spans/profiles recorded inside this request carry (node ordinal, lane)
  // so the Chrome trace draws one row per simulated core lane.
  obs::ScopedLane lane_scope(static_cast<std::uint16_t>(ordinal_),
                             static_cast<std::uint16_t>(lane));
  platform_->set_active_lane(&lanes_[lane]);
  const std::uint64_t start_ns = lanes_[lane].now_ns();
  if (auto* enclave = const_cast<tee::Enclave*>(service_->enclave())) {
    enclave->access(scratch_[lane], 0, config_.per_thread_scratch, true);
  }
  (void)service_->classify(image);
  obs::quantiles<obs::names::kServingRequestQuantileNs>().observe(
      lanes_[lane].now_ns() - start_ns);
  platform_->set_active_lane(nullptr);
}

unsigned ServingNode::least_loaded_lane() const {
  unsigned best = 0;
  for (unsigned i = 1; i < lanes_.size(); ++i) {
    if (lanes_[i].now_ns() < lanes_[best].now_ns()) best = i;
  }
  return best;
}

std::uint64_t ServingNode::next_free_ns() const {
  return lanes_[least_loaded_lane()].now_ns();
}

std::uint64_t ServingNode::serve_batch(
    const std::vector<const ml::Tensor*>& inputs, std::uint64_t dispatch_ns,
    const BatchTraceInfo* trace) {
  const unsigned lane = least_loaded_lane();
  obs::ScopedLane lane_scope(static_cast<std::uint16_t>(ordinal_),
                             static_cast<std::uint16_t>(lane));
  platform_->set_active_lane(&lanes_[lane]);
  lanes_[lane].advance_to(dispatch_ns);  // lane idles until the batch launch
  // Traced dispatch: every member's flow arrow lands on the compute lane
  // here (batch fan-in), and interior spans recorded during the batch nest
  // under the head member's service span.
  const bool traced = trace != nullptr && trace->trace_id != 0;
  if (traced) {
    for (const std::uint64_t id : trace->member_trace_ids) {
      obs::SpanTracer::global().record_flow(
          obs::span_id<obs::names::kFlowServingRequest>(), id, dispatch_ns,
          obs::FlowPhase::Finish);
    }
  }
  std::optional<obs::ScopedTraceContext> ctx;
  if (traced) ctx.emplace(trace->trace_id, trace->parent_span_id);
  if (auto* enclave = const_cast<tee::Enclave*>(service_->enclave())) {
    enclave->access(scratch_[lane], 0, config_.per_thread_scratch, true);
  }
  (void)service_->classify_batch(inputs);
  const std::uint64_t completion = lanes_[lane].now_ns();
  platform_->set_active_lane(nullptr);
  return completion;
}

double ServingNode::classify_stream(const ml::Tensor& image,
                                    std::int64_t count) {
  const std::uint64_t start = lanes_[0].now_ns();
  for (std::int64_t i = 0; i < count; ++i) {
    // Least-loaded dispatch instead of round-robin: fixed-order assignment
    // drifts out of balance as per-request costs diverge (reclaim jitter,
    // mixed batch sizes), leaving some lanes idle while others queue.
    classify_on_lane(least_loaded_lane(), image);
  }
  std::uint64_t end = start;
  for (const auto& lane : lanes_) end = std::max(end, lane.now_ns());
  return static_cast<double>(end - start) / 1e9;
}

double ServingNode::estimate_stream_seconds(const ml::Tensor& image,
                                            std::int64_t count,
                                            int warmup_rounds,
                                            int measured_rounds) {
  for (int r = 0; r < warmup_rounds; ++r) {
    for (unsigned lane = 0; lane < config_.threads; ++lane) {
      classify_on_lane(lane, image);
    }
  }
  const std::uint64_t before = lanes_[0].now_ns();
  for (int r = 0; r < measured_rounds; ++r) {
    for (unsigned lane = 0; lane < config_.threads; ++lane) {
      classify_on_lane(lane, image);
    }
  }
  const double round_s =
      static_cast<double>(lanes_[0].now_ns() - before) / 1e9 / measured_rounds;
  const std::int64_t rounds =
      (count + config_.threads - 1) / config_.threads;
  return round_s * static_cast<double>(rounds);
}

ServingFleet::ServingFleet(const ml::lite::FlatModel& model,
                           ServingConfig config, unsigned nodes)
    : config_(std::move(config)) {
  if (nodes < 1) {
    throw std::invalid_argument("fleet: needs at least one node");
  }
  for (unsigned n = 0; n < nodes; ++n) {
    nodes_.push_back(std::make_unique<ServingNode>(model, config_, n));
  }
  status_.resize(nodes_.size());
}

void ServingFleet::configure_resilience(FleetResilienceConfig cfg) {
  resilience_ = cfg;
}

void ServingFleet::attach_fault_plane(faults::FaultPlane& plane,
                                      std::uint32_t base_node_id) {
  fault_plane_ = &plane;
  fault_base_id_ = base_node_id;
  if (!resilience_.has_value()) resilience_ = FleetResilienceConfig{};
  // Wire the plane's GPU-corruption schedule into each node's offload
  // engine. The plane only owns windows + counters (no ml:: dependency);
  // the actual tensor damage is applied here, where both layers meet.
  if (config_.inference.gpu_offload) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const net::NodeId plane_id =
          base_node_id + static_cast<net::NodeId>(i);
      faults::FaultPlane* p = &plane;
      nodes_[i]->set_gpu_corruption(
          [p, plane_id](std::uint64_t now_ns, ml::Tensor& t) {
            if (p->gpu_corrupt(plane_id, now_ns) && t.size() > 0) {
              // A lying GPU: one wrong element in the returned product is
              // exactly what Freivalds / the conv spot checks must catch.
              t.at(t.size() / 2) += 1.0f;
            }
          });
    }
  }
}

void ServingFleet::configure_retry(RequestRetryPolicy policy) {
  retry_ = policy;
  if (!resilience_.has_value()) resilience_ = FleetResilienceConfig{};
}

void ServingFleet::configure_hedging(HedgePolicy policy) {
  hedge_ = policy;
  if (!resilience_.has_value()) resilience_ = FleetResilienceConfig{};
}

void ServingFleet::fail_node(unsigned index) {
  status_.at(index).alive = false;
  if (!resilience_.has_value()) resilience_ = FleetResilienceConfig{};
}

void ServingFleet::restore_node(unsigned index) {
  status_.at(index).alive = true;
}

unsigned ServingFleet::alive_node_count() const {
  unsigned n = 0;
  for (const auto& s : status_) n += s.alive ? 1 : 0;
  return n;
}

double ServingFleet::estimate_stream_seconds(const ml::Tensor& image,
                                             std::int64_t count) {
  if (resilience_.has_value()) return estimate_resilient(image, count);
  const std::int64_t per_node =
      (count + static_cast<std::int64_t>(nodes_.size()) - 1) /
      static_cast<std::int64_t>(nodes_.size());
  double slowest = 0;
  for (auto& node : nodes_) {
    slowest = std::max(slowest, node->estimate_stream_seconds(image, per_node));
  }
  // Request distribution: each image ships through the network shield and
  // the LAN to its node.
  const double per_request_s =
      static_cast<double>(config_.model.netshield_ns(image.byte_size()) +
                          config_.model.lan_transfer_ns(image.byte_size())) /
      1e9;
  return slowest + per_request_s * static_cast<double>(per_node);
}

// The request plane (docs/SERVING.md). One global event loop drives every
// node: each step picks the node whose next batch could launch earliest,
// runs its admission, batch window and deadline shedding, and probes the
// fault plane's crash schedule (if one is attached) at dispatch. A dispatch
// that finds the node dead costs the dispatcher `detect_timeout_seconds`,
// takes a circuit-breaker strike, and re-steers the queued-but-unserved
// requests to the least-loaded live node; a crash window opening
// mid-service loses the in-flight batch the same way. Lost requests burn
// client retries (exponential backoff + seeded jitter) when configured, and
// become terminal FailedNodeDown otherwise — every offered request ends in
// exactly one terminal RequestOutcome.
std::vector<RequestOutcome> ServingFleet::serve_trace(
    const std::vector<Request>& requests, const BatchWindowConfig& window) {
  if (window.max_batch < 1) {
    throw std::invalid_argument("serve_trace: max_batch must be >= 1");
  }
  if (window.max_wait_s < 0) {
    throw std::invalid_argument("serve_trace: max_wait_s must be >= 0");
  }
  if (alive_node_count() == 0) {
    throw runtime::TransientError("serving fleet: no live nodes");
  }
  const FleetResilienceConfig cfg =
      resilience_.value_or(FleetResilienceConfig{});
  const auto wait_ns =
      static_cast<std::uint64_t>(std::llround(window.max_wait_s * 1e9));
  const auto detect_ns =
      static_cast<std::uint64_t>(cfg.detect_timeout_seconds * 1e9);
  const CircuitBreaker breaker(cfg);
  const bool hedging = hedge_.has_value() && hedge_->enabled;
  const std::uint64_t hedge_ns =
      hedging ? static_cast<std::uint64_t>(
                    std::llround(hedge_->hedge_delay_s * 1e9))
              : 0;
  const std::size_t n = nodes_.size();

  // Each trace is its own timeline; ejection deadlines from a previous run
  // are stale (same contract as estimate_resilient).
  for (auto& s : status_) s.ejected_until_ns = 0;

  // Seeded jitter stream for retry backoff, independent of every other DRBG
  // in the run so the retry schedule replays bit-for-bit.
  crypto::Bytes jseed = crypto::to_bytes("stf-serving-retry-");
  std::uint8_t jb[8];
  crypto::store_be64(jb, retry_ ? retry_->jitter_seed : 0);
  crypto::append(jseed, crypto::BytesView(jb, 8));
  crypto::HmacDrbg jitter(jseed);

  struct Pending {
    const Request* req = nullptr;
    std::uint64_t arrival_ns = 0;    ///< node-side arrival (after the wire)
    std::uint64_t wire_ns = 0;       ///< wire cost of one shipment
    std::int64_t attempts = 0;       ///< client retries consumed so far
    std::int64_t steered_from = -1;  ///< node this copy last left
    int strikes = 0;   ///< crash encounters; a budget stops ping-pong
    bool is_hedge = false;
  };
  struct NodeLoop {
    std::vector<Pending> stream;  ///< static partition, sorted by arrival
    std::size_t next = 0;         ///< first un-admitted stream entry
    std::deque<Pending> inbox;    ///< re-steered/retried/hedged, sorted
    std::deque<Pending> queue;    ///< admitted, FIFO
    std::uint64_t not_before_ns = 0;  ///< dispatcher busy until (detections)
  };
  struct Terminal {
    RequestOutcome out;
    std::uint64_t node_arrival_ns = 0;
    std::uint64_t shed_ns = 0;  ///< where the decision lands on the Timeline
    bool by_hedge = false;
  };
  constexpr int kStrikeBudget = 8;

  std::vector<NodeLoop> loops(n);
  std::map<std::int64_t, Terminal> done;
  std::set<std::int64_t> hedged;

  // Static partition round-robin by request order over the nodes alive at
  // trace start; every arrival pays the network shield + LAN cost before
  // reaching its node's queue.
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < n; ++i) {
    if (status_[i].alive) live.push_back(i);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Pending p;
    p.req = &requests[i];
    const std::uint64_t bytes = requests[i].input->byte_size();
    p.wire_ns = config_.model.netshield_ns(bytes) +
                config_.model.lan_transfer_ns(bytes);
    p.arrival_ns = requests[i].arrival_ns + p.wire_ns;
    loops[live[i % live.size()]].stream.push_back(p);
  }

  obs::counter<obs::names::kServingRequestsOffered>().add(requests.size());

  const bool tracing = obs::tracing_enabled();
  obs::Timeline& tl = obs::Timeline::global();
  if (tl.enabled()) {
    for (const Request& r : requests) tl.record_offered(r.arrival_ns);
  }

  auto down_at = [&](std::size_t i, std::uint64_t t) {
    if (!status_[i].alive) return true;
    return fault_plane_ != nullptr &&
           fault_plane_->node_down(
               fault_base_id_ + static_cast<std::uint32_t>(i), t);
  };

  // A shed is stamped on the Timeline where its decision is made: at the
  // client arrival for an admission reject, at the dispatch instant for an
  // expired deadline.
  auto record_shed = [&](const Pending& p, RequestStatus st, std::size_t i,
                         std::uint64_t shed_ns) {
    if (p.is_hedge) return;  // the primary copy lives (or ended) elsewhere
    if (done.count(p.req->id) != 0) return;  // keep the first terminal state
    Terminal t;
    t.out.id = p.req->id;
    t.out.status = st;
    t.out.retries = p.attempts;
    t.out.steered_from = p.steered_from;
    t.out.node = static_cast<std::int64_t>(i);
    t.node_arrival_ns = p.arrival_ns;
    t.shed_ns = shed_ns;
    done.emplace(p.req->id, t);
  };

  auto record_failed = [&](const Pending& p, std::uint64_t dispatch_ns,
                           std::size_t i) {
    if (p.is_hedge) return;
    if (done.count(p.req->id) != 0) return;
    Terminal t;
    t.out.id = p.req->id;
    t.out.status = RequestStatus::FailedNodeDown;
    t.out.dispatch_ns = dispatch_ns;
    t.out.retries = p.attempts;
    t.out.steered_from = p.steered_from;
    t.out.node = static_cast<std::int64_t>(i);
    t.node_arrival_ns = p.arrival_ns;
    done.emplace(p.req->id, t);
  };

  auto record_complete = [&](const Pending& p, std::size_t i,
                             std::uint64_t dispatch_ns,
                             std::uint64_t completion_ns,
                             std::int64_t batch_size) {
    Terminal t;
    t.out.id = p.req->id;
    t.out.status =
        p.attempts > 0 ? RequestStatus::Retried : RequestStatus::Completed;
    t.out.dispatch_ns = dispatch_ns;
    t.out.completion_ns = completion_ns;
    t.out.batch_size = batch_size;
    t.out.slo_miss =
        p.req->deadline_ns != 0 && completion_ns > p.req->deadline_ns;
    t.out.retries = p.attempts;
    t.out.steered_from = p.steered_from;
    t.out.node = static_cast<std::int64_t>(i);
    t.node_arrival_ns = p.arrival_ns;
    t.by_hedge = p.is_hedge;
    const auto it = done.find(p.req->id);
    if (it == done.end()) {
      done.emplace(p.req->id, t);
    } else if (it->second.out.completion_ns == 0 ||
               completion_ns < it->second.out.completion_ns) {
      // A real completion overrides a shed/failed terminal; between two
      // completions (primary vs hedge racing) the earlier one wins.
      it->second = t;
    }
  };

  auto inbox_push = [&](std::size_t dest, const Pending& p) {
    auto& box = loops[dest].inbox;
    const auto pos = std::upper_bound(
        box.begin(), box.end(), p, [](const Pending& a, const Pending& b) {
          if (a.arrival_ns != b.arrival_ns) return a.arrival_ns < b.arrival_ns;
          if (a.req->id != b.req->id) return a.req->id < b.req->id;
          return a.is_hedge < b.is_hedge;
        });
    box.insert(pos, p);
  };

  // Least-loaded destination whose circuit is closed, excluding `from`;
  // falls back to the earliest-readmitted circuit when everything else is
  // ejected, and to nothing at all in a single-node fleet.
  auto pick_dest = [&](std::size_t from,
                       std::uint64_t t) -> std::optional<std::size_t> {
    std::optional<std::size_t> best;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == from || status_[j].ejected_until_ns > t) continue;
      if (!best || nodes_[j]->next_free_ns() < nodes_[*best]->next_free_ns()) {
        best = j;
      }
    }
    if (best.has_value()) return best;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == from) continue;
      if (!best ||
          status_[j].ejected_until_ns < status_[*best].ejected_until_ns) {
        best = j;
      }
    }
    return best;
  };

  // One in-flight copy was lost to a crash: burn a client retry if the
  // budget allows (exponential backoff + seeded jitter, ResilientChannel
  // shape), otherwise the request is a terminal FailedNodeDown.
  auto lose_in_flight = [&](Pending p, std::size_t i, std::uint64_t dispatch_ns,
                            std::uint64_t detected_ns) {
    if (p.is_hedge) return;  // silent: the primary copy is elsewhere
    const auto it = done.find(p.req->id);
    if (it != done.end() && it->second.out.completion_ns != 0) return;
    const std::int64_t budget =
        retry_.has_value()
            ? (p.req->retry_budget >= 0
                   ? p.req->retry_budget
                   : static_cast<std::int64_t>(retry_->max_retries))
            : 0;
    if (p.attempts >= budget) {
      record_failed(p, dispatch_ns, i);
      return;
    }
    const std::uint64_t backoff =
        retry_->backoff.timeout_for(static_cast<unsigned>(p.attempts));
    const std::uint64_t jit = retry_->backoff.max_jitter_ns > 0
                                  ? jitter.uniform(retry_->backoff.max_jitter_ns)
                                  : 0;
    ++p.attempts;
    ++p.strikes;
    p.steered_from = static_cast<std::int64_t>(i);
    p.arrival_ns = detected_ns + backoff + jit;
    const auto dest = pick_dest(i, p.arrival_ns);
    inbox_push(dest.value_or(i), p);
    obs::counter<obs::names::kServingFailoverRetries>().add();
  };

  // A crash was detected on node i at `t`: the dispatcher pays the
  // detection timeout, the node takes a strike (the circuit opens at the
  // threshold; probation re-ejects in one), and everything queued is
  // re-steered to the least-loaded live node. Without a destination the
  // queue rides out the outage in place, under a strike budget so an
  // unbounded outage still terminates every request.
  auto handle_failure = [&](std::size_t i, std::uint64_t t) {
    NodeLoop& nl = loops[i];
    const std::uint64_t detected = t + detect_ns;
    nl.not_before_ns = detected;
    {
      obs::ScopedLane lane_scope(static_cast<std::uint16_t>(i), 0);
      obs::SpanTracer::global().record(
          obs::span_id<obs::names::kSpanServingFailoverDetect>(), t,
          detected);
    }
    obs::counter<obs::names::kServingFailoverDetections>().add();
    breaker.strike(status_[i], detected);
    const auto dest = pick_dest(i, detected);
    std::deque<Pending> keep;
    while (!nl.queue.empty()) {
      Pending p = nl.queue.front();
      nl.queue.pop_front();
      if (p.is_hedge) continue;  // hedge copies die with the node, silently
      ++p.strikes;
      if (p.strikes > kStrikeBudget) {
        record_failed(p, t, i);
        continue;
      }
      if (dest.has_value()) {
        p.arrival_ns = detected;
        p.steered_from = static_cast<std::int64_t>(i);
        inbox_push(*dest, p);
        obs::counter<obs::names::kServingFailoverResteered>().add();
      } else {
        keep.push_back(p);
      }
    }
    nl.queue = std::move(keep);
  };

  auto next_candidate_arrival =
      [&](const NodeLoop& nl) -> std::optional<std::uint64_t> {
    std::optional<std::uint64_t> a;
    if (nl.next < nl.stream.size()) a = nl.stream[nl.next].arrival_ns;
    if (!nl.inbox.empty() && (!a.has_value() || nl.inbox.front().arrival_ns < *a)) {
      a = nl.inbox.front().arrival_ns;
    }
    return a;
  };

  // Admission merges the static stream with the inbox in arrival order
  // (stream wins ties — it was scheduled first); arrivals beyond the queue
  // capacity are shed immediately (the client gets an instant reject, not a
  // slow miss).
  auto admit_until = [&](std::size_t i, std::uint64_t t) {
    NodeLoop& nl = loops[i];
    while (true) {
      const bool has_s = nl.next < nl.stream.size();
      const bool has_b = !nl.inbox.empty();
      if (!has_s && !has_b) break;
      const bool take_stream =
          has_s && (!has_b || nl.stream[nl.next].arrival_ns <=
                                  nl.inbox.front().arrival_ns);
      const Pending& cand = take_stream ? nl.stream[nl.next] : nl.inbox.front();
      if (cand.arrival_ns > t) break;
      Pending p = cand;
      if (take_stream) {
        ++nl.next;
      } else {
        nl.inbox.pop_front();
      }
      if (window.queue_capacity > 0 &&
          static_cast<std::int64_t>(nl.queue.size()) >= window.queue_capacity) {
        record_shed(p, RequestStatus::ShedQueueFull, i, p.req->arrival_ns);
      } else {
        if (tracing && p.req->trace_id != 0) {
          // One flow chain per request: the original copy starts it at the
          // client arrival; retried/re-steered/hedged copies add a step at
          // their re-admission, drawing the hop across nodes.
          obs::ScopedLane ql(static_cast<std::uint16_t>(i), kQueueLaneTid);
          const bool original =
              p.attempts == 0 && p.steered_from < 0 && !p.is_hedge;
          obs::SpanTracer::global().record_flow(
              obs::span_id<obs::names::kFlowServingRequest>(), p.req->trace_id,
              original ? p.req->arrival_ns : p.arrival_ns,
              original ? obs::FlowPhase::Start : obs::FlowPhase::Step);
        }
        nl.queue.push_back(p);
      }
    }
  };

  while (true) {
    // Pick the node with the earliest possible next dispatch (ties to the
    // lowest index) — a deterministic global virtual-time order.
    std::optional<std::size_t> pick;
    std::uint64_t pick_key = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeLoop& nl = loops[i];
      std::optional<std::uint64_t> arr;
      if (!nl.queue.empty()) {
        arr = nl.queue.front().arrival_ns;
      } else {
        arr = next_candidate_arrival(nl);
      }
      if (!arr.has_value()) continue;  // node has no work
      const std::uint64_t key =
          std::max({nodes_[i]->next_free_ns(), *arr,
                    status_[i].ejected_until_ns, nl.not_before_ns});
      if (!pick.has_value() || key < pick_key) {
        pick = i;
        pick_key = key;
      }
    }
    if (!pick.has_value()) break;  // all queues, streams and inboxes drained
    const std::size_t i = *pick;
    NodeLoop& nl = loops[i];
    FleetNodeStatus& st = status_[i];

    if (nl.queue.empty()) {
      admit_until(i, *next_candidate_arrival(nl));
      if (nl.queue.empty()) continue;  // everything admitted was shed
    }
    const std::uint64_t head_arrival = nl.queue.front().arrival_ns;
    const std::uint64_t lane_free = std::max(
        {nodes_[i]->next_free_ns(), st.ejected_until_ns, nl.not_before_ns});
    std::uint64_t dispatch_at = std::max(lane_free, head_arrival);
    admit_until(i, dispatch_at);

    // Batch window: the queue head waits up to `wait_ns` for the batch to
    // fill; each admitted arrival pushes the launch to its arrival time, and
    // an unfilled window launches at close.
    if (static_cast<std::int64_t>(nl.queue.size()) < window.max_batch) {
      const std::uint64_t close = std::max(dispatch_at, head_arrival + wait_ns);
      while (static_cast<std::int64_t>(nl.queue.size()) < window.max_batch) {
        const auto cand = next_candidate_arrival(nl);
        if (!cand.has_value() || *cand > close) break;
        admit_until(i, *cand);
        dispatch_at = std::max(dispatch_at, *cand);
      }
      if (static_cast<std::int64_t>(nl.queue.size()) < window.max_batch) {
        dispatch_at = close;
      }
      admit_until(i, dispatch_at);
    }

    // Dispatch probe: does the launch find the node dead?
    if (down_at(i, dispatch_at)) {
      handle_failure(i, dispatch_at);
      continue;
    }
    if (CircuitBreaker::succeed(st)) {
      obs::counter<obs::names::kServingFailoverReadmissions>().add();
    }

    // Assemble the batch: expired requests are shed (a guaranteed SLO miss
    // is not worth a batch slot), and copies whose twin already completed
    // in this batch's past are cancelled (hedge losers).
    std::vector<Pending> batch;
    std::vector<const ml::Tensor*> inputs;
    while (!nl.queue.empty() &&
           static_cast<std::int64_t>(batch.size()) < window.max_batch) {
      Pending p = nl.queue.front();
      nl.queue.pop_front();
      const auto dit = done.find(p.req->id);
      if (dit != done.end() && dit->second.out.completion_ns != 0 &&
          dit->second.out.completion_ns <= dispatch_at) {
        continue;  // the twin won before this launch — cancel the loser
      }
      if (window.shed_expired && p.req->deadline_ns != 0 &&
          p.req->deadline_ns < dispatch_at) {
        record_shed(p, RequestStatus::ShedExpired, i, dispatch_at);
        continue;
      }
      batch.push_back(p);
      inputs.push_back(p.req->input);
    }
    if (batch.empty()) continue;  // the whole window expired or cancelled

    // Causal linkage: pre-allocate each member's service span (the head's
    // becomes the batch's parent context inside serve_batch) and compute the
    // phase decomposition; recorded once the batch really completes. A
    // retried copy's wire span still covers only the wire; the
    // backoff+detection gap between it and this copy's node arrival is left
    // uncovered on purpose (trace_report shows it as explicit slack).
    BatchTraceInfo tinfo;
    std::vector<MemberTrace> members;
    if (tracing) {
      for (const Pending& p : batch) {
        if (p.req->trace_id == 0) continue;
        MemberTrace m;
        m.trace_id = p.req->trace_id;
        m.client_arrival_ns = p.req->arrival_ns;
        m.wire_end_ns = p.req->arrival_ns + p.wire_ns;
        m.node_arrival_ns = p.arrival_ns;
        m.queue_end_ns =
            std::min(dispatch_at, std::max(p.arrival_ns, lane_free));
        m.service_span_id = obs::SpanTracer::global().alloc_span_id();
        members.push_back(m);
        tinfo.member_trace_ids.push_back(p.req->trace_id);
      }
      if (!members.empty()) {
        tinfo.trace_id = members.front().trace_id;
        tinfo.parent_span_id = members.front().service_span_id;
      }
    }

    const std::uint64_t completion = nodes_[i]->serve_batch(
        inputs, dispatch_at, members.empty() ? nullptr : &tinfo);
    obs::counter<obs::names::kServingDispatches>().add();
    tl.record_batch(dispatch_at, static_cast<std::int64_t>(batch.size()));
    tl.record_queue_depth(
        dispatch_at, static_cast<std::int64_t>(nl.queue.size() + batch.size()));

    // Mid-service interruption: a crash window opening before the batch
    // completes loses the whole batch at the crash instant; the dispatcher
    // notices a timeout later, and every member retries or fails.
    std::optional<std::uint64_t> crash;
    if (fault_plane_ != nullptr) {
      crash = fault_plane_->next_crash_after(
          fault_base_id_ + static_cast<std::uint32_t>(i), dispatch_at);
    }
    if (crash.has_value() && *crash < completion) {
      const std::uint64_t detected = *crash + detect_ns;
      for (const Pending& p : batch) {
        lose_in_flight(p, i, dispatch_at, detected);
      }
      handle_failure(i, *crash);
      continue;
    }

    // The batch really completed: record every member's causal tree (hedge
    // twins each get their own root; trace_report keeps the earliest).
    for (const MemberTrace& m : members) {
      record_member_trace(m, static_cast<std::uint16_t>(i), dispatch_at,
                          completion);
    }
    for (const Pending& p : batch) {
      record_complete(p, i, dispatch_at, completion,
                      static_cast<std::int64_t>(batch.size()));
    }

    // Hedging: a queue head that has already waited past the hedge delay
    // gets a duplicate on a second node; the first completion wins and the
    // loser is cancelled at its dispatch.
    if (hedging && !nl.queue.empty()) {
      const Pending& h = nl.queue.front();
      const auto dit = done.find(h.req->id);
      const bool settled =
          dit != done.end() && dit->second.out.completion_ns != 0;
      if (!h.is_hedge && !settled && hedged.count(h.req->id) == 0 &&
          std::max(nodes_[i]->next_free_ns(), h.arrival_ns) >=
              h.arrival_ns + hedge_ns) {
        const auto dest = pick_dest(i, dispatch_at);
        if (dest.has_value()) {
          Pending twin = h;
          twin.is_hedge = true;
          twin.arrival_ns = std::max(dispatch_at, h.arrival_ns);
          twin.steered_from = static_cast<std::int64_t>(i);
          inbox_push(*dest, twin);
          hedged.insert(h.req->id);
          obs::counter<obs::names::kServingFailoverHedges>().add();
        }
      }
    }
  }

  // Finalize: every offered request must hold exactly one terminal outcome.
  std::vector<RequestOutcome> out;
  out.reserve(requests.size());
  for (const Request& r : requests) {
    const auto it = done.find(r.id);
    if (it == done.end()) {
      throw std::logic_error("serving fleet: request " + std::to_string(r.id) +
                             " reached no terminal outcome");
    }
    RequestOutcome o = it->second.out;
    o.arrival_ns = r.arrival_ns;  // client-side arrival: e2e includes the wire
    out.push_back(o);
    switch (o.status) {
      case RequestStatus::Completed:
      case RequestStatus::Retried:
        obs::counter<obs::names::kServingRequestsCompleted>().add();
        if (o.slo_miss) obs::counter<obs::names::kServingSloMisses>().add();
        obs::quantiles<obs::names::kServingQueueWaitQuantileNs>().observe(
            o.dispatch_ns - it->second.node_arrival_ns);
        obs::quantiles<obs::names::kServingE2eQuantileNs>().observe(
            o.completion_ns - o.arrival_ns);
        obs::quantiles<obs::names::kServingRequestQuantileNs>().observe(
            o.completion_ns - o.dispatch_ns);
        if (o.node >= 0) ++status_[static_cast<std::size_t>(o.node)].served;
        if (it->second.by_hedge) {
          obs::counter<obs::names::kServingFailoverHedgeWins>().add();
        }
        tl.record_completed(o.completion_ns, o.completion_ns - o.arrival_ns,
                            o.slo_miss);
        break;
      case RequestStatus::ShedQueueFull:
        obs::counter<obs::names::kServingShedQueueFull>().add();
        tl.record_shed(it->second.shed_ns);
        break;
      case RequestStatus::ShedExpired:
        obs::counter<obs::names::kServingShedExpired>().add();
        tl.record_shed(it->second.shed_ns);
        break;
      case RequestStatus::FailedNodeDown:
        obs::counter<obs::names::kServingFailoverFailedRequests>().add();
        break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.id < b.id;
            });
  if (config_.inference.gpu_offload) {
    for (std::size_t i = 0; i < n; ++i) {
      status_[i].gpu_fallbacks = nodes_[i]->gpu_fallbacks();
      status_[i].gpu_distrusted = nodes_[i]->gpu_distrusted();
    }
  }
  return out;
}

// Health-tracking dispatch loop: the stream is served in dispatch rounds;
// each round hands a quantum of images to every admitted node in parallel.
// A dispatch to a dead node costs the dispatcher a detection timeout and a
// CircuitBreaker strike, the same breaker serve_trace uses. Load is
// re-steered across whatever is admitted, so with k of n nodes down the
// stream still completes — slower, never hung.
double ServingFleet::estimate_resilient(const ml::Tensor& image,
                                        std::int64_t count) {
  const FleetResilienceConfig& cfg = *resilience_;
  if (alive_node_count() == 0) {
    throw runtime::TransientError("serving fleet: no live nodes");
  }

  // Per-image service seconds on one healthy node (all nodes are identical
  // by construction, so one probe calibrates the fleet).
  double per_image_s = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!status_[i].alive) continue;
    const std::int64_t probe = config_.threads * 4;
    per_image_s = nodes_[i]->estimate_stream_seconds(image, probe) /
                  static_cast<double>(probe);
    break;
  }

  // Shipping cost per request, inflated by the expected retransmissions
  // under the configured loss rate: 1/(1-p) transmissions each paying the
  // wire cost, plus p/(1-p) RPC timeouts spent discovering the losses.
  const double wire_s =
      static_cast<double>(config_.model.netshield_ns(image.byte_size()) +
                          config_.model.lan_transfer_ns(image.byte_size())) /
      1e9;
  const double p = cfg.request_drop_prob;
  if (p < 0 || p >= 1) {
    throw std::invalid_argument("fleet: request_drop_prob must be in [0,1)");
  }
  const double per_request_s =
      wire_s / (1 - p) + cfg.rpc_timeout_seconds * p / (1 - p);

  const auto detect_ns =
      static_cast<std::uint64_t>(cfg.detect_timeout_seconds * 1e9);
  const CircuitBreaker breaker(cfg);

  // Each estimate call is its own timeline (virtual time restarts at 0), so
  // deadlines from a previous stream are stale: previously ejected nodes
  // start half-open — probed immediately, and their probation flag still
  // means one strike re-ejects.
  for (auto& s : status_) s.ejected_until_ns = 0;

  std::uint64_t now_ns = 0;
  std::int64_t remaining = count;
  while (remaining > 0) {
    // Admission: closed circuits plus any node whose cool-down expired
    // (half-open probe).
    std::vector<std::size_t> admitted;
    for (std::size_t i = 0; i < status_.size(); ++i) {
      if (status_[i].ejected_until_ns <= now_ns) admitted.push_back(i);
    }
    if (admitted.empty()) {
      // Every circuit is open. Jump to the earliest re-admission; the
      // all-dead case was rejected above, and a live node's probe will
      // succeed then, so this cannot loop forever.
      std::uint64_t earliest = status_[0].ejected_until_ns;
      for (const auto& s : status_) {
        earliest = std::min(earliest, s.ejected_until_ns);
      }
      now_ns = earliest;
      continue;
    }

    // Dispatcher-side failure detection is serial (the dispatcher probes);
    // service on healthy nodes runs in parallel.
    double round_s = 0;
    std::int64_t dispatched = 0;
    for (const std::size_t i : admitted) {
      FleetNodeStatus& s = status_[i];
      if (!s.alive) {
        now_ns += detect_ns;
        breaker.strike(s, now_ns);
        continue;
      }
      (void)CircuitBreaker::succeed(s);
      const std::int64_t quantum =
          std::min<std::int64_t>(cfg.dispatch_batch, remaining - dispatched);
      if (quantum <= 0) break;
      dispatched += quantum;
      s.served += quantum;
      obs::counter<obs::names::kServingDispatches>().add();
      round_s = std::max(
          round_s, static_cast<double>(quantum) * (per_image_s + per_request_s));
    }
    remaining -= dispatched;
    now_ns += static_cast<std::uint64_t>(round_s * 1e9);
  }
  return static_cast<double>(now_ns) / 1e9;
}

}  // namespace stf::core
