#include "distributed/training.h"

#include <algorithm>
#include <stdexcept>

#include "cas/attest_client.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "runtime/shielded_link.h"

namespace stf::distributed {
namespace {

// How long the PS waits on a missing gradient before completing the round
// without it.
constexpr std::uint64_t kRoundTimeoutNs = 50'000'000;

// Every node runs the same full-TensorFlow image. The instance name is not
// measured, so one CAS policy covers the fleet.
tee::EnclaveImage worker_image(const ClusterConfig& cfg, std::string name) {
  return tee::EnclaveImage{
      .name = std::move(name),
      .content = crypto::to_bytes("stf-full-tensorflow-worker-v1"),
      .binary_bytes = cfg.worker_binary_bytes,
  };
}

// One message over a plain or shielded link: the sender pays for the send,
// the receiver waits for the arrival. A message that never arrives is the
// same TransientError the resilient transport raises.
template <typename End>
crypto::Bytes carry(End& from, End& to, crypto::BytesView payload) {
  from.send(payload);
  std::optional<crypto::Bytes> got = to.recv();
  if (!got.has_value()) {
    throw runtime::TransientError("training link: message lost");
  }
  return std::move(*got);
}

crypto::Bytes carry(runtime::ResilientChannel& from,
                    runtime::ResilientChannel& to, crypto::BytesView payload) {
  return runtime::ResilientChannel::deliver(from, to, payload);
}

}  // namespace

crypto::Bytes TrainingCluster::Link::to_worker(crypto::BytesView payload) {
  return std::visit([&](auto& e) { return carry(e.ps, e.worker, payload); },
                    ends_);
}

crypto::Bytes TrainingCluster::Link::to_ps(crypto::BytesView payload) {
  return std::visit([&](auto& e) { return carry(e.worker, e.ps, payload); },
                    ends_);
}

std::uint64_t TrainingCluster::Link::retransmits() const {
  const auto* r = std::get_if<Ends<runtime::ResilientChannel>>(&ends_);
  return r == nullptr ? 0 : r->worker.retransmits() + r->ps.retransmits();
}

TrainingCluster::TrainingCluster(const ml::Graph& graph, ClusterConfig config,
                                 cas::CasServer* cas,
                                 tee::ProvisioningAuthority* authority,
                                 std::string session_name)
    : graph_(graph),
      config_(std::move(config)),
      cas_(cas),
      authority_(authority),
      session_name_(std::move(session_name)),
      rng_(crypto::to_bytes("cluster-" + std::to_string(config_.seed))) {
  if (config_.batch_size < 1) {
    throw std::invalid_argument("cluster: batch_size must be at least 1");
  }
  if (config_.faults.enabled) {
    if (!config_.network_shield) {
      throw std::invalid_argument(
          "cluster faults: resilient RPC rides on the network shield");
    }
    if (config_.async_updates) {
      throw std::invalid_argument(
          "cluster faults: only synchronous rounds have the round-timeout "
          "semantics fault injection needs");
    }
    // Attached before any link exists; per-link weather is configured in
    // spawn_worker() *after* the shielded handshake and CAS attestation, so
    // the control plane stays reliable and only the data plane gets weather.
    fault_plane_ = std::make_unique<faults::FaultPlane>(config_.faults.seed);
    fault_plane_->attach(net_);
  }
  ps_ = make_node("ps", config_.model);

  // Register an attestation policy so spawned workers can join.
  if (cas_ != nullptr) {
    cas::EnclavePolicy policy;
    policy.expected_mrenclave = worker_image(config_, "").measure();
    policy.secrets = {{"data-key", rng_.generate(32)}};
    cas_->register_policy(session_name_, policy);
  }

  for (unsigned i = 0; i < config_.num_workers; ++i) spawn_worker();
}

TrainingCluster::Node TrainingCluster::make_node(const std::string& name,
                                                 const tee::CostModel& model) {
  Node n;
  if (authority_ != nullptr) {
    n.platform = std::make_unique<tee::Platform>(name, config_.mode, model,
                                                 *authority_);
  } else {
    n.platform = std::make_unique<tee::Platform>(name, config_.mode, model);
  }
  n.id = net_.add_node(name, n.clock());
  if (config_.mode == tee::TeeMode::Native) {
    n.env = std::make_unique<tee::NativeEnv>(n.platform->model(), n.clock());
  } else {
    auto enclave = n.platform->launch_enclave(worker_image(config_, name));
    enclave->set_runtime_overhead(model.runtime_overhead_training);
    n.enclave = enclave.get();
    n.env = std::move(enclave);
  }
  n.session = std::make_unique<ml::Session>(graph_, n.env.get());
  return n;
}

void TrainingCluster::spawn_worker() {
  const unsigned serial = worker_serial_++;
  tee::CostModel model = config_.model;
  if (serial < config_.worker_speed_factors.size()) {
    const double factor = config_.worker_speed_factors[serial];
    if (factor <= 0) {
      throw std::invalid_argument("worker speed factor must be positive");
    }
    model.flops_per_second *= factor;  // straggler simulation
  }
  const std::string name = "worker-" + std::to_string(serial);
  WorkerState w;
  w.node = make_node(name, model);
  if (w.node.enclave) {
    // Attestation gate: the worker only joins after CAS releases secrets.
    if (cas_ != nullptr) {
      const auto outcome = cas::attest_with_cas(
          *cas_, *w.node.platform, *w.node.enclave, net_, w.node.id,
          net_.add_node(name + "-cas-link", cas_->platform().base_clock()),
          rng_, session_name_);
      if (!outcome.ok) {
        throw std::runtime_error("worker attestation failed: " +
                                 outcome.error);
      }
      ++attested_;
    }
    // Framework temporaries region (allocator arenas etc.).
    w.scratch = w.node.enclave->alloc("framework-scratch",
                                      config_.framework_scratch_bytes);
  }

  // The link to the parameter server, over exactly one transport.
  if (!config_.network_shield) {
    auto [worker_end, ps_end] = net_.connect(w.node.id, ps_.id);
    w.link = Link(worker_end, ps_end);
  } else {
    auto shield = runtime::ShieldedLink::establish(
        net_, w.node.id, ps_.id, config_.model, w.node.clock(), ps_.clock(),
        rng_);
    if (!config_.faults.enabled) {
      w.link = Link(std::move(shield.a_to_b), std::move(shield.b_to_a));
    } else {
      // Resilient framing on both ends, then weather on this link only
      // (the handshake above ran on clear skies).
      runtime::ResilientChannel worker_end(
          std::move(shield.a_to_b), w.node.clock(),
          config_.faults.seed ^ (2ull * serial + 1));
      runtime::ResilientChannel ps_end(
          std::move(shield.b_to_a), ps_.clock(),
          config_.faults.seed ^ (2ull * serial + 2));
      w.link = Link(std::move(worker_end), std::move(ps_end));
      fault_plane_->set_link_faults(w.node.id, ps_.id, config_.faults.link);
    }
  }
  workers_.push_back(std::move(w));
}

void TrainingCluster::add_worker() { spawn_worker(); }

void TrainingCluster::fail_worker(std::size_t index) {
  workers_.at(index).alive = false;
}

void TrainingCluster::schedule_worker_crash(std::size_t index,
                                            std::uint64_t round) {
  if (!config_.faults.enabled) {
    throw std::logic_error(
        "schedule_worker_crash: enable config.faults first");
  }
  crash_schedule_.emplace(round, index);
}

const faults::FaultStats& TrainingCluster::fault_stats() const {
  static const faults::FaultStats kNone;
  return fault_plane_ ? fault_plane_->stats() : kNone;
}

void TrainingCluster::ensure_workers_alive() {
  // Rebuild by move-construction: move-assigning over a live WorkerState
  // would destroy its platform before the enclave that references it.
  const auto dead = std::count_if(workers_.begin(), workers_.end(),
                                  [](const WorkerState& w) { return !w.alive; });
  if (dead == 0) return;
  std::vector<WorkerState> alive;
  alive.reserve(workers_.size());
  for (auto& w : workers_) {
    if (w.alive) alive.push_back(std::move(w));
  }
  workers_ = std::move(alive);
  for (std::int64_t i = 0; i < dead; ++i) spawn_worker();
}

// Aligns the PS and every live worker to the latest of their clocks.
std::uint64_t TrainingCluster::barrier() {
  std::uint64_t t = ps_.clock().now_ns();
  for (const auto& w : workers_) {
    if (w.alive) t = std::max(t, w.node.clock().now_ns());
  }
  ps_.clock().advance_to(t);
  for (auto& w : workers_) {
    if (w.alive) w.node.clock().advance_to(t);
  }
  return t;
}

// One training step of `w` on the next batch. The framework's code, static
// data and temporaries all get touched first: this is what fights the EPC
// in HW mode.
std::map<std::string, ml::Tensor> TrainingCluster::step(
    WorkerState& w, const ml::Dataset& data, std::int64_t& next_batch) {
  if (w.node.enclave) {
    w.node.enclave->touch_binary();
    w.node.enclave->access(w.scratch, 0, config_.framework_scratch_bytes,
                           true);
  }
  const auto feeds = data.batch_feeds(next_batch, config_.batch_size);
  next_batch = (next_batch + 1) % (data.size() / config_.batch_size);
  return w.node.session->gradients("loss", feeds);
}

// Synchronous rounds. Every exchange rides the worker's link, so the same
// loop runs over plain, shielded and resilient transports: a worker whose
// parameters or gradient the link cannot deliver sits the round out, a
// missing gradient costs the PS one round timeout instead of a hang, the
// update averages over whatever arrived, and crashed workers are respawned
// — re-attesting through CAS — before the next round. Everything downstream
// of the fixed seeds is bit-reproducible.
TrainStats TrainingCluster::train(const ml::Dataset& data,
                                  std::int64_t total_samples) {
  if (workers_.empty()) throw std::logic_error("no workers");
  if (data.size() < config_.batch_size) {
    throw std::invalid_argument("train: the dataset holds less than a batch");
  }
  if (config_.async_updates) {
    if (total_samples < config_.batch_size) {
      throw std::invalid_argument("train: need at least one full batch");
    }
    ensure_workers_alive();
    return train_async(data, total_samples / config_.batch_size);
  }
  const std::int64_t per_round =
      config_.batch_size * static_cast<std::int64_t>(workers_.size());
  const std::int64_t rounds = total_samples / per_round;  // whole rounds only
  if (total_samples < per_round) {
    throw std::invalid_argument("train: need at least one full round");
  }
  ensure_workers_alive();

  TrainStats stats;
  const std::uint64_t start_ns = barrier();
  tee::SimClock& ps_clock = ps_.clock();
  std::int64_t next_batch = 0;
  float loss_sum = 0;
  std::uint64_t contributions = 0;

  for (std::int64_t round = 0; round < rounds; ++round) {
    // Per-round cost attribution on the PS clock: category deltas plus the
    // warp term (shard-parallel set_ns rewinds) sum exactly to the round
    // span the tracer records below.
    obs::ScopedAttribution profile(ps_clock, obs::names::kSpanTrainRound);
    const std::uint64_t round_start = ps_clock.now_ns();
    const auto params =
        ml::serialize_tensor_map(ps_.session->variable_snapshot());

    // 1. The server pushes the parameters to every worker. TensorFlow's
    //    parameter server shards push in parallel, so the PS clock advances
    //    to the slowest push, not the sum. A push the link cannot deliver
    //    sidelines that worker for the round.
    std::vector<bool> has_params(workers_.size(), false);
    const std::uint64_t push_start = ps_clock.now_ns();
    std::uint64_t slowest = push_start;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      ps_clock.set_ns(push_start);  // each shard starts concurrently
      try {
        const auto got = workers_[i].link.to_worker(params);
        workers_[i].node.session->restore_variables(
            ml::deserialize_tensor_map(got));
        has_params[i] = true;
      } catch (const runtime::TransientError&) {
        // Undeliverable for the whole retry budget; sit this round out.
      }
      slowest = std::max(slowest, ps_clock.now_ns());
    }
    ps_clock.set_ns(slowest);

    // 2. Each worker steps on its own batch and sends its gradient straight
    //    back. A scheduled crash strikes in between (parameters received,
    //    gradient never sent): the worst case for the server.
    std::map<std::string, ml::Tensor> sum;
    std::uint64_t arrived = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerState& w = workers_[i];
      if (!has_params[i]) continue;
      // Worker-side spans/profiles land on the worker's own trace row.
      obs::ScopedLane lane_scope(static_cast<std::uint16_t>(w.node.id), 0);
      const auto grads = step(w, data, next_batch);
      if (crash_schedule_.contains({static_cast<std::uint64_t>(round), i})) {
        // Crash-stop: the gradient dies with the worker. Its link
        // telemetry is carried so stats.retransmits stays complete.
        retransmits_carried_ += w.link.retransmits();
        w.alive = false;
        fault_plane_->crash_now(w.node.id);
        ++stats.worker_crashes;
        obs::counter<obs::names::kTrainWorkerCrashes>().add();
        continue;
      }
      try {
        auto got = ml::deserialize_tensor_map(
            w.link.to_ps(ml::serialize_tensor_map(grads)));
        loss_sum += w.node.session->last_loss();
        ++contributions;
        ++arrived;
        stats.samples_processed += config_.batch_size;
        obs::counter<obs::names::kTrainSamplesProcessed>().add(
            static_cast<std::uint64_t>(config_.batch_size));
        for (auto& [name, grad] : got) {
          auto it = sum.find(name);
          if (it == sum.end()) {
            sum.emplace(name, std::move(grad));
          } else {
            for (std::int64_t j = 0; j < grad.size(); ++j) {
              it->second.at(j) += grad.at(j);
            }
          }
        }
      } catch (const runtime::TransientError&) {
        // Gradient lost past the retry budget; the PS will time it out.
      }
    }

    // 3. Anything missing costs the PS exactly one round timeout; the
    //    update is the average over the gradients that arrived.
    const std::uint64_t expected = workers_.size();
    if (arrived < expected) {
      {
        // Waiting out the round timeout is fault-recovery time, not compute.
        obs::ScopedCategory attribution(obs::Category::kFaultDelay);
        ps_clock.advance(kRoundTimeoutNs);
      }
      ++stats.degraded_rounds;
      obs::counter<obs::names::kTrainDegradedRounds>().add();
      stats.lost_gradients += expected - arrived;
      obs::counter<obs::names::kTrainLostGradients>().add(expected - arrived);
    }
    if (arrived > 0) {
      const float scale = 1.0f / static_cast<float>(arrived);
      for (auto& [name, grad] : sum) {
        for (std::int64_t j = 0; j < grad.size(); ++j) grad.at(j) *= scale;
      }
      ps_.session->apply_gradients(sum, config_.learning_rate);
    }

    barrier();  // synchronous SGD: survivors wait for the round to finish
    // 4. Rejoin: replacements spawn and re-attest through CAS before the
    //    next round's parameters are released to them.
    ensure_workers_alive();
    stats.rounds += 1;
    obs::counter<obs::names::kTrainRounds>().add();
    const std::uint64_t round_end = ps_clock.now_ns();
    const std::uint64_t round_ns = round_end - round_start;
    obs::histogram<obs::names::kTrainRoundNs>().observe(round_ns);
    obs::quantiles<obs::names::kTrainRoundQuantileNs>().observe(round_ns);
    obs::SpanTracer::global().record(
        obs::span_id<obs::names::kSpanTrainRound>(), round_start, round_end);
  }

  const std::uint64_t end_ns = barrier();
  stats.total_seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  stats.seconds_per_round =
      stats.total_seconds / static_cast<double>(rounds);
  stats.final_loss = contributions > 0
                         ? loss_sum / static_cast<float>(contributions)
                         : 0.0f;
  stats.retransmits = retransmits_carried_;
  for (const auto& w : workers_) {
    stats.epc_faults += w.node.platform->epc().stats().faults;
    stats.retransmits += w.link.retransmits();
  }
  return stats;
}

// Asynchronous parameter serving: a small discrete-event loop. The worker
// whose virtual clock is furthest behind takes the next step: it pulls the
// *current* parameters, computes a gradient on its own batch, and the server
// applies it on arrival. No barriers — a straggler only slows its own
// updates, not the fleet (at the cost of applying stale gradients).
TrainStats TrainingCluster::train_async(const ml::Dataset& data,
                                        std::int64_t steps) {
  TrainStats stats;
  const std::uint64_t start_ns = barrier();
  tee::SimClock& ps_clock = ps_.clock();
  float loss_sum = 0;
  std::int64_t next_batch = 0;
  // The PS is sharded: channel crypto and parameter serving run on
  // per-worker shard threads (concurrent); only the variable update itself
  // is a serial pipeline.
  std::uint64_t apply_pipeline_ns = ps_clock.now_ns();
  for (std::int64_t n = 0; n < steps; ++n) {
    // Earliest-clock worker takes the next step.
    WorkerState& w = *std::min_element(
        workers_.begin(), workers_.end(), [](const auto& a, const auto& b) {
          return a.node.clock().now_ns() < b.node.clock().now_ns();
        });

    // Pull: this worker's PS shard serves the *currently applied* parameters
    // the moment the request arrives — asynchronous serving never waits for
    // outstanding gradients (that is the whole point; the worker accepts
    // staleness).
    ps_clock.set_ns(w.node.clock().now_ns());
    const auto params =
        ml::serialize_tensor_map(ps_.session->variable_snapshot());
    w.node.session->restore_variables(
        ml::deserialize_tensor_map(w.link.to_worker(params)));
    const auto grads = step(w, data, next_batch);
    loss_sum += w.node.session->last_loss();

    // Gradient reception + record crypto happen on this worker's shard
    // thread: rewind the PS clock so the work is charged from the arrival
    // time, concurrently with other shards.
    ps_clock.set_ns(0);
    const auto got = w.link.to_ps(ml::serialize_tensor_map(grads));
    // Only the variable update itself serializes on the apply pipeline.
    ps_clock.advance_to(apply_pipeline_ns);
    ps_.session->apply_gradients(ml::deserialize_tensor_map(got),
                                 config_.learning_rate);
    apply_pipeline_ns = ps_clock.now_ns();
    stats.samples_processed += config_.batch_size;
  }

  std::uint64_t end_ns = std::max(ps_clock.now_ns(), apply_pipeline_ns);
  for (const auto& w : workers_) {
    end_ns = std::max(end_ns, w.node.clock().now_ns());
  }
  stats.rounds = static_cast<std::uint64_t>(steps);
  stats.total_seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  stats.seconds_per_round = stats.total_seconds / static_cast<double>(steps);
  stats.final_loss = loss_sum / static_cast<float>(steps);
  for (const auto& w : workers_) {
    stats.epc_faults += w.node.platform->epc().stats().faults;
  }
  return stats;
}

}  // namespace stf::distributed
