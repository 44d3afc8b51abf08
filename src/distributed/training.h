// Distributed training: TensorFlow-style parameter server + workers (§3.3.4).
//
// Synchronous data-parallel SGD: every round the parameter server pushes the
// current variables to each worker over the network shield, each worker
// computes gradients on its own batch inside its enclave, sends them back,
// and the server applies the averaged update. Worker enclaves carry the full
// TensorFlow image (87.4 MB in the paper) — which is why Hardware mode pays
// for EPC paging on every step (Figure 8's 14x) — and new workers join only
// after CAS attestation (elasticity, challenge 4).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cas/cas_server.h"
#include "faults/fault_plane.h"
#include "ml/dataset.h"
#include "ml/graph.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "net/network.h"
#include "runtime/resilient_channel.h"
#include "runtime/secure_channel.h"
#include "tee/platform.h"

namespace stf::distributed {

/// Fault injection + resilient RPC for the cluster's data plane. Every run
/// takes the same synchronous round; this only picks what carries it. When
/// disabled, each PS<->worker link is the plain connection or the network
/// shield, as configured (all figure benches stay byte-identical). When
/// enabled, every link gets the configured weather from a seeded
/// FaultPlane, parameter/gradient exchanges run over ResilientChannel
/// (retry/backoff/dedup), a worker that misses a round times out at the
/// parameter server and the round completes with the surviving gradients,
/// and crashed workers are respawned and re-attested through CAS before
/// rejoining (the paper's elasticity story, challenge 4).
struct ClusterFaultConfig {
  bool enabled = false;
  /// Weather on each PS<->worker link (the control plane — CAS attestation
  /// and channel handshakes — is modeled reliable).
  faults::LinkFaultSpec link;
  runtime::RetryPolicy retry;
  /// How long the PS waits on a missing gradient before completing the
  /// round without it.
  std::uint64_t round_timeout_ns = 50'000'000;
  std::uint64_t seed = 7;
};

struct ClusterConfig {
  unsigned num_workers = 1;
  tee::TeeMode mode = tee::TeeMode::Hardware;
  bool network_shield = true;
  /// Asynchronous parameter-server updates: each worker pulls the latest
  /// parameters and the server applies its gradient on arrival, no round
  /// barrier. Tolerates stragglers at the cost of gradient staleness.
  bool async_updates = false;
  /// Per-worker relative compute speed (1.0 = nominal); shorter than the
  /// fleet means trailing workers run at nominal speed. Models stragglers.
  std::vector<double> worker_speed_factors;
  tee::CostModel model;
  std::int64_t batch_size = 100;     ///< per worker (>= 1), as in §5.4
  float learning_rate = 5e-4f;
  /// EPC footprint of the full-TensorFlow worker image (87.4 MB, §5.3 #4).
  std::uint64_t worker_binary_bytes = 87'400'000;
  /// Framework heap/temporaries touched every step (allocator arenas,
  /// interpreter state); pushes the HW working set past the EPC.
  std::uint64_t framework_scratch_bytes = 24ull << 20;
  std::uint64_t seed = 42;
  ClusterFaultConfig faults;
};

struct TrainStats {
  float final_loss = 0;
  double total_seconds = 0;          ///< virtual wall time of the whole run
  double seconds_per_round = 0;
  std::uint64_t rounds = 0;
  std::uint64_t samples_processed = 0;
  std::uint64_t epc_faults = 0;      ///< summed over workers (HW mode)
  // Resilience telemetry (all zero without faults; deterministic for a
  // fixed fault seed).
  std::uint64_t worker_crashes = 0;   ///< scheduled mid-round crash-stops
  std::uint64_t degraded_rounds = 0;  ///< rounds finished with gradients missing
  std::uint64_t lost_gradients = 0;   ///< worker-rounds that never reached the PS
  std::uint64_t retransmits = 0;      ///< resilient-RPC retransmissions
};

class TrainingCluster {
 public:
  /// If `cas` is non-null, every worker attests against policy
  /// `session_name` before joining; unattested workers are refused.
  TrainingCluster(const ml::Graph& graph, ClusterConfig config,
                  cas::CasServer* cas = nullptr,
                  tee::ProvisioningAuthority* authority = nullptr,
                  std::string session_name = "training");

  /// Runs data-parallel SGD over `total_samples` of `data` — synchronous
  /// rounds by default, asynchronous updates if the config says so. Throws
  /// std::invalid_argument, before any clock moves, if `data` holds less
  /// than one batch or `total_samples` less than one round (one batch
  /// when asynchronous).
  TrainStats train(const ml::Dataset& data, std::int64_t total_samples);

  /// Elastic scale-out: adds (and, with CAS, attests) one more worker.
  void add_worker();

  /// Fault injection: kills worker `index`; the next train() call respawns
  /// and re-attests a replacement automatically.
  void fail_worker(std::size_t index);

  /// Schedules worker `index` to crash-stop during synchronous round
  /// `round` (0-based) of the next train() run — after it received the
  /// round's parameters, before its gradient reaches the PS. The round
  /// times out at the server and completes with the surviving gradients;
  /// the replacement re-attests through CAS before the next round. Only
  /// meaningful with config.faults.enabled (throws std::logic_error
  /// otherwise: crashing a node takes the fault plane).
  void schedule_worker_crash(std::size_t index, std::uint64_t round);

  /// Fault-plane telemetry (zeroed stats when faults are disabled).
  [[nodiscard]] const faults::FaultStats& fault_stats() const;

  [[nodiscard]] ml::Session& master_session() { return *ps_.session; }
  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] unsigned attested_workers() const { return attested_; }

 private:
  /// One machine of the cluster, built the same way for the parameter
  /// server and every worker: platform, network node, memory environment
  /// (a launched enclave in SIM/HW mode, plain DRAM in Native mode, both
  /// on the node's own cost model) and the session that charges it.
  struct Node {
    std::unique_ptr<tee::Platform> platform;
    std::unique_ptr<tee::Enclave> enclave;  // SIM/HW modes
    std::unique_ptr<tee::MemoryEnv> env;
    std::unique_ptr<ml::Session> session;
    net::NodeId id = 0;

    [[nodiscard]] tee::SimClock& clock() const {
      return platform->base_clock();
    }
  };

  /// A worker's one connection to the parameter server, over the transport
  /// spawn_worker() picked: a plain connection, the network shield, or
  /// resilient RPC over the shield. Both ends live here because the
  /// single-threaded simulation carries each message in line.
  class Link {
   public:
    Link() = default;
    template <typename End>
    Link(End worker_end, End ps_end)
        : ends_(Ends<End>{std::move(worker_end), std::move(ps_end)}) {}

    /// Carries one message and returns it as received; each side's work
    /// lands on its own clock. Throws runtime::TransientError if the
    /// message is lost.
    crypto::Bytes to_worker(crypto::BytesView payload);
    crypto::Bytes to_ps(crypto::BytesView payload);
    /// Resilient-RPC retransmissions of both ends (0 on other transports).
    [[nodiscard]] std::uint64_t retransmits() const;

   private:
    template <typename End>
    struct Ends {
      End worker, ps;
    };
    std::variant<Ends<net::Connection>, Ends<runtime::SecureChannel>,
                 Ends<runtime::ResilientChannel>>
        ends_;
  };

  struct WorkerState {
    Node node;
    tee::RegionId scratch = 0;  // framework temporaries (SIM/HW modes)
    Link link;
    bool alive = true;
  };

  Node make_node(const std::string& name, const tee::CostModel& model);
  void spawn_worker();
  void ensure_workers_alive();
  std::uint64_t barrier();
  std::map<std::string, ml::Tensor> step(WorkerState& w,
                                         const ml::Dataset& data,
                                         std::int64_t& next_batch);
  TrainStats train_async(const ml::Dataset& data, std::int64_t steps);

  ml::Graph graph_;
  ClusterConfig config_;
  cas::CasServer* cas_;
  tee::ProvisioningAuthority* authority_;
  std::string session_name_;
  crypto::HmacDrbg rng_;

  net::SimNetwork net_;
  Node ps_;
  std::vector<WorkerState> workers_;
  unsigned attested_ = 0;
  unsigned worker_serial_ = 0;

  // Resilience plumbing (engaged only when config_.faults.enabled).
  std::unique_ptr<faults::FaultPlane> fault_plane_;
  std::set<std::pair<std::uint64_t, std::size_t>> crash_schedule_;  // round, i
  std::uint64_t retransmits_carried_ = 0;  ///< telemetry of dead workers
};

}  // namespace stf::distributed
