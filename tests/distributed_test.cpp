// Tests for the distributed training cluster: convergence parity across
// modes, worker scaling, attestation-gated membership, elasticity and
// fault recovery.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>

#include "crypto/sha256.h"
#include "distributed/training.h"
#include "ml/models.h"

namespace stf::distributed {
namespace {

ClusterConfig small_config(tee::TeeMode mode, unsigned workers,
                           bool shield = true) {
  ClusterConfig cfg;
  cfg.mode = mode;
  cfg.num_workers = workers;
  cfg.network_shield = shield && mode != tee::TeeMode::Native;
  cfg.batch_size = 50;
  cfg.learning_rate = 0.05f;
  // Keep the test fleet small/fast; the bench uses the paper's sizes.
  cfg.worker_binary_bytes = 8ull << 20;
  cfg.framework_scratch_bytes = 2ull << 20;
  return cfg;
}

TEST(TrainingClusterTest, SingleWorkerTrains) {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  TrainingCluster cluster(graph, small_config(tee::TeeMode::Simulation, 1));
  const ml::Dataset data = ml::synthetic_mnist(200, 7);

  ml::Session probe(graph);
  probe.restore_variables(cluster.master_session().variable_snapshot());
  const float initial = probe.run1("loss", data.batch_feeds(0, 50)).at(0);

  const auto stats = cluster.train(data, 1000);
  EXPECT_EQ(stats.rounds, 20u);
  EXPECT_EQ(stats.samples_processed, 1000u);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_LT(stats.final_loss, initial);
}

TEST(TrainingClusterTest, ModesAgreeOnMath) {
  // Accuracy goal (§3.1): protection must not change results. The parameter
  // updates are identical regardless of mode; only virtual time differs.
  const ml::Graph graph = ml::mnist_mlp(16, 5);
  const ml::Dataset data = ml::synthetic_mnist(200, 9);
  TrainingCluster native(graph, small_config(tee::TeeMode::Native, 2, false));
  TrainingCluster hw(graph, small_config(tee::TeeMode::Hardware, 2));
  (void)native.train(data, 400);
  (void)hw.train(data, 400);
  const auto a = native.master_session().variable_snapshot();
  const auto b = hw.master_session().variable_snapshot();
  for (const auto& [name, va] : a) {
    ASSERT_TRUE(b.contains(name));
    const auto& vb = b.at(name);
    for (std::int64_t i = 0; i < va.size(); ++i) {
      ASSERT_FLOAT_EQ(va.at(i), vb.at(i)) << name << "[" << i << "]";
    }
  }
}

TEST(TrainingClusterTest, MoreWorkersFinishFasterEndToEnd) {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  const ml::Dataset data = ml::synthetic_mnist(300, 7);
  double prev_seconds = 0;
  for (unsigned w : {1u, 2u, 3u}) {
    TrainingCluster cluster(graph, small_config(tee::TeeMode::Simulation, w));
    const auto stats = cluster.train(data, 1200);
    if (w > 1) {
      EXPECT_LT(stats.total_seconds, prev_seconds)
          << w << " workers must beat " << (w - 1);
    }
    prev_seconds = stats.total_seconds;
  }
}

TEST(TrainingClusterTest, HardwareSlowerThanSimSlowerThanNative) {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 7);
  auto run = [&](tee::TeeMode mode, bool shield) {
    ClusterConfig cfg = small_config(mode, 1, shield);
    // Paper-scale footprints so HW actually contends with the EPC.
    cfg.worker_binary_bytes = 87'400'000;
    cfg.framework_scratch_bytes = 24ull << 20;
    TrainingCluster cluster(graph, cfg);
    return cluster.train(data, 400).total_seconds;
  };
  const double native = run(tee::TeeMode::Native, false);
  const double sim_plain = run(tee::TeeMode::Simulation, false);
  const double sim_shield = run(tee::TeeMode::Simulation, true);
  const double hw = run(tee::TeeMode::Hardware, true);
  EXPECT_GT(sim_plain, native);
  EXPECT_GT(sim_shield, sim_plain);
  EXPECT_GT(hw, sim_shield);
}

TEST(TrainingClusterTest, HardwareModePaysEpcFaults) {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  const ml::Dataset data = ml::synthetic_mnist(100, 7);
  ClusterConfig cfg = small_config(tee::TeeMode::Hardware, 1);
  cfg.worker_binary_bytes = 87'400'000;
  cfg.framework_scratch_bytes = 24ull << 20;
  TrainingCluster cluster(graph, cfg);
  const auto stats = cluster.train(data, 200);
  EXPECT_GT(stats.epc_faults, 1000u) << "working set must thrash the EPC";
}

TEST(TrainingClusterTest, AttestationGatedMembership) {
  tee::CostModel model;
  tee::ProvisioningAuthority authority;
  tee::Platform cas_platform("cas-host", tee::TeeMode::Hardware, model,
                             authority);
  cas::CasServer cas(cas_platform, authority, crypto::to_bytes("seed"));

  const ml::Graph graph = ml::mnist_mlp(16, 2);
  ClusterConfig cfg = small_config(tee::TeeMode::Hardware, 2);
  TrainingCluster cluster(graph, cfg, &cas, &authority);
  EXPECT_EQ(cluster.attested_workers(), 2u);
  EXPECT_EQ(cas.requests_served(), 2u);

  // Elastic scale-out: the third worker attests automatically.
  cluster.add_worker();
  EXPECT_EQ(cluster.attested_workers(), 3u);
  EXPECT_EQ(cas.requests_served(), 3u);

  const ml::Dataset data = ml::synthetic_mnist(300, 4);
  const auto stats = cluster.train(data, 300);
  EXPECT_EQ(stats.samples_processed, 300u);
}

TEST(TrainingClusterTest, FailedWorkerIsReplacedAndReattested) {
  tee::CostModel model;
  tee::ProvisioningAuthority authority;
  tee::Platform cas_platform("cas-host", tee::TeeMode::Hardware, model,
                             authority);
  cas::CasServer cas(cas_platform, authority, crypto::to_bytes("seed"));

  const ml::Graph graph = ml::mnist_mlp(16, 2);
  TrainingCluster cluster(graph, small_config(tee::TeeMode::Hardware, 2), &cas,
                          &authority);
  cluster.fail_worker(0);
  const ml::Dataset data = ml::synthetic_mnist(200, 4);
  const auto stats = cluster.train(data, 200);  // respawns transparently
  EXPECT_EQ(cluster.worker_count(), 2u);
  EXPECT_EQ(cas.requests_served(), 3u) << "replacement must re-attest";
  EXPECT_EQ(stats.samples_processed, 200u);
}

TEST(TrainingClusterTest, GradientsProtectedOnWire) {
  // Federated-learning use case (§6.2): model updates must not cross the
  // network in plaintext.
  const ml::Graph graph = ml::mnist_mlp(16, 2);
  ClusterConfig cfg = small_config(tee::TeeMode::Simulation, 1, true);
  TrainingCluster cluster(graph, cfg);
  // All traffic in the shielded configuration is SecureChannel records;
  // spot-check by training and confirming no exception + sane loss.
  const ml::Dataset data = ml::synthetic_mnist(100, 4);
  const auto stats = cluster.train(data, 100);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
}

TEST(TrainingClusterTest, RejectsEmptyTrainingRun) {
  const ml::Graph graph = ml::mnist_mlp(16, 2);
  TrainingCluster cluster(graph, small_config(tee::TeeMode::Simulation, 2));
  const ml::Dataset data = ml::synthetic_mnist(100, 4);
  EXPECT_THROW((void)cluster.train(data, 10), std::invalid_argument);
}

// A batch_size of 0, or a dataset smaller than one batch, leaves nothing to
// divide the run into. Both are typed errors raised before any clock moves,
// so a cluster that rejected a run trains exactly like a fresh one.
TEST(TrainingClusterTest, RejectsRunsItCannotDivide) {
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset tiny = ml::synthetic_mnist(40, 7);  // batches are 50
  const ml::Dataset data = ml::synthetic_mnist(200, 7);
  const ClusterConfig sync = small_config(tee::TeeMode::Simulation, 2);
  ClusterConfig faulty = sync;
  faulty.faults.enabled = true;
  ClusterConfig async = sync;
  async.async_updates = true;
  for (const ClusterConfig& cfg : {sync, faulty, async}) {
    ClusterConfig no_batch = cfg;
    no_batch.batch_size = 0;
    EXPECT_THROW(TrainingCluster(graph, no_batch), std::invalid_argument);

    TrainingCluster rejected(graph, cfg), fresh(graph, cfg);
    EXPECT_THROW((void)rejected.train(tiny, 400), std::invalid_argument);
    EXPECT_EQ(rejected.train(data, 400).total_seconds,
              fresh.train(data, 400).total_seconds);
  }
}

// A CAS on its own hardware platform, one per run so runs stay independent.
struct CasHost {
  tee::CostModel model;
  tee::ProvisioningAuthority authority;
  tee::Platform platform{"cas-host", tee::TeeMode::Hardware, model, authority};
  cas::CasServer server{platform, authority, crypto::to_bytes("seed")};
};

// Pins every TrainStats field (floats and doubles by bit pattern) and the
// parameter server's final variables over the cluster's transports and
// membership events: plain, shielded and resilient links, stragglers, a
// respawned worker under EPC pressure, a mid-round crash and asynchronous
// updates. The digest was computed from the cluster with separate
// happy-path and fault-tolerant round loops; a mismatch means a number or
// a charge moved.
TEST(TrainingClusterTest, RunsMatchPinnedDigest) {
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 7);
  crypto::Sha256 digest;
  const auto put = [&](std::uint64_t v) {
    std::uint8_t b[8];
    crypto::store_be64(b, v);
    digest.update(crypto::BytesView(b, 8));
  };
  const auto run = [&](const ClusterConfig& cfg, std::int64_t samples,
                       bool attest,
                       const std::function<void(TrainingCluster&)>& before) {
    CasHost cas;
    TrainingCluster cluster(graph, cfg, attest ? &cas.server : nullptr,
                            attest ? &cas.authority : nullptr);
    if (before) before(cluster);
    const TrainStats s = cluster.train(data, samples);
    put(std::bit_cast<std::uint32_t>(s.final_loss));
    put(std::bit_cast<std::uint64_t>(s.total_seconds));
    put(std::bit_cast<std::uint64_t>(s.seconds_per_round));
    for (const std::uint64_t v :
         {s.rounds, s.samples_processed, s.epc_faults, s.worker_crashes,
          s.degraded_rounds, s.lost_gradients, s.retransmits}) {
      put(v);
    }
    digest.update(
        ml::serialize_tensor_map(cluster.master_session().variable_snapshot()));
  };

  run(small_config(tee::TeeMode::Native, 2, false), 400, false, {});
  run(small_config(tee::TeeMode::Simulation, 2, false), 400, false, {});
  ClusterConfig stragglers = small_config(tee::TeeMode::Simulation, 3);
  stragglers.worker_speed_factors = {1.0, 1.0, 0.2};
  run(stragglers, 600, false, {});
  ClusterConfig hw = small_config(tee::TeeMode::Hardware, 2);
  hw.model.epc_bytes = 9ull << 20;  // binary + scratch + session overflow it
  run(hw, 400, true, [](TrainingCluster& c) { c.fail_worker(1); });
  ClusterConfig weather = small_config(tee::TeeMode::Simulation, 2);
  weather.faults.enabled = true;
  weather.faults.link.drop_prob = 0.2;
  weather.faults.link.duplicate_prob = 0.05;
  weather.faults.link.delay_prob = 0.1;
  run(weather, 600, false, {});
  ClusterConfig crash = small_config(tee::TeeMode::Simulation, 2);
  crash.faults.enabled = true;
  run(crash, 600, true,
      [](TrainingCluster& c) { c.schedule_worker_crash(0, 1); });
  ClusterConfig async = small_config(tee::TeeMode::Simulation, 2);
  async.async_updates = true;
  async.worker_speed_factors = {1.0, 0.1};
  run(async, 400, false, {});

  EXPECT_EQ(crypto::to_hex(digest.finish()),
            "0c6dc7a6947ef15ad0d2a5304dc745d2fe815ff7155a8a8d7f5d9b18a1f822c2");
}

}  // namespace
}  // namespace stf::distributed

// Appended: asynchronous parameter serving and straggler tolerance.
namespace stf::distributed {
namespace {

TEST(AsyncTrainingTest, AsyncModeTrainsLossDown) {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  ClusterConfig cfg = small_config(tee::TeeMode::Simulation, 2);
  cfg.async_updates = true;
  cfg.learning_rate = 0.05f;
  TrainingCluster cluster(graph, cfg);
  const ml::Dataset data = ml::synthetic_mnist(300, 7);

  ml::Session probe(graph);
  probe.restore_variables(cluster.master_session().variable_snapshot());
  const float initial = probe.run1("loss", data.batch_feeds(0, 50)).at(0);
  const auto stats = cluster.train(data, 1500);
  EXPECT_EQ(stats.samples_processed, 1500u);
  EXPECT_LT(stats.final_loss, initial);
}

TEST(AsyncTrainingTest, StragglerHurtsSyncMoreThanAsync) {
  const ml::Graph graph = ml::mnist_mlp(32, 3);
  const ml::Dataset data = ml::synthetic_mnist(300, 7);
  auto run = [&](bool async) {
    ClusterConfig cfg = small_config(tee::TeeMode::Simulation, 3);
    cfg.async_updates = async;
    cfg.worker_speed_factors = {1.0, 1.0, 0.2};  // one worker 5x slower
    TrainingCluster cluster(graph, cfg);
    return cluster.train(data, 1500).total_seconds;
  };
  const double sync_seconds = run(false);
  const double async_seconds = run(true);
  EXPECT_LT(async_seconds, sync_seconds * 0.7)
      << "async must not be gated by the straggler (sync=" << sync_seconds
      << "s async=" << async_seconds << "s)";
}

TEST(AsyncTrainingTest, FastWorkersContributeMoreSteps) {
  // With a straggler, the async server still processes every step; the
  // elapsed time approaches the fast workers' aggregate rate. Native
  // workers charge their own scaled cost model too, so a Native straggler
  // slows the fleet, synchronous rounds most of all.
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 7);
  const std::pair<tee::TeeMode, bool> runs[] = {
      {tee::TeeMode::Simulation, true},
      {tee::TeeMode::Native, true},
      {tee::TeeMode::Native, false},
  };
  for (const auto& [mode, async] : runs) {
    ClusterConfig uniform = small_config(mode, 2);
    uniform.async_updates = async;
    ClusterConfig skewed = uniform;
    skewed.worker_speed_factors = {1.0, 0.1};
    TrainingCluster cu(graph, uniform), cs(graph, skewed);
    const double tu = cu.train(data, 1000).total_seconds;
    const double ts = cs.train(data, 1000).total_seconds;
    SCOPED_TRACE(std::string(tee::to_string(mode)) +
                 (async ? " async" : " sync"));
    EXPECT_GT(ts, tu) << "the straggler must slow the skewed fleet";
    if (async) {
      // Far better than the straggler alone (10x) would allow.
      EXPECT_LT(ts, tu * 4);
    }
  }
}

TEST(AsyncTrainingTest, RejectsBadSpeedFactor) {
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  ClusterConfig cfg = small_config(tee::TeeMode::Simulation, 2);
  cfg.worker_speed_factors = {1.0, 0.0};
  EXPECT_THROW(TrainingCluster(graph, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace stf::distributed
