// Chaos suite: deterministic fault injection (stf::faults) against the
// resilience layer — retry/backoff RPC, circuit-breaker fleet degradation,
// and training-cluster crash/rejoin. Everything here is driven by seeded
// DRBG weather in virtual time, so each scenario is bit-reproducible: the
// determinism tests pin the exact retry schedules and totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "cas/cas_server.h"
#include "core/serving.h"
#include "crypto/bytes.h"
#include "distributed/training.h"
#include "faults/fault_plane.h"
#include "ml/models.h"
#include "net/network.h"
#include "runtime/errors.h"
#include "runtime/resilient_channel.h"
#include "runtime/shielded_link.h"
#include "runtime/untrusted_fs.h"
#include "storage/kv_store.h"

namespace stf {
namespace {

// ---------------------------------------------------------------------------
// Resilient channel under link weather.

/// Two nodes, a shielded link with weather on it, resilient endpoints.
struct ChannelRig {
  tee::SimClock clock_a, clock_b;
  net::SimNetwork net;
  net::NodeId node_a = 0, node_b = 0;
  tee::CostModel model;  // the channels point at it; must outlive them
  faults::FaultPlane plane;
  runtime::ResilientChannel a, b;

  ChannelRig(std::uint64_t fault_seed, faults::LinkFaultSpec spec)
      : plane(fault_seed) {
    node_a = net.add_node("a", clock_a);
    node_b = net.add_node("b", clock_b);
    crypto::HmacDrbg rng(crypto::to_bytes("channel-rig"));
    auto link = runtime::ShieldedLink::establish(net, node_a, node_b, model,
                                                 clock_a, clock_b, rng);
    plane.attach(net);
    plane.set_link_faults(node_a, node_b, spec);
    a = runtime::ResilientChannel(std::move(link.a_to_b), clock_a, 11);
    b = runtime::ResilientChannel(std::move(link.b_to_a), clock_b, 22);
  }
};

faults::LinkFaultSpec rough_weather() {
  faults::LinkFaultSpec spec;
  spec.drop_prob = 0.25;
  spec.duplicate_prob = 0.10;
  spec.delay_prob = 0.10;
  spec.delay_ns = 3'000'000;
  return spec;
}

TEST(ResilientChannelTest, AllPayloadsSurviveDropDuplicateDelay) {
  ChannelRig rig(42, rough_weather());
  for (int i = 0; i < 20; ++i) {
    const auto payload = crypto::to_bytes("message-" + std::to_string(i));
    const auto got = runtime::ResilientChannel::deliver(rig.a, rig.b, payload);
    EXPECT_EQ(got, payload) << "message " << i;
  }
  EXPECT_EQ(rig.b.delivered(), 20u);
  // The weather actually bit: frames were dropped and retransmitted.
  EXPECT_GT(rig.plane.stats().dropped, 0u);
  EXPECT_GT(rig.a.retransmits(), 0u);
  // No stray deliveries remain queued (duplicates were absorbed, not
  // surfaced twice).
  EXPECT_EQ(rig.b.poll(), std::nullopt);
}

TEST(ResilientChannelTest, RetryScheduleIsBitReproducible) {
  auto run = [] {
    ChannelRig rig(7, rough_weather());
    for (int i = 0; i < 16; ++i) {
      (void)runtime::ResilientChannel::deliver(
          rig.a, rig.b, crypto::to_bytes("m" + std::to_string(i)));
    }
    return std::tuple{rig.a.backoff_history(), rig.a.retransmits(),
                      rig.b.duplicates_dropped(), rig.plane.stats().dropped,
                      rig.clock_a.now_ns(), rig.clock_b.now_ns()};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second) << "fixed fault seed must replay bit-for-bit";
  EXPECT_FALSE(std::get<0>(first).empty());
}

TEST(ResilientChannelTest, GivesUpAfterBoundedRetries) {
  faults::LinkFaultSpec black_hole;
  black_hole.drop_prob = 1.0;  // nothing ever gets through
  ChannelRig rig(3, black_hole);
  EXPECT_THROW((void)runtime::ResilientChannel::deliver(
                   rig.a, rig.b, crypto::to_bytes("doomed")),
               runtime::TransientError);
  EXPECT_EQ(rig.a.retransmits(), runtime::kMaxAttempts - 1);  // attempts 2..12
  EXPECT_FALSE(rig.a.has_outstanding()) << "abandoned, not stuck";
}

TEST(ResilientChannelTest, AdversaryReplayIsAbsorbedNotFatal) {
  // A Dolev-Yao replay duplicates the wire record. In gap-tolerant mode the
  // record layer silently discards the stale copy (and counts it) — the
  // application still sees the payload exactly once.
  tee::SimClock clock_a, clock_b;
  net::SimNetwork net;
  const auto na = net.add_node("a", clock_a);
  const auto nb = net.add_node("b", clock_b);
  tee::CostModel model;
  crypto::HmacDrbg rng(crypto::to_bytes("replay-rig"));
  auto link = runtime::ShieldedLink::establish(net, na, nb, model, clock_a,
                                               clock_b, rng);
  runtime::ResilientChannel a(std::move(link.a_to_b), clock_a, 1);
  runtime::ResilientChannel b(std::move(link.b_to_a), clock_b, 2);
  net.set_adversary(
      [](crypto::Bytes&) { return net::AdversaryAction::Replay; });
  for (int i = 0; i < 4; ++i) {
    const auto payload = crypto::to_bytes("r" + std::to_string(i));
    EXPECT_EQ(runtime::ResilientChannel::deliver(a, b, payload), payload);
  }
  EXPECT_EQ(b.delivered(), 4u);
  EXPECT_EQ(b.poll(), std::nullopt) << "replays must not surface twice";
  EXPECT_GT(b.channel().replays_rejected() + a.channel().replays_rejected(),
            0u);
}

TEST(ResilientChannelTest, TamperingIsNeverRetried) {
  tee::SimClock clock_a, clock_b;
  net::SimNetwork net;
  const auto na = net.add_node("a", clock_a);
  const auto nb = net.add_node("b", clock_b);
  tee::CostModel model;
  crypto::HmacDrbg rng(crypto::to_bytes("tamper-rig"));
  auto link = runtime::ShieldedLink::establish(net, na, nb, model, clock_a,
                                               clock_b, rng);
  runtime::ResilientChannel a(std::move(link.a_to_b), clock_a, 1);
  runtime::ResilientChannel b(std::move(link.b_to_a), clock_b, 2);
  net.set_adversary([](crypto::Bytes& payload) {
    payload[payload.size() / 2] ^= 0x01;
    return net::AdversaryAction::Tamper;
  });
  EXPECT_THROW((void)runtime::ResilientChannel::deliver(
                   a, b, crypto::to_bytes("integrity")),
               runtime::SecurityError);
  EXPECT_EQ(a.retransmits(), 0u) << "an integrity violation burns no retries";
}

// ---------------------------------------------------------------------------
// Dead-peer signalling (the silent-drop hang, fixed).

TEST(ConnectionDeathTest, RecvDistinguishesNothingYetFromNeverAgain) {
  tee::SimClock clock_a, clock_b;
  net::SimNetwork net;
  const auto na = net.add_node("a", clock_a);
  const auto nb = net.add_node("b", clock_b);
  tee::CostModel model;
  crypto::HmacDrbg rng(crypto::to_bytes("death-rig"));
  auto link = runtime::ShieldedLink::establish(net, na, nb, model, clock_a,
                                               clock_b, rng);

  // Nothing in flight: "nothing yet".
  EXPECT_EQ(link.a_to_b.recv(), std::nullopt);
  EXPECT_FALSE(link.a_to_b.peer_closed());

  // In-flight traffic survives the peer's death and can still be drained...
  link.b_to_a.send(crypto::to_bytes("last words"));
  net.kill_node(nb);
  EXPECT_TRUE(link.a_to_b.peer_closed());
  const auto last = link.a_to_b.recv();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, crypto::to_bytes("last words"));

  // ...after which the channel reports "never again" instead of hanging.
  EXPECT_THROW((void)link.a_to_b.recv(), runtime::ChannelDeadError);
  // ChannelDeadError is transient (reconnect may succeed) — retry layers
  // catch it as such.
  EXPECT_THROW(
      {
        try {
          (void)link.a_to_b.recv();
        } catch (const runtime::TransientError&) {
          throw;
        }
      },
      runtime::TransientError);
}

TEST(ConnectionDeathTest, ExplicitCloseIsVisibleToThePeer) {
  tee::SimClock clock_a, clock_b;
  net::SimNetwork net;
  const auto na = net.add_node("a", clock_a);
  const auto nb = net.add_node("b", clock_b);
  auto [ca, cb] = net.connect(na, nb);
  EXPECT_FALSE(cb.peer_closed());
  ca.close();
  EXPECT_TRUE(cb.peer_closed());
  EXPECT_TRUE(ca.peer_closed());
}

// ---------------------------------------------------------------------------
// Transient host-I/O faults (fs shield / sealed kv store).

TEST(TransientIoTest, HostIoFaultsAreTransientErrors) {
  runtime::UntrustedFs fs;
  faults::FaultPlane plane(5);
  plane.set_io_fault_prob(1.0);
  plane.attach_fs(fs);
  EXPECT_THROW(fs.write("f", crypto::to_bytes("x")), runtime::TransientError);
  EXPECT_THROW((void)fs.read("f"), runtime::TransientError);
  EXPECT_GT(plane.stats().io_failures, 0u);

  plane.set_io_fault_prob(0.0);  // the hiccup passes; retrying succeeds
  EXPECT_NO_THROW(fs.write("f", crypto::to_bytes("x")));
  EXPECT_EQ(fs.read("f"), crypto::to_bytes("x"));
}

TEST(TransientIoTest, KvStoreSeparatesTransientLossFromTampering) {
  runtime::UntrustedFs fs;
  storage::MonotonicCounterService counters;
  crypto::HmacDrbg rng(crypto::to_bytes("kv-faults"));
  const crypto::Bytes key = rng.generate(32);

  storage::EncryptedKvStore store(key, counters, "db", rng);
  store.put("secret", crypto::to_bytes("v1"));
  store.seal_to(fs, "db.sealed");

  // Missing blob: transient (the host may just be slow to produce it).
  storage::EncryptedKvStore restored(key, counters, "db", rng);
  EXPECT_THROW((void)restored.load_from(fs, "nope.sealed"),
               runtime::TransientError);

  // Present blob: restores fine.
  EXPECT_TRUE(restored.load_from(fs, "db.sealed"));
  EXPECT_EQ(restored.get("secret"), crypto::to_bytes("v1"));

  // Tampered blob: *not* transient — load_from reports a security event
  // (false) instead of throwing a retryable error.
  ASSERT_TRUE(fs.tamper("db.sealed", 7));
  storage::EncryptedKvStore attacked(key, counters, "db", rng);
  EXPECT_FALSE(attacked.load_from(fs, "db.sealed"));
}

// ---------------------------------------------------------------------------
// Serving fleet degradation.

struct FleetFixture {
  ml::lite::FlatModel model = [] {
    ml::Graph g = ml::sized_classifier("svc", 8ull << 20);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();
  ml::Tensor image = ml::synthetic_cifar10(1, 3).sample(0);

  core::ServingConfig config(unsigned kernel_threads = 1) {
    core::ServingConfig cfg;
    cfg.mode = tee::TeeMode::Simulation;
    cfg.threads = 2;
    cfg.per_thread_scratch = 1ull << 20;
    cfg.kernel_threads = kernel_threads;
    cfg.inference.container_name = "svc";
    return cfg;
  }
};

TEST(ServingFleetTest, ThroughputLossIsMonotoneInDeadNodes) {
  FleetFixture f;
  const std::int64_t kImages = 256;
  double prev = 0;
  for (unsigned dead = 0; dead < 4; ++dead) {
    core::ServingFleet fleet(f.model, f.config(), 4);
    fleet.configure_resilience({});
    for (unsigned k = 0; k < dead; ++k) fleet.fail_node(k);
    const double seconds = fleet.estimate_stream_seconds(f.image, kImages);
    EXPECT_GT(seconds, 0.0);
    if (dead > 0) {
      EXPECT_GT(seconds, prev)
          << dead << " dead nodes must cost more than " << (dead - 1);
    }
    prev = seconds;
  }
}

TEST(ServingFleetTest, AllNodesDownFailsFastInsteadOfHanging) {
  FleetFixture f;
  core::ServingFleet fleet(f.model, f.config(), 2);
  fleet.fail_node(0);
  fleet.fail_node(1);
  EXPECT_THROW((void)fleet.estimate_stream_seconds(f.image, 64),
               runtime::TransientError);
}

TEST(ServingFleetTest, CircuitBreakerEjectsAndReadmits) {
  FleetFixture f;
  core::ServingFleet fleet(f.model, f.config(), 3);
  fleet.fail_node(0);
  const double degraded = fleet.estimate_stream_seconds(f.image, 256);
  const auto& s0 = fleet.node_status(0);
  EXPECT_GT(s0.failures_total, 0u);
  EXPECT_GT(s0.ejections, 0u) << "repeated failures must open the circuit";
  EXPECT_EQ(s0.served, 0);
  EXPECT_GT(fleet.node_status(1).served, 0);

  // The node comes back: after its cool-down the half-open probe re-admits
  // it and it takes traffic again.
  fleet.restore_node(0);
  const double healed = fleet.estimate_stream_seconds(f.image, 256);
  EXPECT_GT(fleet.node_status(0).served, 0);
  EXPECT_LT(healed, degraded);
}

TEST(ServingFleetTest, LossyRequestLinksSlowButCompleteTheStream) {
  FleetFixture f;
  core::ServingFleet clean(f.model, f.config(), 3);
  clean.configure_resilience({});
  core::ServingFleet lossy(f.model, f.config(), 3);
  core::FleetResilienceConfig cfg;
  cfg.request_drop_prob = 0.2;  // the acceptance scenario: 20% loss
  lossy.configure_resilience(cfg);

  const double t_clean = clean.estimate_stream_seconds(f.image, 256);
  const double t_lossy = lossy.estimate_stream_seconds(f.image, 256);
  EXPECT_GT(t_lossy, t_clean);
  EXPECT_LT(t_lossy, t_clean * 3.0) << "bounded slowdown, not collapse";
}

TEST(ServingFleetTest, DegradationFiguresIdenticalAcrossKernelPoolSizes) {
  // Virtual-time figures must not depend on how many host threads run the
  // real kernels — the degradation schedule is pure simulation.
  FleetFixture f;
  double previous = -1;
  for (const unsigned pool : {1u, 2u}) {
    core::ServingFleet fleet(f.model, f.config(pool), 3);
    fleet.fail_node(2);
    const double seconds = fleet.estimate_stream_seconds(f.image, 128);
    if (previous >= 0) {
      EXPECT_DOUBLE_EQ(seconds, previous);
    }
    previous = seconds;
  }
}

// ---------------------------------------------------------------------------
// Training cluster under weather + crash/rejoin.

distributed::ClusterConfig chaos_config(unsigned workers) {
  distributed::ClusterConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  cfg.num_workers = workers;
  cfg.batch_size = 50;
  cfg.learning_rate = 0.05f;
  cfg.worker_binary_bytes = 8ull << 20;
  cfg.framework_scratch_bytes = 2ull << 20;
  cfg.faults.enabled = true;
  cfg.faults.link.drop_prob = 0.2;  // the acceptance scenario: 20% loss
  cfg.faults.link.duplicate_prob = 0.05;
  cfg.faults.link.delay_prob = 0.1;
  return cfg;
}

TEST(TrainingChaosTest, TrainingCompletesAndConvergesUnderTwentyPercentLoss) {
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 7);

  auto clean_cfg = chaos_config(2);
  clean_cfg.faults = {};  // same cluster, no weather
  distributed::TrainingCluster clean(graph, clean_cfg);
  const auto clean_stats = clean.train(data, 600);

  distributed::TrainingCluster cluster(graph, chaos_config(2));
  ml::Session probe(graph);
  probe.restore_variables(cluster.master_session().variable_snapshot());
  const float initial = probe.run1("loss", data.batch_feeds(0, 50)).at(0);

  const auto stats = cluster.train(data, 600);
  EXPECT_EQ(stats.rounds, 6u);
  EXPECT_LT(stats.final_loss, initial) << "loss must still converge";
  EXPECT_GT(stats.retransmits, 0u) << "the weather must have actually bitten";
  EXPECT_GT(cluster.fault_stats().dropped, 0u);
  // Graceful degradation: slower than clean skies, but bounded — not a
  // hang, not a retry storm.
  EXPECT_GT(stats.total_seconds, clean_stats.total_seconds);
  EXPECT_LT(stats.total_seconds, clean_stats.total_seconds * 25);
}

TEST(TrainingChaosTest, FixedFaultSeedReplaysBitForBit) {
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 7);
  auto run = [&] {
    distributed::TrainingCluster cluster(graph, chaos_config(2));
    const auto stats = cluster.train(data, 600);
    return std::tuple{stats.total_seconds, stats.retransmits,
                      stats.lost_gradients, stats.final_loss,
                      cluster.fault_stats().dropped,
                      cluster.fault_stats().duplicated};
  };
  EXPECT_EQ(run(), run());
}

TEST(TrainingChaosTest, CleanSkiesFaultConfigMatchesLegacyMath) {
  // One round loop, two transports: resilient RPC under zero weather and
  // the plain shielded channel. Every gradient arrives on both, so the
  // parameter updates must match exactly (accuracy goal: resilience must
  // not change results).
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 9);

  auto legacy_cfg = chaos_config(2);
  legacy_cfg.faults = {};
  distributed::TrainingCluster legacy(graph, legacy_cfg);
  (void)legacy.train(data, 400);

  auto clean_cfg = chaos_config(2);
  clean_cfg.faults.link = {};  // enabled, but zero drop/dup/delay
  distributed::TrainingCluster clean(graph, clean_cfg);
  const auto stats = clean.train(data, 400);
  EXPECT_EQ(stats.retransmits, 0u);
  EXPECT_EQ(stats.degraded_rounds, 0u);

  const auto a = legacy.master_session().variable_snapshot();
  const auto b = clean.master_session().variable_snapshot();
  for (const auto& [name, va] : a) {
    ASSERT_TRUE(b.contains(name));
    for (std::int64_t i = 0; i < va.size(); ++i) {
      ASSERT_FLOAT_EQ(va.at(i), b.at(name).at(i)) << name << "[" << i << "]";
    }
  }
}

TEST(TrainingChaosTest, CrashedWorkerRejoinsThroughCasReattestation) {
  tee::CostModel model;
  tee::ProvisioningAuthority authority;
  tee::Platform cas_platform("cas-host", tee::TeeMode::Simulation, model,
                             authority);
  cas::CasServer cas(cas_platform, authority, crypto::to_bytes("seed"));

  const ml::Graph graph = ml::mnist_mlp(16, 3);
  const ml::Dataset data = ml::synthetic_mnist(200, 7);
  auto cfg = chaos_config(2);
  cfg.faults.link = {};  // isolate the crash from message weather
  distributed::TrainingCluster cluster(graph, cfg, &cas, &authority);
  EXPECT_EQ(cas.requests_served(), 2u);

  ml::Session probe(graph);
  probe.restore_variables(cluster.master_session().variable_snapshot());
  const float initial = probe.run1("loss", data.batch_feeds(0, 50)).at(0);

  // Worker 0 crash-stops in round 1 — after receiving parameters, before
  // its gradient reaches the PS.
  cluster.schedule_worker_crash(0, 1);
  const auto stats = cluster.train(data, 600);

  EXPECT_EQ(stats.rounds, 6u) << "the round must complete, not hang";
  EXPECT_EQ(stats.worker_crashes, 1u);
  EXPECT_EQ(stats.degraded_rounds, 1u);
  EXPECT_EQ(stats.lost_gradients, 1u);
  EXPECT_EQ(stats.samples_processed, 600u - 50u) << "one batch died with it";
  EXPECT_LT(stats.final_loss, initial);
  // The replacement re-attested through CAS before receiving parameters.
  EXPECT_EQ(cluster.worker_count(), 2u);
  EXPECT_EQ(cluster.attested_workers(), 3u);
  EXPECT_EQ(cas.requests_served(), 3u);
}

TEST(TrainingChaosTest, CrashSchedulingRequiresFaultConfig) {
  const ml::Graph graph = ml::mnist_mlp(16, 3);
  auto cfg = chaos_config(1);
  cfg.faults.enabled = false;
  distributed::TrainingCluster cluster(graph, cfg);
  EXPECT_THROW(cluster.schedule_worker_crash(0, 0), std::logic_error);
}

}  // namespace
}  // namespace stf
