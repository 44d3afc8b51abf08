// Threat-model test suite: every attack the paper's adversary (§2.3) can
// mount, executed against the real implementation. A privileged host, a
// Dolev-Yao network, stale/forged attestation material — each must be
// detected or be provably useless, never silently accepted.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cas/attest_client.h"
#include "core/securetf.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "runtime/shielded_link.h"
#include "tee/platform.h"

namespace stf {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

// ---------------------------------------------------------------------------
// Attestation attacks
// ---------------------------------------------------------------------------

struct AttestFixture {
  tee::CostModel model;
  tee::ProvisioningAuthority authority;
  tee::Platform cas_platform{"cas", tee::TeeMode::Hardware, model, authority};
  tee::Platform worker_platform{"worker", tee::TeeMode::Hardware, model,
                                authority};
  cas::CasServer cas{cas_platform, authority, to_bytes("sec-cas")};
  net::SimNetwork net;
  net::NodeId cas_node = net.add_node("cas", cas_platform.base_clock());
  net::NodeId worker_node =
      net.add_node("worker", worker_platform.base_clock());
  crypto::HmacDrbg rng{to_bytes("sec-rng")};

  std::unique_ptr<tee::Enclave> enclave = worker_platform.launch_enclave(
      {.name = "svc", .content = to_bytes("svc-v1"), .binary_bytes = 1 << 20});

  AttestFixture() {
    cas::EnclavePolicy policy;
    policy.expected_mrenclave = enclave->mrenclave();
    policy.secrets = {{"k", to_bytes("secret")}};
    cas.register_policy("svc", policy);
  }
};

TEST(AttestationAttackTest, QuoteFromOneSessionCannotServeAnother) {
  // Nonce freshness: a quote captured in session 1 (same enclave, same
  // platform) must not satisfy session 2's challenge.
  AttestFixture f;
  std::array<std::uint8_t, 16> nonce1{}, nonce2{};
  nonce1[0] = 1;
  nonce2[0] = 2;
  const auto quote1 = f.worker_platform.quote(f.enclave->create_report({}),
                                              nonce1);
  EXPECT_TRUE(f.authority.verify(quote1, nonce1));
  EXPECT_FALSE(f.authority.verify(quote1, nonce2)) << "replayed quote";
}

TEST(AttestationAttackTest, ReportDataSwapRejected) {
  // An attacker cannot graft a genuine quote onto their own channel: the
  // report_data (channel key hash) is covered by the MAC.
  AttestFixture f;
  std::array<std::uint8_t, 16> nonce{};
  std::array<std::uint8_t, 64> honest_binding{};
  honest_binding[0] = 0xaa;
  auto quote = f.worker_platform.quote(
      f.enclave->create_report(honest_binding), nonce);
  quote.report.report_data[0] = 0xbb;  // rebind to the attacker's channel
  EXPECT_FALSE(f.authority.verify(quote, nonce));
}

TEST(AttestationAttackTest, MeasurementDowngradeRejected) {
  // Policy pins svn >= 2 after a patch; the old (vulnerable) build attests
  // honestly but must be refused.
  AttestFixture f;
  auto old_build = f.worker_platform.launch_enclave(
      {.name = "svc",
       .content = to_bytes("svc-v1"),
       .binary_bytes = 1 << 20,
       .attributes = {.isv_svn = 1}});
  cas::EnclavePolicy strict;
  strict.expected_mrenclave = old_build->mrenclave();
  strict.min_isv_svn = 2;
  strict.secrets = {{"k", to_bytes("secret")}};
  f.cas.register_policy("patched-svc", strict);
  const auto outcome =
      cas::attest_with_cas(f.cas, f.worker_platform, *old_build, f.net,
                           f.worker_node, f.cas_node, f.rng, "patched-svc");
  EXPECT_FALSE(outcome.ok);
}

TEST(AttestationAttackTest, SecretsNeverReleasedWithoutFullProtocol) {
  // Connecting and speaking garbage (skipping attestation) yields nothing.
  AttestFixture f;
  auto [attacker_conn, cas_conn] = f.net.connect(f.worker_node, f.cas_node);
  attacker_conn.send(to_bytes("give me the keys please"));
  const auto result = f.cas.serve_one(cas_conn);
  EXPECT_FALSE(result.provisioned);
  EXPECT_EQ(f.cas.requests_served(), 0u);
}

using AttestFixtureHelper = AttestFixture;

// ---------------------------------------------------------------------------
// Channel attacks
// ---------------------------------------------------------------------------

TEST(ChannelAttackTest, RecordNoncesNeverRepeat) {
  // Nonce uniqueness is what keeps AES-GCM safe; capture every record on the
  // wire and check the (implicitly sequenced) records are all distinct.
  tee::CostModel model;
  tee::SimClock ca, cb;
  net::SimNetwork net;
  crypto::HmacDrbg rng(to_bytes("nonce-check"));
  const auto a = net.add_node("a", ca);
  const auto b = net.add_node("b", cb);

  std::set<Bytes> wire_records;
  std::size_t duplicates = 0;
  net.set_adversary([&](Bytes& payload) {
    if (!wire_records.insert(payload).second) ++duplicates;
    return net::AdversaryAction::Pass;
  });

  auto link = runtime::ShieldedLink::establish(net, a, b, model, ca, cb, rng);
  const Bytes same_plaintext = to_bytes("identical plaintext every time");
  for (int i = 0; i < 64; ++i) link.a_to_b.send(same_plaintext);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(link.b_to_a.recv().has_value());
  EXPECT_EQ(duplicates, 0u)
      << "identical plaintexts must never produce identical records";
}

TEST(ChannelAttackTest, CrossChannelRecordInjectionRejected) {
  // A record captured on channel 1 is injected into channel 2 (different
  // keys): authentication must fail.
  tee::CostModel model;
  tee::SimClock ca, cb;
  net::SimNetwork net;
  crypto::HmacDrbg rng(to_bytes("cross"));
  const auto a = net.add_node("a", ca);
  const auto b = net.add_node("b", cb);

  Bytes captured;
  net.set_adversary([&captured](Bytes& payload) {
    if (captured.empty() && payload.size() > 60) captured = payload;
    return net::AdversaryAction::Pass;
  });
  auto link1 = runtime::ShieldedLink::establish(net, a, b, model, ca, cb, rng);
  link1.a_to_b.send(to_bytes("record on channel one, long enough to capture"));
  ASSERT_TRUE(link1.b_to_a.recv().has_value());
  ASSERT_FALSE(captured.empty());

  // Channel 2 between the same nodes, fresh keys. Replay the captured record
  // by having the adversary substitute it for channel 2's first record.
  auto link2 = runtime::ShieldedLink::establish(net, a, b, model, ca, cb, rng);
  net.set_adversary([&captured](Bytes& payload) {
    payload = captured;
    return net::AdversaryAction::Tamper;
  });
  link2.a_to_b.send(to_bytes("legitimate"));
  EXPECT_THROW((void)link2.b_to_a.recv(), runtime::SecurityError);
}

TEST(ChannelAttackTest, TruncatedRecordRejected) {
  tee::CostModel model;
  tee::SimClock ca, cb;
  net::SimNetwork net;
  crypto::HmacDrbg rng(to_bytes("trunc"));
  const auto a = net.add_node("a", ca);
  const auto b = net.add_node("b", cb);
  auto link = runtime::ShieldedLink::establish(net, a, b, model, ca, cb, rng);
  net.set_adversary([](Bytes& payload) {
    payload.resize(payload.size() / 2);
    return net::AdversaryAction::Tamper;
  });
  link.a_to_b.send(to_bytes("will be cut in half"));
  EXPECT_THROW((void)link.b_to_a.recv(), runtime::SecurityError);
}

// ---------------------------------------------------------------------------
// Host (storage) attacks
// ---------------------------------------------------------------------------

TEST(HostAttackTest, CiphertextExtensionRejected) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("ext"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}, .chunk_size = 64},
      key, host, model, clock, rng);
  shield.write("/f", to_bytes("some protected data"));
  // Append attacker-chosen bytes to the stored file.
  auto raw = *host.read("/f");
  crypto::append(raw, to_bytes("EXTRA"));
  host.write("/f", raw);
  EXPECT_THROW((void)shield.read("/f"), runtime::SecurityError);
}

TEST(HostAttackTest, CrossPathCiphertextReuseRejected) {
  // The host copies /secure/allowed (which the attacker can influence via
  // the application) over /secure/model: path binding must catch it even
  // when both files have identical generations and sizes.
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("xpath"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key, host, model,
      clock, rng);
  shield.write("/secure/model", to_bytes("weights-A"));
  shield.write("/secure/other", to_bytes("weights-B"));
  host.write("/secure/model", *host.read("/secure/other"));
  EXPECT_THROW((void)shield.read("/secure/model"), runtime::SecurityError);
}

TEST(HostAttackTest, EmptyFileSubstitutionRejected) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("empty"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key, host, model,
      clock, rng);
  shield.write("/f", to_bytes("real content"));
  host.write("/f", {});  // host swaps in an empty blob
  EXPECT_THROW((void)shield.read("/f"), runtime::SecurityError);
}

TEST(HostAttackTest, DeletionSurfacesAsMissingNotEmpty) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("del"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key, host, model,
      clock, rng);
  shield.write("/f", to_bytes("content"));
  host.remove("/f");
  EXPECT_THROW((void)shield.read("/f"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// End-to-end: privileged host reads nothing from a full deployment
// ---------------------------------------------------------------------------

TEST(HostAttackTest, FullDeploymentLeavesOnlyCiphertextOnHost) {
  tee::ProvisioningAuthority intel;
  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  core::SecureTfContext ctx(cfg, &intel);
  ctx.provision_fs_key(crypto::HmacDrbg(to_bytes("k")).generate(32));

  // A "model" with a recognizable plaintext marker in its weights.
  ml::Graph g;
  ml::GraphBuilder b(g);
  const auto x = b.placeholder("input");
  ml::Tensor marker({4, 4});
  const char* secret = "SECRETWEIGHTBYTES";
  std::memcpy(marker.data(), secret, 16);
  const auto w = b.constant("w", std::move(marker));
  const auto mm = b.matmul("mm", x, w);
  b.softmax("probs", mm);
  const auto model = ml::lite::FlatModel::from_frozen(g, "input", "probs");
  ctx.save_lite_model("/secure/model.stflite", model);

  for (const auto& path : ctx.host_fs().list()) {
    const auto raw = *ctx.host_fs().read(path);
    const std::string blob(raw.begin(), raw.end());
    EXPECT_EQ(blob.find("SECRETWEIGHT"), std::string::npos)
        << "plaintext weights visible in " << path;
  }
}

}  // namespace
}  // namespace stf

// Appended: key rotation and software-update (measurement upgrade) flows.
namespace stf {
namespace {

TEST(KeyRotationTest, FilesReadableAfterRotation) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("rot"));
  const auto key_v1 = crypto::HmacDrbg(to_bytes("k1")).generate(32);
  const auto key_v2 = crypto::HmacDrbg(to_bytes("k2")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key_v1, host,
      model, clock, rng);
  shield.write("/a", to_bytes("alpha"));
  shield.write("/b", to_bytes("beta"));
  shield.rotate_key(key_v2);
  EXPECT_EQ(shield.read("/a"), to_bytes("alpha"));
  EXPECT_EQ(shield.read("/b"), to_bytes("beta"));
}

TEST(KeyRotationTest, OldKeyBlobRejectedAfterRotation) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("rot2"));
  const auto key_v1 = crypto::HmacDrbg(to_bytes("k1")).generate(32);
  const auto key_v2 = crypto::HmacDrbg(to_bytes("k2")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key_v1, host,
      model, clock, rng);
  shield.write("/f", to_bytes("content"));
  shield.rotate_key(key_v2);
  // The host replays the pre-rotation blob (it kept a copy).
  ASSERT_TRUE(host.rollback("/f"));
  EXPECT_THROW((void)shield.read("/f"), runtime::SecurityError);
}

TEST(KeyRotationTest, CompromisedOldKeyUselessForNewBlobs) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng1(to_bytes("r1")), rng2(to_bytes("r2"));
  const auto key_v1 = crypto::HmacDrbg(to_bytes("k1")).generate(32);
  const auto key_v2 = crypto::HmacDrbg(to_bytes("k2")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key_v1, host,
      model, clock, rng1);
  shield.write("/f", to_bytes("secret material"));
  shield.rotate_key(key_v2);
  // The attacker, holding key_v1, builds a shield with it and the current
  // metadata: the post-rotation ciphertext must not open.
  runtime::FsShield attacker(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key_v1, host,
      model, clock, rng2);
  attacker.import_meta(shield.export_meta());
  EXPECT_THROW((void)attacker.read("/f"), runtime::SecurityError);
}

TEST(KeyRotationTest, RotationRejectsBadKeyAndTamperedState) {
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("rot3"));
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(32);
  runtime::FsShield shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key, host, model,
      clock, rng);
  shield.write("/f", to_bytes("x"));
  EXPECT_THROW(shield.rotate_key(crypto::Bytes(16, 1)),
               std::invalid_argument);
  // Tampered file: rotation must abort before any re-encryption.
  ASSERT_TRUE(host.tamper("/f", 10));
  const auto key2 = crypto::HmacDrbg(to_bytes("k2")).generate(32);
  EXPECT_THROW(shield.rotate_key(key2), runtime::SecurityError);
}

TEST(SoftwareUpdateTest, PolicyUpgradeRefusesOldBuild) {
  // The §7 update story: a new service build ships; the operator updates
  // the CAS policy to its measurement; the old (retired) build can no
  // longer obtain secrets even though it attests genuinely.
  AttestFixtureHelper f;
  auto v1 = f.worker_platform.launch_enclave(
      {.name = "svc", .content = to_bytes("build-v1"), .binary_bytes = 1 << 20});
  auto v2 = f.worker_platform.launch_enclave(
      {.name = "svc", .content = to_bytes("build-v2"), .binary_bytes = 1 << 20});

  cas::EnclavePolicy policy;
  policy.expected_mrenclave = v1->mrenclave();
  policy.secrets = {{"k", to_bytes("secret")}};
  f.cas.register_policy("svc", policy);
  EXPECT_TRUE(cas::attest_with_cas(f.cas, f.worker_platform, *v1, f.net,
                                   f.worker_node, f.cas_node, f.rng, "svc")
                  .ok);

  // Roll the policy forward to v2.
  policy.expected_mrenclave = v2->mrenclave();
  f.cas.register_policy("svc", policy);
  EXPECT_FALSE(cas::attest_with_cas(f.cas, f.worker_platform, *v1, f.net,
                                    f.worker_node, f.cas_node, f.rng, "svc")
                   .ok)
      << "retired build must be refused after the policy upgrade";
  EXPECT_TRUE(cas::attest_with_cas(f.cas, f.worker_platform, *v2, f.net,
                                   f.worker_node, f.cas_node, f.rng, "svc")
                  .ok);
}


// ---------------------------------------------------------------------------
// Access-pattern side channel (Privado)
// ---------------------------------------------------------------------------

// What the host sees of an in-enclave Lite inference, its virtual latency
// and its EPC faults, loads and evictions, depends on the model and the
// batch shape only, never on the input values. A zero-skip or early-exit
// shortcut would make the page trace depend on the input, which is the leak
// Privado exploits. 8 MB model against a 6 MB EPC, so the float paths page.
TEST(AccessPatternTest, LiteCostDependsOnShapesNotValues) {
  ml::Graph g = ml::sized_classifier("privado", 8ull << 20);
  ml::Session s(g);
  const auto fm =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const ml::Dataset d = ml::synthetic_cifar10(8, 41);
  std::vector<ml::Tensor> calib;
  for (std::int64_t i = 0; i < 4; ++i) calib.push_back(d.sample(i));
  const auto q = fm.quantized(calib);

  // Four requests of each kind: random images, all zeros, images x1000.
  std::vector<ml::Tensor> random, zeros, scaled;
  for (std::int64_t i = 0; i < 4; ++i) {
    random.push_back(d.sample(4 + i));
    zeros.emplace_back(random.back().shape());
    scaled.push_back(random.back());
    for (std::int64_t j = 0; j < scaled.back().size(); ++j) {
      scaled.back().at(j) *= 1000.0f;
    }
  }
  using Observed = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                              std::uint64_t>;  // ns, faults, loads, evictions
  const auto observe = [&](bool streaming, bool int8_compute,
                           const std::vector<ml::Tensor>& requests) {
    core::SecureTfConfig cfg;
    cfg.mode = tee::TeeMode::Hardware;
    cfg.model.epc_bytes = 6ull << 20;
    core::SecureTfContext ctx(cfg);
    core::InferenceOptions opts;
    opts.weight_streaming = streaming;
    opts.int8_compute = int8_compute;
    auto svc = ctx.create_lite_service(int8_compute ? q : fm, opts);
    std::vector<Observed> per_request;
    for (const ml::Tensor& x : requests) {
      const std::uint64_t t0 = ctx.platform().clock().now_ns();
      const tee::EpcStats e0 = ctx.platform().epc().stats();
      (void)svc->classify(x);
      const tee::EpcStats e1 = ctx.platform().epc().stats();
      per_request.emplace_back(ctx.platform().clock().now_ns() - t0,
                               e1.faults - e0.faults, e1.loads - e0.loads,
                               e1.evictions - e0.evictions);
    }
    return per_request;
  };
  const std::pair<bool, bool> configs[] = {
      {false, false}, {true, false}, {true, true}};  // streaming, int8
  for (const auto& [streaming, int8_compute] : configs) {
    const auto expected = observe(streaming, int8_compute, random);
    EXPECT_GT(std::get<2>(expected.front()), 0u) << "the first request pages";
    EXPECT_EQ(observe(streaming, int8_compute, zeros), expected)
        << "streaming=" << streaming << " int8=" << int8_compute;
    EXPECT_EQ(observe(streaming, int8_compute, scaled), expected)
        << "streaming=" << streaming << " int8=" << int8_compute;
  }
}

}  // namespace
}  // namespace stf
