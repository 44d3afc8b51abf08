// Property-based and parameterized tests: invariants that must hold across
// swept inputs, random operation sequences checked against reference models,
// and adversarial fuzzing of every parser.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "ml/dataset.h"
#include "ml/lite/flat_model.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "net/network.h"
#include "runtime/fs_shield.h"
#include "runtime/scheduler.h"
#include "runtime/secure_channel.h"
#include "storage/kv_store.h"
#include "tee/epc.h"
#include "tee/platform.h"

namespace stf {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

// ---------------------------------------------------------------------------
// Crypto properties
// ---------------------------------------------------------------------------

class GcmSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmSizeSweep, RoundTripEverySize) {
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  crypto::HmacDrbg rng(to_bytes("payload"));
  const Bytes nonce = rng.generate(12);
  const Bytes plaintext = rng.generate(GetParam());
  const auto sealed = gcm.seal(nonce, to_bytes("aad"), plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + crypto::AesGcm::kTagSize);
  const auto opened = gcm.open(nonce, to_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST_P(GcmSizeSweep, AnySingleBitFlipRejected) {
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  crypto::HmacDrbg rng(to_bytes("flip"));
  const Bytes nonce = rng.generate(12);
  const Bytes plaintext = rng.generate(GetParam());
  const auto sealed = gcm.seal(nonce, {}, plaintext);
  // Flip one random bit in each of 16 trials.
  for (int trial = 0; trial < 16; ++trial) {
    Bytes corrupted = sealed;
    const auto bit = rng.uniform(corrupted.size() * 8);
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(gcm.open(nonce, {}, corrupted).has_value())
        << "bit " << bit << " flip must be detected";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 64, 100, 255,
                                           256, 1000, 4096));

TEST(CryptoProperty, Sha256AnyChunkingAgrees) {
  crypto::HmacDrbg rng(to_bytes("chunking"));
  const Bytes message = rng.generate(1000);
  const auto reference = crypto::Sha256::hash(message);
  for (int trial = 0; trial < 50; ++trial) {
    crypto::Sha256 h;
    std::size_t offset = 0;
    while (offset < message.size()) {
      const std::size_t take =
          1 + rng.uniform(std::min<std::size_t>(97, message.size() - offset));
      h.update(crypto::BytesView(message.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(h.finish(), reference);
  }
}

TEST(CryptoProperty, GcmDistinctNoncesDistinctCiphertexts) {
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  crypto::HmacDrbg rng(to_bytes("nonces"));
  const Bytes plaintext = rng.generate(64);
  std::map<Bytes, int> seen;
  for (int i = 0; i < 32; ++i) {
    const Bytes nonce = rng.generate(12);
    ++seen[gcm.seal(nonce, {}, plaintext)];
  }
  EXPECT_EQ(seen.size(), 32u) << "same plaintext must never repeat on wire";
}

TEST(CryptoProperty, X25519ManyAgreements) {
  crypto::HmacDrbg rng(to_bytes("dh-sweep"));
  for (int i = 0; i < 24; ++i) {
    crypto::X25519::Key a{}, b{};
    rng.fill(a.data(), a.size());
    rng.fill(b.data(), b.size());
    const auto shared_ab =
        crypto::X25519::scalarmult(a, crypto::X25519::public_from_secret(b));
    const auto shared_ba =
        crypto::X25519::scalarmult(b, crypto::X25519::public_from_secret(a));
    ASSERT_EQ(shared_ab, shared_ba) << "trial " << i;
    // The shared secret must not equal either public key.
    EXPECT_NE(shared_ab, crypto::X25519::public_from_secret(a));
    EXPECT_NE(shared_ab, crypto::X25519::public_from_secret(b));
  }
}

// ---------------------------------------------------------------------------
// EPC invariants under random operation sequences
// ---------------------------------------------------------------------------

TEST(EpcProperty, InvariantsUnderRandomOps) {
  tee::CostModel model;
  model.epc_bytes = 32 * model.page_size;
  tee::EpcManager epc(model, /*limited=*/true);
  tee::SimClock clock;
  crypto::HmacDrbg rng(to_bytes("epc-fuzz"));

  std::vector<std::pair<tee::RegionId, std::uint64_t>> regions;  // id, bytes
  for (int step = 0; step < 2000; ++step) {
    const auto action = rng.uniform(10);
    if (action < 2 || regions.empty()) {
      const std::uint64_t bytes = (1 + rng.uniform(20)) * model.page_size;
      regions.emplace_back(epc.map_region("r", bytes), bytes);
    } else if (action < 3 && regions.size() > 1) {
      const auto victim = rng.uniform(regions.size());
      epc.unmap_region(regions[victim].first);
      regions.erase(regions.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const auto& [id, bytes] = regions[rng.uniform(regions.size())];
      const std::uint64_t offset = rng.uniform(bytes);
      const std::uint64_t len = 1 + rng.uniform(bytes - offset);
      epc.access(id, offset, len, rng.uniform(2) == 0, clock);
    }
    ASSERT_LE(epc.resident_pages(), epc.capacity_pages())
        << "residency must never exceed capacity (step " << step << ")";
    ASSERT_EQ(epc.stats().faults, epc.stats().loads)
        << "every fault loads exactly one page";
    ASSERT_GE(epc.stats().loads,
              epc.stats().evictions)  // can't evict more than was loaded
        << "eviction accounting broke";
  }
}

TEST(EpcProperty, ClockMonotoneUnderAllOperations) {
  tee::CostModel model;
  model.epc_bytes = 8 * model.page_size;
  tee::EpcManager epc(model, true);
  tee::SimClock clock;
  crypto::HmacDrbg rng(to_bytes("epc-time"));
  const auto region = epc.map_region("r", 64 * model.page_size);
  std::uint64_t last = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t offset =
        rng.uniform(63 * model.page_size);
    epc.access(region, offset, model.page_size, false, clock);
    ASSERT_GE(clock.now_ns(), last);
    last = clock.now_ns();
  }
}

// ---------------------------------------------------------------------------
// File-system shield sweeps
// ---------------------------------------------------------------------------

struct FsShieldParam {
  std::size_t chunk_size;
  std::size_t file_size;
};

class FsShieldSweep : public ::testing::TestWithParam<FsShieldParam> {};

TEST_P(FsShieldSweep, RoundTripAndTamperDetection) {
  const auto [chunk_size, file_size] = GetParam();
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("fs-sweep"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  runtime::FsShield shield(
      runtime::FsShieldConfig{
          .prefixes = {{"/", runtime::ShieldPolicy::Encrypt}},
          .chunk_size = chunk_size},
      key, host, model, clock, rng);

  const Bytes data = crypto::HmacDrbg(to_bytes("data")).generate(file_size);
  shield.write("/f", data);
  EXPECT_EQ(shield.read("/f"), data);

  if (!data.empty()) {
    // Tamper at a pseudo-random offset of the stored ciphertext.
    ASSERT_TRUE(host.tamper("/f", file_size / 2 + 11));
    EXPECT_THROW((void)shield.read("/f"), runtime::SecurityError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkAndSize, FsShieldSweep,
    ::testing::Values(FsShieldParam{16, 0}, FsShieldParam{16, 1},
                      FsShieldParam{16, 15}, FsShieldParam{16, 16},
                      FsShieldParam{16, 17}, FsShieldParam{64, 1000},
                      FsShieldParam{1024, 1024}, FsShieldParam{1024, 1025},
                      FsShieldParam{4096, 100'000},
                      FsShieldParam{65536, 65536}));

// ---------------------------------------------------------------------------
// Secure channel under a randomized adversary
// ---------------------------------------------------------------------------

TEST(ChannelProperty, RandomAdversaryNeverCorruptsSilently) {
  // Whatever the adversary does, the receiver either gets exactly the sent
  // payload in order, detects a violation, or sees nothing — never wrong
  // data accepted as valid.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    tee::CostModel model;
    tee::SimClock ca, cb;
    net::SimNetwork net;
    crypto::HmacDrbg rng(to_bytes("adv-" + std::to_string(seed)));
    const auto a = net.add_node("a", ca);
    const auto b = net.add_node("b", cb);
    auto [conn_a, conn_b] = net.connect(a, b);
    runtime::ChannelHandshake hs_a(runtime::ChannelHandshake::Role::Client,
                                   rng);
    runtime::ChannelHandshake hs_b(runtime::ChannelHandshake::Role::Server,
                                   rng);
    conn_a.send(hs_a.hello());
    conn_b.send(hs_b.hello());
    auto hello_a = conn_b.recv();
    auto hello_b = conn_a.recv();
    auto chan_a = hs_a.finish(*hello_b, conn_a, model, ca);
    auto chan_b = hs_b.finish(*hello_a, conn_b, model, cb);

    crypto::HmacDrbg adversary_rng(to_bytes("dice-" + std::to_string(seed)));
    net.set_adversary([&adversary_rng](Bytes& payload) {
      switch (adversary_rng.uniform(5)) {
        case 0: return net::AdversaryAction::Drop;
        case 1:
          payload[adversary_rng.uniform(payload.size())] ^= 0x40;
          return net::AdversaryAction::Tamper;
        case 2: return net::AdversaryAction::Replay;
        case 3: return net::AdversaryAction::Delay;
        default: return net::AdversaryAction::Pass;
      }
    });

    std::vector<Bytes> sent;
    for (int i = 0; i < 20; ++i) {
      sent.push_back(to_bytes("msg-" + std::to_string(seed) + "-" +
                              std::to_string(i)));
      chan_a.send(sent.back());
    }
    std::size_t next_expected = 0;
    for (;;) {
      std::optional<Bytes> got;
      try {
        got = chan_b.recv();
      } catch (const runtime::SecurityError&) {
        break;  // detected manipulation: the channel is dead, that's safe
      }
      if (!got.has_value()) break;  // nothing more in flight
      ASSERT_LT(next_expected, sent.size());
      ASSERT_EQ(*got, sent[next_expected])
          << "silently corrupted/reordered delivery (seed " << seed << ")";
      ++next_expected;
    }
  }
}

// ---------------------------------------------------------------------------
// KV store against a reference model
// ---------------------------------------------------------------------------

TEST(KvStoreProperty, MatchesReferenceUnderRandomOps) {
  storage::MonotonicCounterService counters;
  crypto::HmacDrbg rng(to_bytes("kv-fuzz"));
  const auto key = crypto::HmacDrbg(to_bytes("kv-key")).generate(32);
  storage::EncryptedKvStore store(key, counters, "db", rng);
  std::map<std::string, Bytes> reference;

  for (int step = 0; step < 600; ++step) {
    const auto k = "key-" + std::to_string(rng.uniform(20));
    switch (rng.uniform(4)) {
      case 0: {
        Bytes v = rng.generate(rng.uniform(64));
        reference[k] = v;
        store.put(k, std::move(v));
        break;
      }
      case 1:
        reference.erase(k);
        store.erase(k);
        break;
      case 2: {
        const auto got = store.get(k);
        const auto it = reference.find(k);
        ASSERT_EQ(got.has_value(), it != reference.end());
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      default: {
        // Seal/load cycle must preserve the exact contents.
        const auto sealed = store.seal();
        storage::EncryptedKvStore restored(key, counters, "db", rng);
        ASSERT_TRUE(restored.load(sealed));
        ASSERT_EQ(restored.size(), reference.size());
        break;
      }
    }
    ASSERT_EQ(store.size(), reference.size());
  }
}

// ---------------------------------------------------------------------------
// Serialization fuzzing: random corruption must never crash or mis-load
// ---------------------------------------------------------------------------

// The contract for bytes from outside the enclave: a valid graph or a
// std::runtime_error. Any other exception (bad_alloc, length_error,
// invalid_argument, ...) escapes the test body and fails it.
TEST(SerializeProperty, CorruptedGraphNeverCrashes) {
  const auto blob = ml::serialize_graph(ml::mnist_mlp(8, 3));
  // Node 0's input count, forged to 0xFFFFFFFF, must be rejected before
  // 16 GiB of input ids are allocated.
  const std::size_t n_inputs_at =
      4 + 4 + 4 + 1 + 4 + crypto::load_be32(blob.data() + 13);
  Bytes forged = blob;
  crypto::store_be32(forged.data() + n_inputs_at, 0xFFFFFFFFu);
  EXPECT_THROW((void)ml::deserialize_graph(forged), std::runtime_error);
  // An op type byte past the enum.
  forged = blob;
  forged[12] = 250;
  EXPECT_THROW((void)ml::deserialize_graph(forged), std::runtime_error);
  // The first stored tensor's leading dim, forged negative and huge.
  std::size_t at = 12;
  std::size_t dim_at = 0;
  while (dim_at == 0) {
    at += 1;                                            // type
    at += 4 + crypto::load_be32(blob.data() + at);      // name
    at += 4 + 4 * crypto::load_be32(blob.data() + at);  // input ids
    at += 8 + 8 + 4;                                    // stride, window, scalar
    at += 4 + 8 * crypto::load_be32(blob.data() + at);  // target shape
    if (blob[at++] != 0) dim_at = at + 4;               // value: rank, dims
  }
  for (const std::int64_t dim : {std::int64_t{-1}, std::int64_t{1} << 40}) {
    forged = blob;
    crypto::store_be64(forged.data() + dim_at, static_cast<std::uint64_t>(dim));
    EXPECT_THROW((void)ml::deserialize_graph(forged), std::runtime_error)
        << "dim=" << dim;
  }

  crypto::HmacDrbg rng(to_bytes("graph-fuzz"));
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupted = blob;
    const auto mutations = 1 + rng.uniform(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      corrupted[rng.uniform(corrupted.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    try {
      const ml::Graph g = ml::deserialize_graph(corrupted);
      // If it parsed, it must at least be structurally sound.
      (void)g.node_count();
    } catch (const std::runtime_error&) {
      // rejecting with a typed error is always fine
    }
  }
}

TEST(SerializeProperty, TruncatedLiteModelNeverCrashes) {
  ml::Graph g = ml::mnist_mlp(8, 3);
  ml::Session s(g);
  const auto blob =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs")
          .serialize();
  for (std::size_t len = 0; len < blob.size(); len += 97) {
    Bytes truncated(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW((void)ml::lite::FlatModel::deserialize(truncated),
                 std::runtime_error)
        << "len=" << len;
  }
}

TEST(SerializeProperty, TensorMapRoundTripRandom) {
  crypto::HmacDrbg rng(to_bytes("tmap"));
  for (int trial = 0; trial < 10; ++trial) {
    std::map<std::string, ml::Tensor> original;
    const auto count = 1 + rng.uniform(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::int64_t rows = 1 + static_cast<std::int64_t>(rng.uniform(5));
      const std::int64_t cols = 1 + static_cast<std::int64_t>(rng.uniform(7));
      ml::Tensor t({rows, cols});
      for (std::int64_t j = 0; j < t.size(); ++j) {
        t.at(j) = static_cast<float>(rng.uniform(1000)) / 100.0f - 5.0f;
      }
      original.emplace("tensor-" + std::to_string(i), std::move(t));
    }
    const auto restored =
        ml::deserialize_tensor_map(ml::serialize_tensor_map(original));
    ASSERT_EQ(restored, original);
  }
}

// ---------------------------------------------------------------------------
// ML parity sweeps
// ---------------------------------------------------------------------------

class MlpShapeSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::uint64_t>> {
};

TEST_P(MlpShapeSweep, LiteMatchesSessionEverywhere) {
  const auto [hidden, seed] = GetParam();
  ml::Graph g = ml::mnist_mlp(hidden, seed);
  ml::Session session(g);
  const ml::Dataset d = ml::synthetic_mnist(60, seed + 100);
  for (int step = 0; step < 3; ++step) {
    session.train_step("loss", d.batch_feeds(0, 60), 0.1f);
  }
  const auto model = ml::lite::FlatModel::from_frozen(
      ml::freeze(g, session), "input", "probs");
  ml::lite::LiteInterpreter interp(model);
  for (std::int64_t i = 0; i < 3; ++i) {
    const ml::Tensor expected =
        session.run1("probs", {{"input", d.sample(i)}});
    const ml::Tensor got = interp.invoke(d.sample(i));
    ASSERT_EQ(got.shape(), expected.shape());
    for (std::int64_t j = 0; j < got.size(); ++j) {
      ASSERT_NEAR(got.at(j), expected.at(j), 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MlpShapeSweep,
                         ::testing::Values(std::pair{8l, 1ull},
                                           std::pair{16l, 2ull},
                                           std::pair{33l, 3ull},
                                           std::pair{64l, 4ull},
                                           std::pair{100l, 5ull}));

TEST(QuantizationProperty, WeightErrorBoundedByScale) {
  ml::Graph g = ml::mnist_mlp(24, 9);
  ml::Session s(g);
  const auto float_model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const auto int8_model = float_model.quantized();
  ASSERT_TRUE(int8_model.is_quantized());
  EXPECT_EQ(int8_model.weight_bytes() * 4, float_model.weight_bytes());

  // Reconstructed weights are within scale/2 of the originals.
  for (std::size_t t = 0; t < float_model.tensors().size(); ++t) {
    const auto& fdesc = float_model.tensors()[t];
    const auto& qdesc = int8_model.tensors()[t];
    if (!fdesc.is_weight()) continue;
    const std::int64_t n = ml::num_elements(fdesc.shape);
    for (std::int64_t i = 0; i < n; ++i) {
      const float original = float_model.weights()[fdesc.weight_offset + i];
      const float restored =
          static_cast<float>(int8_model.qweights()[qdesc.weight_offset + i]) *
          qdesc.quant_scale;
      ASSERT_NEAR(original, restored, qdesc.quant_scale / 2 + 1e-7f);
    }
  }
}

TEST(QuantizationProperty, PredictionsMostlyAgree) {
  ml::Graph g = ml::mnist_mlp(32, 5);
  ml::Session session(g);
  const ml::Dataset d = ml::synthetic_mnist(220, 6);
  for (int e = 0; e < 5; ++e) {
    session.train_step("loss", d.batch_feeds(0, 200), 0.1f);
  }
  const auto float_model = ml::lite::FlatModel::from_frozen(
      ml::freeze(g, session), "input", "probs");
  const auto int8_model = float_model.quantized();
  ml::lite::LiteInterpreter float_interp(float_model);
  ml::lite::LiteInterpreter int8_interp(int8_model);
  int agree = 0;
  const int total = 20;
  for (int i = 0; i < total; ++i) {
    const auto argmax = [](const ml::Tensor& t) {
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < t.size(); ++j) {
        if (t.at(j) > t.at(best)) best = j;
      }
      return best;
    };
    if (argmax(float_interp.invoke(d.sample(200 + i % 20))) ==
        argmax(int8_interp.invoke(d.sample(200 + i % 20)))) {
      ++agree;
    }
  }
  EXPECT_GE(agree, total - 2) << "int8 must rarely change the decision";
}

// ---------------------------------------------------------------------------
// Scheduler conservation properties
// ---------------------------------------------------------------------------

TEST(SchedulerProperty, AsyncBoundedByComputeAndSync) {
  crypto::HmacDrbg rng(to_bytes("sched"));
  for (int trial = 0; trial < 8; ++trial) {
    tee::CostModel model;
    tee::Platform p_async("n", tee::TeeMode::Hardware, model);
    tee::Platform p_sync("n", tee::TeeMode::Hardware, model);
    auto e_async = p_async.launch_enclave({.name = "s", .binary_bytes = 4096});
    auto e_sync = p_sync.launch_enclave({.name = "s", .binary_bytes = 4096});
    runtime::UserScheduler sched_async(*e_async, true);
    runtime::UserScheduler sched_sync(*e_sync, false);

    double total_flops = 0;
    const auto tasks = 2 + rng.uniform(5);
    for (std::uint64_t t = 0; t < tasks; ++t) {
      runtime::TaskSpec spec{.name = "t"};
      const auto steps = 1 + rng.uniform(30);
      for (std::uint64_t i = 0; i < steps; ++i) {
        if (rng.uniform(2) == 0) {
          const double flops = static_cast<double>(1000 + rng.uniform(50000));
          total_flops += flops;
          spec.steps.push_back(runtime::ComputeStep{flops});
        } else {
          spec.steps.push_back(
              runtime::SyscallStep{.bytes = rng.uniform(2048)});
        }
      }
      runtime::TaskSpec copy = spec;
      sched_async.spawn(std::move(spec));
      sched_sync.spawn(std::move(copy));
    }
    const auto t_async = sched_async.run();
    const auto t_sync = sched_sync.run();
    // Time is at least the pure compute time and async never loses to sync.
    EXPECT_GE(t_async, model.compute_ns(total_flops));
    EXPECT_LE(t_async, t_sync);
  }
}

// ---------------------------------------------------------------------------
// Dataset properties
// ---------------------------------------------------------------------------

class DatasetSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DatasetSweep, WellFormedAtAnySize) {
  const auto n = GetParam();
  const ml::Dataset d = ml::synthetic_mnist(n, 3);
  ASSERT_EQ(d.size(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto label = d.label_of(i);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, d.num_classes);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DatasetSweep,
                         ::testing::Values(1, 2, 10, 99, 256));

}  // namespace
}  // namespace stf
