// Tests for the public secureTF API: context lifecycle, shielded model
// storage, CAS attachment, and inference containers across modes.
#include <gtest/gtest.h>

#include <cstring>

#include "core/securetf.h"
#include "crypto/sha256.h"
#include "ml/dataset.h"
#include "ml/models.h"

namespace stf::core {
namespace {

using crypto::to_bytes;

ml::lite::FlatModel tiny_model() {
  ml::Graph g = ml::mnist_mlp(16, 3);
  ml::Session session(g);
  return ml::lite::FlatModel::from_frozen(ml::freeze(g, session), "input",
                                          "probs");
}

SecureTfConfig config_for(tee::TeeMode mode) {
  SecureTfConfig cfg;
  cfg.mode = mode;
  return cfg;
}

TEST(SecureTfContextTest, RequiresKeyBeforeShieldedIo) {
  SecureTfContext ctx(config_for(tee::TeeMode::Hardware));
  EXPECT_THROW(ctx.write_file("/secure/x", to_bytes("d")), std::logic_error);
  ctx.provision_fs_key(crypto::HmacDrbg(to_bytes("k")).generate(32));
  EXPECT_NO_THROW(ctx.write_file("/secure/x", to_bytes("d")));
  EXPECT_EQ(ctx.read_file("/secure/x"), to_bytes("d"));
}

TEST(SecureTfContextTest, ModelSavedEncryptedAndRestored) {
  SecureTfContext ctx(config_for(tee::TeeMode::Hardware));
  ctx.provision_fs_key(crypto::HmacDrbg(to_bytes("k")).generate(32));
  const auto model = tiny_model();
  ctx.save_lite_model("/secure/model.stflite", model);

  // The host sees only ciphertext.
  const auto raw = ctx.host_fs().read("/secure/model.stflite");
  ASSERT_TRUE(raw.has_value());
  const auto plain = model.serialize();
  EXPECT_NE(*raw, plain);

  const auto restored = ctx.load_lite_model("/secure/model.stflite");
  EXPECT_EQ(restored.serialize(), plain);
}

TEST(SecureTfContextTest, TamperedModelFileRejected) {
  SecureTfContext ctx(config_for(tee::TeeMode::Hardware));
  ctx.provision_fs_key(crypto::HmacDrbg(to_bytes("k")).generate(32));
  ctx.save_lite_model("/secure/model.stflite", tiny_model());
  ASSERT_TRUE(ctx.host_fs().tamper("/secure/model.stflite", 100));
  EXPECT_THROW((void)ctx.load_lite_model("/secure/model.stflite"),
               runtime::SecurityError);
}

TEST(SecureTfContextTest, AttachCasProvisionsFsKey) {
  tee::ProvisioningAuthority authority;
  tee::CostModel model;
  tee::Platform cas_platform("cas-host", tee::TeeMode::Hardware, model,
                             authority);
  cas::CasServer cas(cas_platform, authority, to_bytes("cas-seed"));

  SecureTfContext ctx(config_for(tee::TeeMode::Hardware), &authority);
  cas::EnclavePolicy policy;
  policy.expected_mrenclave = ctx.service_measurement();
  policy.secrets = {{"fs-key", crypto::HmacDrbg(to_bytes("prov")).generate(32)}};
  cas.register_policy("digitization", policy);

  const auto outcome = ctx.attach_cas(cas, "digitization");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // The released key is installed: shielded I/O now works.
  ctx.write_file("/secure/doc", to_bytes("handwritten page"));
  EXPECT_EQ(ctx.read_file("/secure/doc"), to_bytes("handwritten page"));
}

TEST(SecureTfContextTest, AttachCasFailsClosedOnWrongMeasurement) {
  tee::ProvisioningAuthority authority;
  tee::CostModel model;
  tee::Platform cas_platform("cas-host", tee::TeeMode::Hardware, model,
                             authority);
  cas::CasServer cas(cas_platform, authority, to_bytes("cas-seed"));

  SecureTfContext ctx(config_for(tee::TeeMode::Hardware), &authority);
  cas::EnclavePolicy policy;
  policy.expected_mrenclave.fill(0xee);  // expects some other binary
  policy.secrets = {{"fs-key", crypto::HmacDrbg(to_bytes("p")).generate(32)}};
  cas.register_policy("svc", policy);

  const auto outcome = ctx.attach_cas(cas, "svc");
  EXPECT_FALSE(outcome.ok);
  EXPECT_THROW(ctx.write_file("/secure/x", to_bytes("d")), std::logic_error)
      << "no secrets means no shielded I/O";
}

TEST(InferenceServiceTest, ClassifiesIdenticallyInAllModes) {
  const auto model = tiny_model();
  const ml::Dataset data = ml::synthetic_mnist(3, 6);

  std::optional<ml::Tensor> reference;
  for (const auto mode : {tee::TeeMode::Native, tee::TeeMode::Simulation,
                          tee::TeeMode::Hardware}) {
    SecureTfContext ctx(config_for(mode));
    auto service = ctx.create_lite_service(model);
    const ml::Tensor probs = service->classify(data.sample(0));
    if (!reference.has_value()) {
      reference = probs;
    } else {
      EXPECT_EQ(probs, *reference)
          << "mode must not change results (" << to_string(mode) << ")";
    }
  }
}

TEST(InferenceServiceTest, HardwareSlowerThanSimSlowerThanNative) {
  const auto model = tiny_model();
  const ml::Dataset data = ml::synthetic_mnist(1, 6);
  auto latency = [&](tee::TeeMode mode) {
    SecureTfContext ctx(config_for(mode));
    auto service = ctx.create_lite_service(model);
    (void)service->classify(data.sample(0));  // warm-up (faults the model in)
    (void)service->classify(data.sample(0));
    return service->last_latency_ms();
  };
  const double native = latency(tee::TeeMode::Native);
  const double sim = latency(tee::TeeMode::Simulation);
  const double hw = latency(tee::TeeMode::Hardware);
  EXPECT_GT(sim, native);
  EXPECT_GT(hw, sim);
}

TEST(InferenceServiceTest, FullTfPaysMoreThanLiteInHardware) {
  // §5.3 #4: the 87.4 MB full-TF container vs the 1.9 MB Lite container.
  ml::Graph g = ml::sized_classifier("m", 48ull << 20);
  ml::Session session(g);
  const ml::Graph frozen = ml::freeze(g, session);
  const auto lite_model =
      ml::lite::FlatModel::from_frozen(frozen, "input", "probs");
  const ml::Dataset data = ml::synthetic_cifar10(1, 2);

  // Shrink the EPC so the effect shows at test-sized models quickly.
  SecureTfConfig cfg = config_for(tee::TeeMode::Hardware);
  cfg.model.epc_bytes = 56ull << 20;

  SecureTfContext lite_ctx(cfg);
  auto lite = lite_ctx.create_lite_service(lite_model);
  (void)lite->classify(data.sample(0));
  (void)lite->classify(data.sample(0));
  const double lite_ms = lite->last_latency_ms();

  SecureTfContext full_ctx(cfg);
  auto full = full_ctx.create_full_tf_service(frozen);
  (void)full->classify(data.sample(0));
  (void)full->classify(data.sample(0));
  const double full_ms = full->last_latency_ms();

  EXPECT_GT(full_ms, lite_ms * 3)
      << "full-TF container must thrash where Lite fits (lite=" << lite_ms
      << "ms full=" << full_ms << "ms)";
}

TEST(InferenceServiceTest, LabelHelperAgreesWithProbs) {
  const auto model = tiny_model();
  SecureTfContext ctx(config_for(tee::TeeMode::Simulation));
  auto service = ctx.create_lite_service(model);
  const ml::Dataset data = ml::synthetic_mnist(5, 6);
  for (std::int64_t i = 0; i < 5; ++i) {
    const auto probs = service->classify(data.sample(i));
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < probs.size(); ++j) {
      if (probs.at(j) > probs.at(best)) best = j;
    }
    EXPECT_EQ(service->classify_label(data.sample(i)), best);
  }
}

// Pins everything the container computes and charges around its executor,
// per configuration: the output bytes, the platform clock and the bits of
// last_latency_ms() after each call, the EPC faults, loads and evictions,
// the enclave's syscall count, the GPU health answers and every offload
// counter. Each config makes two classify calls and, on the Lite path, one
// classify_batch of 3; the full-TF path must refuse the batch before it
// charges anything. The 40-page EPC makes the order of the binary touch,
// the heap sweeps and the executor's own charges show in the paging. The
// digest was computed from the container with one constructor body per
// executor, one request body per call shape and its own GPU failure
// counter; a mismatch means an output or a charge moved.
TEST(InferenceServiceTest, AccountingMatchesPinnedDigest) {
  ml::Graph g = ml::mnist_mlp(32, 5);
  ml::Session session(g);
  const ml::Graph frozen = ml::freeze(g, session);
  const auto model = ml::lite::FlatModel::from_frozen(frozen, "input", "probs");
  const ml::Dataset calibration = ml::synthetic_mnist(4, 21);
  std::vector<ml::Tensor> calib;
  for (std::int64_t i = 0; i < 4; ++i) calib.push_back(calibration.sample(i));
  const auto quantized = model.quantized(calib);
  const ml::Dataset data = ml::synthetic_mnist(5, 33);

  struct Config {
    tee::TeeMode mode;
    bool full_tf = false;
    bool int8 = false;
    int lying_requests = 0;  // the GPU corrupts its results on these first
    InferenceOptions options;
  };
  const auto base = [] {
    InferenceOptions o;
    o.container_name = "digest";
    o.binary_bytes = 16 * 4096;
    return o;
  };
  std::vector<Config> configs;
  for (const auto mode : {tee::TeeMode::Native, tee::TeeMode::Simulation,
                          tee::TeeMode::Hardware}) {
    configs.push_back({mode, false, false, 0, base()});
  }
  {
    Config c{tee::TeeMode::Hardware, false, false, 0, base()};
    c.options.weight_streaming = true;
    configs.push_back(c);
  }
  {
    Config c{tee::TeeMode::Hardware, false, false, 0, base()};
    c.options.sync_syscalls = true;
    c.options.runtime_overhead = 1.08;
    c.options.hot_binary_fraction = 0.04;
    c.options.extra_gflops_per_inference = 0.002;
    configs.push_back(c);  // the Graphene profile of bench_classification
  }
  {
    Config c{tee::TeeMode::Hardware, false, true, 0, base()};
    c.options.int8_compute = true;
    configs.push_back(c);
  }
  {
    Config c{tee::TeeMode::Hardware, false, false, 2, base()};
    c.options.gpu_offload = true;
    c.options.slalom.distrust_after = 2;
    configs.push_back(c);
  }
  configs.push_back({tee::TeeMode::Native, true, false, 0, base()});
  for (const bool planner : {false, true}) {
    Config c{tee::TeeMode::Hardware, true, false, 0, base()};
    c.options.framework_heap_bytes = 12 * 4096;
    c.options.heap_passes_per_inference = 3;
    c.options.memory_planner = planner;
    configs.push_back(c);
  }
  {
    Config c{tee::TeeMode::Hardware, true, false, 1, base()};
    c.options.gpu_offload = true;
    configs.push_back(c);
  }

  crypto::Sha256 digest;
  const auto put = [&](std::uint64_t v) {
    std::uint8_t b[8];
    crypto::store_be64(b, v);
    digest.update(crypto::BytesView(b, 8));
  };
  const auto put_double = [&](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put(bits);
  };
  for (const Config& c : configs) {
    tee::CostModel cost;
    cost.epc_bytes = 40 * cost.page_size;
    tee::Platform platform("digest", c.mode, cost);
    std::unique_ptr<InferenceService> service =
        c.full_tf ? std::make_unique<InferenceService>(platform, frozen,
                                                       c.options)
                  : std::make_unique<InferenceService>(
                        platform, c.int8 ? quantized : model, c.options);
    int request = 0;
    service->set_gpu_corruption([&](std::uint64_t, ml::Tensor& t) {
      if (request < c.lying_requests) t.at(t.size() / 2) += 1.0f;
    });
    const auto record = [&](const std::vector<ml::Tensor>& outs) {
      for (const ml::Tensor& out : outs) {
        for (const auto d : out.shape()) put(static_cast<std::uint64_t>(d));
        digest.update(crypto::BytesView(
            reinterpret_cast<const std::uint8_t*>(out.data()),
            out.byte_size()));
      }
      put(platform.clock().now_ns());
      put_double(service->last_latency_ms());
      const tee::EpcStats& epc = platform.epc().stats();
      put(epc.faults);
      put(epc.loads);
      put(epc.evictions);
      put(service->enclave() ? service->enclave()->syscall_count() : 0);
      put(service->gpu_fallbacks());
      put(service->gpu_distrusted() ? 1 : 0);
      if (const ml::SlalomStats* s = service->slalom_stats()) {
        put(s->offloaded_ops);
        put(s->verifications);
        put(s->fallbacks);
        put_double(s->gpu_flops);
        put_double(s->verification_flops);
        put(s->pcie_bytes);
      }
      ++request;
    };
    for (std::int64_t i = 0; i < 2; ++i) {
      record({service->classify(data.sample(i))});
    }
    std::vector<ml::Tensor> batch;
    for (std::int64_t i = 2; i < 5; ++i) batch.push_back(data.sample(i));
    const std::vector<const ml::Tensor*> inputs = {&batch[0], &batch[1],
                                                   &batch[2]};
    if (c.full_tf) {
      EXPECT_THROW((void)service->classify_batch(inputs), std::logic_error);
      record({});
    } else {
      record(service->classify_batch(inputs));
    }
    EXPECT_TRUE(service->classify_batch({}).empty());
  }
  EXPECT_EQ(crypto::to_hex(digest.finish()),
            "c66b690366f270999bda8e4c1dc36d4790156da52f19dbd89d6650db1f905ffe");
}

TEST(WorkloadsTest, SpecsMatchPaperSizes) {
  EXPECT_EQ(densenet_spec().weight_bytes, 42ull << 20);
  EXPECT_EQ(inception_v3_spec().weight_bytes, 91ull << 20);
  EXPECT_EQ(inception_v4_spec().weight_bytes, 163ull << 20);
  EXPECT_EQ(kLiteBinaryBytes, 1'900'000u);
  EXPECT_EQ(kFullTfBinaryBytes, 87'400'000u);
  // The stand-in graphs hit their byte budgets.
  const auto g = densenet_spec().build_graph();
  EXPECT_NEAR(static_cast<double>(g.parameter_bytes()) /
                  static_cast<double>(42ull << 20),
              1.0, 0.15);
}

}  // namespace
}  // namespace stf::core
