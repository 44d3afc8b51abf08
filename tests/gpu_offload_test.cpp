// Tests for the production Slalom GPU-offload path (docs/GPU_OFFLOAD.md):
// InferenceOptions::gpu_offload routed through the Lite interpreter, the
// Session executor and the serving fleet. The contract under test: outputs
// are bit-identical with offload on, off, or fallen back; batched
// verification amortizes the Freivalds check across a batch; a lying GPU is
// caught, the request re-executes in-enclave, and repeated lies distrust
// the GPU outright; the profile categories (profile.gpu / profile.pcie)
// conserve; and every seeded run replays bit-for-bit.
#include <gtest/gtest.h>

#include <vector>

#include "core/loadgen.h"
#include "core/securetf.h"
#include "core/serving.h"
#include "faults/fault_plane.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/slalom.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace stf::core {
namespace {

ml::lite::FlatModel float_mlp(std::int64_t hidden = 16,
                              std::uint64_t seed = 4) {
  ml::Graph g = ml::mnist_mlp(hidden, seed);
  ml::Session s(g);
  return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
}

std::vector<ml::Tensor> mnist_samples(std::int64_t n, std::uint64_t seed) {
  const ml::Dataset d = ml::synthetic_mnist(n, seed);
  std::vector<ml::Tensor> out;
  for (std::int64_t i = 0; i < n; ++i) out.push_back(d.sample(i));
  return out;
}

ml::Graph frozen_graph(const ml::Graph& g) {
  ml::Session s(g);
  return ml::freeze(g, s);
}

ml::Session offload_session(const ml::Graph& frozen,
                            ml::SlalomConfig slalom = {}) {
  return ml::Session(frozen, nullptr, ml::kernels::KernelContext::shared(),
                     {.gpu_offload = true, .slalom = slalom});
}

ml::lite::LiteInterpreter offload_interp(const ml::lite::FlatModel& model,
                                         ml::SlalomConfig slalom = {}) {
  return ml::lite::LiteInterpreter(model, nullptr,
                                   ml::kernels::KernelContext::shared(),
                                   /*weight_streaming=*/false,
                                   /*int8_compute=*/false,
                                   /*gpu_offload=*/true, slalom);
}

// ---------------------------------------------------------------------------
// Bit-identical outputs: the ISSUE acceptance bar for every baseline
// ---------------------------------------------------------------------------

TEST(GpuOffloadTest, LiteOutputsBitIdenticalToEnclaveOnly) {
  const auto model = float_mlp();
  ml::lite::LiteInterpreter plain(model);
  auto offload = offload_interp(model);
  for (const auto& sample : mnist_samples(6, 21)) {
    // Exact equality, not ASSERT_NEAR: the simulated GPU runs the same
    // blocked kernels as the enclave path, so every bit matches.
    EXPECT_EQ(plain.invoke(sample), offload.invoke(sample));
  }
  ASSERT_NE(offload.slalom_stats(), nullptr);
  EXPECT_GT(offload.slalom_stats()->offloaded_ops, 0u);
  EXPECT_EQ(offload.slalom_stats()->verifications,
            offload.slalom_stats()->offloaded_ops);
  EXPECT_EQ(plain.slalom_stats(), nullptr);
}

TEST(GpuOffloadTest, LiteBatchBitIdenticalAndConvCovered) {
  ml::Graph g = ml::mnist_convnet(7);
  ml::Session s(g);
  const auto model = ml::lite::FlatModel::from_frozen(ml::freeze(g, s),
                                                      "input", "probs");
  ml::lite::LiteInterpreter plain(model);
  auto offload = offload_interp(model);
  const auto samples = mnist_samples(4, 11);
  std::vector<const ml::Tensor*> batch;
  for (const auto& t : samples) batch.push_back(&t);
  EXPECT_EQ(plain.invoke_batch(batch), offload.invoke_batch(batch));
  EXPECT_GT(offload.slalom_stats()->offloaded_ops, 0u);
}

TEST(GpuOffloadTest, SessionOutputsBitIdenticalToEnclaveOnly) {
  ml::Graph g = ml::mnist_mlp(24, 9);
  ml::Session trainer(g);
  const ml::Graph frozen = ml::freeze(g, trainer);

  ml::Session plain(frozen);
  ml::SessionOptions opts;
  opts.gpu_offload = true;
  ml::Session offload(frozen, nullptr, ml::kernels::KernelContext::shared(),
                      opts);
  for (const auto& sample : mnist_samples(4, 13)) {
    EXPECT_EQ(plain.run1("probs", {{"input", sample}}),
              offload.run1("probs", {{"input", sample}}));
  }
  ASSERT_NE(offload.slalom_stats(), nullptr);
  EXPECT_GT(offload.slalom_stats()->offloaded_ops, 0u);
  EXPECT_EQ(offload.slalom_stats()->verifications,
            offload.slalom_stats()->offloaded_ops);
}

TEST(GpuOffloadTest, SessionEmptyBatchMatchesOffloadOff) {
  // An empty batch has no output rows to verify: offload on returns what
  // offload off returns, for the conv spot check as for Freivalds.
  for (const ml::Graph& g : {ml::mnist_convnet(9), ml::mnist_mlp(32, 5)}) {
    const ml::Graph frozen = frozen_graph(g);
    const ml::Tensor empty({0, 784});
    const ml::Tensor plain =
        ml::Session(frozen).run1("probs", {{"input", empty}});
    EXPECT_EQ(plain.size(), 0);
    EXPECT_EQ(offload_session(frozen).run1("probs", {{"input", empty}}),
              plain);
  }
}

TEST(GpuOffloadTest, SessionDetectsCorruptedMatmul) {
  const ml::Graph frozen = frozen_graph(ml::mnist_mlp(32, 5));
  ml::Session session = offload_session(frozen);
  int corrupted = 0;
  session.set_gpu_corruption([&corrupted](std::uint64_t, ml::Tensor& t) {
    if (corrupted++ == 1) t.at(t.size() / 2) += 0.75f;  // hit the 2nd matmul
  });
  EXPECT_THROW(
      (void)session.run1("probs", {{"input", mnist_samples(4, 9).front()}}),
      ml::VerificationError);
}

TEST(GpuOffloadTest, SessionDetectsCorruptedConv) {
  const ml::Graph frozen = frozen_graph(ml::mnist_convnet(7));
  ml::SlalomConfig cfg;
  cfg.conv_samples = 64;  // dense spot-checking for the test
  const ml::Tensor image = mnist_samples(1, 3).front();

  ml::Session honest = offload_session(frozen, cfg);
  EXPECT_NO_THROW((void)honest.run1("probs", {{"input", image}}));

  // Corrupt a large patch of the first conv output: spot checks must hit it.
  ml::Session attacked = offload_session(frozen, cfg);
  attacked.set_gpu_corruption([](std::uint64_t, ml::Tensor& t) {
    for (std::int64_t i = 0; i < t.size(); i += 2) t.at(i) += 1.0f;
  });
  EXPECT_THROW((void)attacked.run1("probs", {{"input", image}}),
               ml::VerificationError);
}

TEST(GpuOffloadTest, SessionVerificationIsCheaperThanRecompute) {
  // Freivalds' O(n^2) advantage shows on batched products (for batch 1 the
  // product is already O(kn) and verification costs the same order).
  const ml::Graph frozen = frozen_graph(ml::mnist_mlp(32, 5));
  ml::Session session = offload_session(frozen);
  const auto feeds = ml::synthetic_mnist(64, 9).batch_feeds(0, 64);
  (void)session.run1("probs", {{"input", feeds.at("input")}});
  EXPECT_LT(session.slalom_stats()->verification_flops,
            session.slalom_stats()->gpu_flops / 5)
      << "Freivalds must be asymptotically cheaper than the offloaded work";
}

TEST(GpuOffloadTest, OffloadIsFloatOnly) {
  const auto model = float_mlp();
  const auto q = model.quantized(mnist_samples(4, 3));
  EXPECT_THROW(ml::lite::LiteInterpreter(
                   q, nullptr, ml::kernels::KernelContext::shared(),
                   /*weight_streaming=*/false, /*int8_compute=*/true,
                   /*gpu_offload=*/true),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batched verification
// ---------------------------------------------------------------------------

TEST(GpuOffloadTest, BatchedVerificationAmortizesAcrossTheBatch) {
  // One Freivalds check over the stacked [B, n] product replaces B
  // per-request checks; the dominant k*n term is paid once. At B = 8 the
  // batched verification arithmetic must be well under the per-request sum
  // (the ISSUE acceptance bar).
  const auto model = float_mlp(32, 7);
  const auto samples = mnist_samples(8, 17);

  auto per_request = offload_interp(model);
  for (const auto& t : samples) (void)per_request.invoke(t);

  auto batched = offload_interp(model);
  std::vector<const ml::Tensor*> batch;
  for (const auto& t : samples) batch.push_back(&t);
  (void)batched.invoke_batch(batch);

  const auto& a = *per_request.slalom_stats();
  const auto& b = *batched.slalom_stats();
  EXPECT_LT(b.verification_flops, a.verification_flops / 2)
      << "batched verification must amortize the O(k*n) Freivalds term";
  EXPECT_EQ(b.verifications, b.offloaded_ops);
}

TEST(GpuOffloadTest, VerificationRunsOnTheBlockedKernels) {
  // The Freivalds products execute through kernels::gemm, so offloaded
  // serving shows up in the ml.kernels.* accounting like any enclave math.
  auto& gemm_calls =
      obs::Registry::global().counter(obs::names::kKernelGemmCalls);
  const auto model = float_mlp();
  const auto sample = mnist_samples(1, 5)[0];

  ml::lite::LiteInterpreter plain(model);
  const std::uint64_t before_plain = gemm_calls.value();
  (void)plain.invoke(sample);
  const std::uint64_t plain_delta = gemm_calls.value() - before_plain;

  auto offload = offload_interp(model);
  const std::uint64_t before_offload = gemm_calls.value();
  (void)offload.invoke(sample);
  const std::uint64_t offload_delta = gemm_calls.value() - before_offload;

  // Each offloaded matmul adds the GPU product plus three verification
  // GEMMs (BR, A(BR), CR).
  EXPECT_GT(offload_delta, plain_delta);
}

TEST(GpuOffloadTest, MoreFreivaldsRoundsCostProportionallyMore) {
  const auto model = float_mlp(32, 7);
  const auto sample = mnist_samples(1, 5)[0];
  ml::SlalomConfig one;
  one.freivalds_rounds = 1;
  ml::SlalomConfig four;
  four.freivalds_rounds = 4;
  auto a = offload_interp(model, one);
  auto b = offload_interp(model, four);
  EXPECT_EQ(a.invoke(sample), b.invoke(sample));
  EXPECT_NEAR(b.slalom_stats()->verification_flops,
              4 * a.slalom_stats()->verification_flops,
              a.slalom_stats()->verification_flops * 0.01)
      << "soundness (1/2)^k is bought linearly in k";
}

// ---------------------------------------------------------------------------
// Fallback and distrust
// ---------------------------------------------------------------------------

TEST(GpuOffloadTest, CorruptionFallsBackThenDistrustsTheGpu) {
  const auto model = float_mlp();
  const auto samples = mnist_samples(4, 29);

  SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  SecureTfContext ctx(cfg);

  InferenceOptions clean_opts;
  auto clean = ctx.create_lite_service(model, clean_opts);

  InferenceOptions opts;
  opts.gpu_offload = true;
  opts.slalom.distrust_after = 2;
  auto service = ctx.create_lite_service(model, opts);
  service->set_gpu_corruption([](std::uint64_t, ml::Tensor& t) {
    if (t.size() > 0) t.at(t.size() / 2) += 1.0f;
  });

  // Strike 1: verification catches the lie, the request re-executes
  // in-enclave and the caller still gets the right answer.
  EXPECT_EQ(service->classify(samples[0]), clean->classify(samples[0]));
  EXPECT_EQ(service->gpu_fallbacks(), 1u);
  EXPECT_FALSE(service->gpu_distrusted());

  // Strike 2 trips the threshold: the GPU is distrusted for good.
  EXPECT_EQ(service->classify(samples[1]), clean->classify(samples[1]));
  EXPECT_EQ(service->gpu_fallbacks(), 2u);
  EXPECT_TRUE(service->gpu_distrusted());

  // Distrusted: everything runs in-enclave, no further verifications and
  // no further strikes even though the hook still lies.
  const std::uint64_t verifications = service->slalom_stats()->verifications;
  EXPECT_EQ(service->classify(samples[2]), clean->classify(samples[2]));
  EXPECT_EQ(service->classify(samples[3]), clean->classify(samples[3]));
  EXPECT_EQ(service->slalom_stats()->verifications, verifications);
  EXPECT_EQ(service->gpu_fallbacks(), 2u);
  EXPECT_EQ(service->slalom_stats()->fallbacks, 2u);
}

TEST(GpuOffloadTest, BatchFallbackIsOneStrikeAndStaysCorrect) {
  const auto model = float_mlp();
  const auto samples = mnist_samples(6, 31);
  std::vector<const ml::Tensor*> batch;
  for (const auto& t : samples) batch.push_back(&t);

  SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  SecureTfContext ctx(cfg);
  auto clean = ctx.create_lite_service(model, {});

  InferenceOptions opts;
  opts.gpu_offload = true;
  auto service = ctx.create_lite_service(model, opts);
  service->set_gpu_corruption([](std::uint64_t, ml::Tensor& t) {
    if (t.size() > 0) t.at(0) += 0.5f;
  });

  EXPECT_EQ(service->classify_batch(batch), clean->classify_batch(batch));
  EXPECT_EQ(service->gpu_fallbacks(), 1u)
      << "one verification failure = one strike for the whole batch";
}

// ---------------------------------------------------------------------------
// Cost attribution
// ---------------------------------------------------------------------------

struct ProfilingGuard {
  ProfilingGuard() {
    obs::Registry::global().reset();
    obs::SpanTracer::global().reset();
    obs::AttributionStore::global().reset();
    obs::set_profiling_enabled(true);
  }
  ~ProfilingGuard() { obs::set_profiling_enabled(false); }
};

TEST(GpuOffloadTest, ProfileConservesWithGpuAndPcieCategories) {
  ProfilingGuard guard;
  SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  SecureTfContext ctx(cfg);
  InferenceOptions opts;
  opts.gpu_offload = true;
  auto service = ctx.create_lite_service(float_mlp(), opts);
  for (const auto& sample : mnist_samples(3, 5)) {
    (void)service->classify(sample);
  }

  const auto rows = obs::AttributionStore::global().rows();
  ASSERT_EQ(rows.size(), 3u);
  using C = obs::Category;
  for (const auto& row : rows) {
    EXPECT_TRUE(row.conserved()) << "request " << row.start_ns;
    EXPECT_EQ(row.warp_ns, 0);
    EXPECT_EQ(row.by_category[static_cast<std::size_t>(C::kOther)], 0u)
        << "offload charges must be categorized, not leaked to other";
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kGpu)], 0u);
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kPcie)], 0u);
    EXPECT_GT(row.by_category[static_cast<std::size_t>(C::kCompute)], 0u)
        << "verification + nonlinear layers stay enclave compute";
  }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(GpuOffloadTest, RerunsAreBitIdenticalIncludingStats) {
  const auto model = float_mlp(32, 7);
  const auto samples = mnist_samples(5, 41);
  auto run = [&](std::vector<ml::Tensor>& outs) {
    auto interp = offload_interp(model);
    for (const auto& t : samples) outs.push_back(interp.invoke(t));
    return *interp.slalom_stats();
  };
  std::vector<ml::Tensor> a_out, b_out;
  const ml::SlalomStats a = run(a_out);
  const ml::SlalomStats b = run(b_out);
  EXPECT_EQ(a_out, b_out);
  EXPECT_EQ(a.offloaded_ops, b.offloaded_ops);
  EXPECT_EQ(a.verifications, b.verifications);
  EXPECT_EQ(a.gpu_flops, b.gpu_flops);
  EXPECT_EQ(a.verification_flops, b.verification_flops);
  EXPECT_EQ(a.pcie_bytes, b.pcie_bytes);
}

// ---------------------------------------------------------------------------
// Fleet chaos: a corrupting GPU under production load
// ---------------------------------------------------------------------------

struct GpuChaosFixture {
  ml::lite::FlatModel model = [] {
    ml::Graph g = ml::sized_classifier("gpu-chaos-svc", 2ull << 20, 64);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();

  ServingConfig config() {
    ServingConfig cfg;
    cfg.mode = tee::TeeMode::Simulation;
    cfg.threads = 2;
    cfg.per_thread_scratch = 1ull << 20;
    cfg.inference.container_name = "gpu-chaos-svc";
    cfg.inference.gpu_offload = true;
    cfg.inference.slalom.distrust_after = 3;
    return cfg;
  }

  LoadGenConfig trace_config(std::int64_t count) {
    LoadGenConfig cfg;
    cfg.seed = 9;
    cfg.offered_rps = 2000;
    cfg.request_count = count;
    cfg.input_dim = 64;
    cfg.input_pool = 8;
    return cfg;
  }

  BatchWindowConfig window() {
    BatchWindowConfig w;
    w.max_batch = 4;
    w.max_wait_s = 0.001;
    w.queue_capacity = 0;  // unbounded: isolate corruption handling
    return w;
  }
};

void expect_identical(const std::vector<RequestOutcome>& a,
                      const std::vector<RequestOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(static_cast<int>(a[i].status), static_cast<int>(b[i].status))
        << i;
    EXPECT_EQ(a[i].completion_ns, b[i].completion_ns) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
  }
}

TEST(GpuOffloadChaosTest, CorruptingGpuMidTraceFallsBackAndKeepsServing) {
  GpuChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(80));

  auto serve = [&](std::vector<RequestOutcome>& outs, faults::FaultStats* fs,
                   FleetNodeStatus* n0, FleetNodeStatus* n1) {
    faults::FaultPlane plane(21);
    // Node 1's GPU lies for the whole trace; node 0's stays honest.
    plane.schedule_gpu_corruption(1, 0, ~std::uint64_t{0});
    ServingFleet fleet(f.model, f.config(), 2);
    fleet.attach_fault_plane(plane);
    outs = fleet.serve_trace(trace.requests, f.window());
    if (fs != nullptr) *fs = plane.stats();
    if (n0 != nullptr) *n0 = fleet.node_status(0);
    if (n1 != nullptr) *n1 = fleet.node_status(1);
  };

  std::vector<RequestOutcome> outs;
  faults::FaultStats fs;
  FleetNodeStatus n0, n1;
  serve(outs, &fs, &n0, &n1);

  // Every offered request ends in exactly one terminal outcome, and with an
  // unbounded queue and in-enclave fallback every one of them completes:
  // the fleet's SLO survives the lying GPU.
  ASSERT_EQ(outs.size(), trace.requests.size());
  for (const auto& o : outs) {
    EXPECT_EQ(static_cast<int>(o.status),
              static_cast<int>(RequestStatus::Completed))
        << o.id;
  }

  EXPECT_GT(fs.gpu_corruptions, 0u);
  EXPECT_GT(n1.gpu_fallbacks, 0u) << "node 1 must have caught the lies";
  EXPECT_TRUE(n1.gpu_distrusted)
      << "persistent corruption must distrust the GPU";
  EXPECT_EQ(n0.gpu_fallbacks, 0u) << "node 0's honest GPU takes no strikes";
  EXPECT_FALSE(n0.gpu_distrusted);

  // The whole degraded schedule replays bit-for-bit.
  std::vector<RequestOutcome> rerun;
  serve(rerun, nullptr, nullptr, nullptr);
  expect_identical(outs, rerun);
}

TEST(GpuOffloadChaosTest, NoCorruptionWindowsMatchOffloadOnBaseline) {
  // An attached plane with an empty GPU schedule must not perturb a single
  // outcome relative to the unattached offload fleet.
  GpuChaosFixture f;
  const LoadTrace trace = generate_load(f.trace_config(60));

  ServingFleet plain(f.model, f.config(), 2);
  const auto a = plain.serve_trace(trace.requests, f.window());

  faults::FaultPlane plane(21);
  ServingFleet attached(f.model, f.config(), 2);
  attached.attach_fault_plane(plane);
  const auto b = attached.serve_trace(trace.requests, f.window());

  expect_identical(a, b);
  EXPECT_EQ(attached.node_status(0).gpu_fallbacks, 0u);
  EXPECT_FALSE(attached.node_status(1).gpu_distrusted);
}

}  // namespace
}  // namespace stf::core
