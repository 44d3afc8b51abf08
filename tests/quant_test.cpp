// Tests for the true int8 execution path (docs/QUANTIZATION.md): activation
// calibration, the version-3 FlatModel format, quantized kernel accounting,
// and the EPC / latency win the path exists for.
#include <gtest/gtest.h>

#include "core/loadgen.h"
#include "core/securetf.h"
#include "core/serving.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace stf {
namespace {

ml::lite::FlatModel float_mlp(std::int64_t hidden = 16, std::uint64_t seed = 4) {
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

ml::lite::LiteInterpreter int8_interp(const ml::lite::FlatModel& model) {
  return ml::lite::LiteInterpreter(model, nullptr,
                                   ml::kernels::KernelContext::shared(),
                                   /*weight_streaming=*/false,
                                   /*int8_compute=*/true);
}

std::uint32_t header_version(const crypto::Bytes& bytes) {
  // Big-endian u32 right after the magic.
  return (static_cast<std::uint32_t>(bytes[4]) << 24) |
         (static_cast<std::uint32_t>(bytes[5]) << 16) |
         (static_cast<std::uint32_t>(bytes[6]) << 8) |
         static_cast<std::uint32_t>(bytes[7]);
}

std::int64_t argmax_of(const ml::Tensor& probs) {
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < probs.size(); ++j) {
    if (probs.at(j) > probs.at(best)) best = j;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Calibration + format version 3
// ---------------------------------------------------------------------------

TEST(QuantCalibrationTest, CalibratedRoundTripKeepsRangesBitForBit) {
  const auto model = float_mlp();
  const auto q = model.quantized(mnist_samples(8, 21));
  EXPECT_TRUE(q.is_quantized());
  EXPECT_TRUE(q.is_calibrated());

  const crypto::Bytes bytes = q.serialize();
  EXPECT_EQ(header_version(bytes), 3u);
  const auto restored = ml::lite::FlatModel::deserialize(bytes);
  EXPECT_TRUE(restored.is_calibrated());
  EXPECT_EQ(restored.serialize(), bytes);

  // The restored model runs the int8 path with identical results: the
  // calibrated ranges made the round trip exactly.
  auto a = int8_interp(q);
  auto b = int8_interp(restored);
  const auto eval = mnist_samples(3, 9);
  for (const auto& sample : eval) {
    EXPECT_EQ(a.invoke(sample), b.invoke(sample));
  }
}

TEST(QuantCalibrationTest, UncalibratedFormatStaysVersion2) {
  const auto model = float_mlp();
  const auto q = model.quantized();
  // Calibration must not tax models that never opt in: weight-only int8
  // files keep the old header and stay byte-identical to what PR-3 wrote.
  EXPECT_EQ(header_version(q.serialize()), 2u);
  EXPECT_EQ(header_version(model.serialize()), 2u);

  // Old-format files still load (and still run on the dequantizing path).
  const auto restored = ml::lite::FlatModel::deserialize(q.serialize());
  EXPECT_FALSE(restored.is_calibrated());
  ml::lite::LiteInterpreter legacy(restored);
  EXPECT_EQ(legacy.invoke(mnist_samples(1, 5)[0]).size(), 10);
}

TEST(QuantCalibrationTest, Int8ComputeRequiresCalibratedModel) {
  const auto model = float_mlp();
  EXPECT_THROW(int8_interp(model), std::invalid_argument);
  EXPECT_THROW(int8_interp(model.quantized()), std::invalid_argument);
  EXPECT_NO_THROW(int8_interp(model.quantized(mnist_samples(2, 3))));
}

TEST(QuantCalibrationTest, CalibrationInputValidation) {
  const auto model = float_mlp();
  EXPECT_THROW(model.quantized(std::vector<ml::Tensor>{}),
               std::invalid_argument);
  const auto q = model.quantized();
  EXPECT_THROW(q.quantized(mnist_samples(1, 2)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Accuracy
// ---------------------------------------------------------------------------

TEST(QuantAccuracyTest, Top1AgreementOnSeededEvalSet) {
  const auto model = float_mlp(32, 7);
  const auto q = model.quantized(mnist_samples(16, 21));
  ml::lite::LiteInterpreter fp(model);
  auto i8 = int8_interp(q);
  const auto eval = mnist_samples(50, 33);
  std::int64_t agree = 0;
  for (const auto& sample : eval) {
    if (argmax_of(fp.invoke(sample)) == argmax_of(i8.invoke(sample))) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 45) << "top-1 agreement " << agree << "/50";
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

TEST(QuantAccountingTest, LegacyDequantChargeUnchanged) {
  const auto model = float_mlp();
  const auto q = model.quantized(mnist_samples(4, 13));
  const auto input = mnist_samples(1, 6)[0];

  ml::lite::LiteInterpreter fp(model);
  (void)fp.invoke(input);
  const double float_flops = fp.last_invoke_flops();

  // The dequantizing path charges the float flops plus one dequant per
  // weight element — the formula the PR-3 ablation baselines bake in.
  ml::lite::LiteInterpreter legacy(q);
  (void)legacy.invoke(input);
  EXPECT_EQ(legacy.last_invoke_flops(),
            float_flops + static_cast<double>(model.weights().size()));
  EXPECT_EQ(legacy.last_invoke_int8_ops(), 0.0);
}

TEST(QuantAccountingTest, Int8PathChargesMacsNotDequant) {
  const auto model = float_mlp();
  const auto q = model.quantized(mnist_samples(4, 13));
  const auto input = mnist_samples(1, 6)[0];

  ml::lite::LiteInterpreter fp(model);
  (void)fp.invoke(input);

  auto i8 = int8_interp(q);
  (void)i8.invoke(input);
  // The MAC volume dominates and moved to the int8 meter; only the float
  // tail (Softmax + friends) still charges flops.
  EXPECT_GT(i8.last_invoke_int8_ops(), 0.0);
  EXPECT_LT(i8.last_invoke_flops(), fp.last_invoke_flops() / 2);
}

TEST(QuantAccountingTest, QuantCountersAdvance) {
  auto& reg = obs::Registry::global();
  auto& gemm = reg.counter(obs::names::kQuantGemmCalls);
  auto& macs = reg.counter(obs::names::kQuantInt8Macs);
  auto& requants = reg.counter(obs::names::kQuantRequantizedElements);
  auto& invokes = reg.counter(obs::names::kQuantInt8Invokes);
  auto& calibrations = reg.counter(obs::names::kQuantCalibrationRuns);

  const std::uint64_t gemm0 = gemm.value(), macs0 = macs.value(),
                      req0 = requants.value(), inv0 = invokes.value(),
                      cal0 = calibrations.value();
  const auto model = float_mlp();
  const auto q = model.quantized(mnist_samples(3, 17));
  EXPECT_EQ(calibrations.value(), cal0 + 3);

  auto i8 = int8_interp(q);
  (void)i8.invoke(mnist_samples(1, 8)[0]);
  EXPECT_GT(gemm.value(), gemm0);
  EXPECT_GT(macs.value(), macs0);
  EXPECT_GT(requants.value(), req0);
  EXPECT_EQ(invokes.value(), inv0 + 1);
}

// ---------------------------------------------------------------------------
// The point of the feature: EPC pressure + latency
// ---------------------------------------------------------------------------

TEST(QuantServiceTest, Int8ComputeBeatsDequantUnderEpcPressure) {
  // 12 MB of float weights quantize to 3 MB against a 2 MB EPC: the weight
  // arena thrashes either way, and the dequantizing path's larger float
  // activations keep re-faulting pages the int8 path never evicts.
  ml::Graph g = ml::sized_classifier("quant-svc", 12ull << 20);
  ml::Session s(g);
  const auto fm =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const ml::Dataset d = ml::synthetic_cifar10(6, 11);
  std::vector<ml::Tensor> calib;
  for (std::int64_t i = 0; i < 4; ++i) calib.push_back(d.sample(i));
  const auto q = fm.quantized(calib);

  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.model.epc_bytes = 2ull << 20;

  const auto run = [&](bool int8_compute) {
    core::SecureTfContext ctx(cfg);
    core::InferenceOptions opts;
    opts.syscalls_per_inference = 4;
    opts.int8_compute = int8_compute;
    auto svc = ctx.create_lite_service(q, opts);
    double latency_ms = 0;
    for (std::int64_t i = 0; i < 3; ++i) {
      (void)svc->classify(d.sample(4 + i % 2));
      latency_ms += svc->last_latency_ms();
    }
    return std::pair<std::uint64_t, double>(ctx.platform().epc().stats().loads,
                                            latency_ms);
  };

  const auto [storage_loads, storage_ms] = run(false);
  const auto [compute_loads, compute_ms] = run(true);
  EXPECT_LT(compute_loads, storage_loads);
  EXPECT_LT(compute_ms, storage_ms);
}

TEST(QuantServiceTest, FullTensorFlowPathRejectsInt8Compute) {
  ml::Graph g = ml::mnist_mlp(8, 2);
  ml::Session s(g);
  ml::Graph frozen = ml::freeze(g, s);
  core::SecureTfConfig cfg;
  core::SecureTfContext ctx(cfg);
  core::InferenceOptions opts;
  opts.int8_compute = true;
  EXPECT_THROW(ctx.create_full_tf_service(std::move(frozen), opts),
               std::invalid_argument);
}

TEST(QuantServingTest, ServingNodeServesInt8Batches) {
  ml::Graph g = ml::sized_classifier("quant-serve", 8ull << 20);
  ml::Session s(g);
  const auto fm =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const ml::Dataset d = ml::synthetic_cifar10(4, 19);
  std::vector<ml::Tensor> calib;
  for (std::int64_t i = 0; i < 4; ++i) calib.push_back(d.sample(i));
  const auto q = fm.quantized(calib);

  core::ServingConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  cfg.threads = 2;
  cfg.per_thread_scratch = 2ull << 20;
  cfg.inference.container_name = "quant-serve";
  cfg.inference.int8_compute = true;

  core::LoadGenConfig load;
  load.seed = 5;
  load.offered_rps = 2000;
  load.request_count = 40;
  load.input_dim = 3072;
  load.input_pool = 8;
  const core::LoadTrace trace = core::generate_load(load);

  core::ServingFleet fleet(q, cfg, 1);
  core::BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.001;
  const auto outcomes = fleet.serve_trace(trace.requests, window);
  const core::TrafficSummary summary = core::summarize(outcomes);
  EXPECT_EQ(summary.completed, 40);
  EXPECT_EQ(summary.shed_queue_full + summary.shed_expired, 0);
}

}  // namespace
}  // namespace stf
