// Tests for the multi-threaded serving node / fleet (the Figure 7 machinery
// as library code) and the continuous-batching request plane
// (docs/SERVING.md): open-loop load generation, cross-request batching,
// SLO-aware shedding.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/loadgen.h"
#include "core/serving.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "runtime/errors.h"

namespace stf::core {
namespace {

struct ServingFixture {
  ml::lite::FlatModel model = [] {
    ml::Graph g = ml::sized_classifier("svc", 24ull << 20);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();
  ml::Tensor image = ml::synthetic_cifar10(1, 3).sample(0);

  ServingConfig config(tee::TeeMode mode, unsigned threads) {
    ServingConfig cfg;
    cfg.mode = mode;
    cfg.threads = threads;
    cfg.per_thread_scratch = 2ull << 20;
    cfg.inference.container_name = "svc";
    return cfg;
  }
};

TEST(ServingNodeTest, SimScalesNearLinearlyToPhysicalCores) {
  ServingFixture f;
  ServingNode one(f.model, f.config(tee::TeeMode::Simulation, 1));
  ServingNode four(f.model, f.config(tee::TeeMode::Simulation, 4));
  const double t1 = one.estimate_stream_seconds(f.image, 400);
  const double t4 = four.estimate_stream_seconds(f.image, 400);
  EXPECT_NEAR(t1 / t4, 4.0, 0.4);
}

TEST(ServingNodeTest, HyperthreadsSubLinear) {
  ServingFixture f;
  ServingNode four(f.model, f.config(tee::TeeMode::Simulation, 4));
  ServingNode eight(f.model, f.config(tee::TeeMode::Simulation, 8));
  const double t4 = four.estimate_stream_seconds(f.image, 400);
  const double t8 = eight.estimate_stream_seconds(f.image, 400);
  const double speedup = t4 / t8;
  EXPECT_GT(speedup, 1.0);
  // Only the compute share scales with threads and hyperthreads deliver a
  // fraction of a core, so doubling threads must stay visibly below 2x.
  EXPECT_LT(speedup, 1.95) << "8 hyperthreads are not 8 cores";
}

TEST(ServingNodeTest, EpcPressureShowsInHardwareWithBigScratch) {
  ServingFixture f;
  // Shrink the EPC so 4 threads' scratch + model overflow it.
  ServingConfig cfg = f.config(tee::TeeMode::Hardware, 4);
  cfg.model.epc_bytes = 30ull << 20;
  cfg.per_thread_scratch = 4ull << 20;
  ServingNode node(f.model, cfg);
  // The estimate's warm-up and measured rounds classify 32 requests.
  (void)node.estimate_stream_seconds(f.image, 16);
  EXPECT_GT(node.epc_faults(), 1000u);
}

TEST(ServingFleetTest, ScaleOutNearLinear) {
  ServingFixture f;
  ServingFleet one(f.model, f.config(tee::TeeMode::Simulation, 2), 1);
  ServingFleet three(f.model, f.config(tee::TeeMode::Simulation, 2), 3);
  EXPECT_EQ(three.node_count(), 3u);
  const double t1 = one.estimate_stream_seconds(f.image, 300);
  const double t3 = three.estimate_stream_seconds(f.image, 300);
  EXPECT_NEAR(t1 / t3, 3.0, 0.35);
}

// ---- open-loop load generation -----------------------------------------

TEST(ServingConfigTest, RejectsFleetsItCannotServe) {
  // No node, or a node with no lane, has nowhere to run a request.
  ml::Graph g = ml::mnist_mlp(16, 3);
  ml::Session s(g);
  const auto model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const ml::Tensor image = ml::synthetic_mnist(1, 3).sample(0);
  ServingConfig cfg;
  cfg.mode = tee::TeeMode::Native;
  EXPECT_THROW(ServingFleet(model, cfg, 0).estimate_stream_seconds(image, 10),
               std::invalid_argument);
  cfg.threads = 0;
  EXPECT_THROW(ServingNode(model, cfg, 0).estimate_stream_seconds(image, 10),
               std::invalid_argument);
}

TEST(LoadGenTest, SeededTracesAreByteReproducible) {
  LoadGenConfig cfg;
  cfg.seed = 7;
  cfg.offered_rps = 200;
  cfg.request_count = 64;
  cfg.input_dim = 32;
  cfg.input_pool = 8;
  cfg.slo_s = 0.01;
  for (const ArrivalProcess p : {ArrivalProcess::Poisson,
                                 ArrivalProcess::Bursty,
                                 ArrivalProcess::Diurnal}) {
    cfg.process = p;
    const LoadTrace a = generate_load(cfg);
    const LoadTrace b = generate_load(cfg);
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << to_string(p);
    cfg.seed = 8;
    const LoadTrace c = generate_load(cfg);
    EXPECT_NE(a.fingerprint(), c.fingerprint()) << to_string(p);
    cfg.seed = 7;
  }
}

// Fingerprints pinned from the generator before the keyed-HMAC DRBG: every
// arrival, deadline and image byte is unchanged, on each arrival process.
TEST(LoadGenTest, FingerprintsMatchPinnedDigests) {
  const std::map<std::pair<std::uint64_t, ArrivalProcess>, std::string>
      pinned = {
          {{1, ArrivalProcess::Poisson},
           "a5ce8cb4d255a40e50feaba5eaa44cd24f2641913b17ed794f9dcbf0b643ba40"},
          {{1, ArrivalProcess::Bursty},
           "79f1ca57cfc67c7356f5521ffae62b6310a1a079a1a2bf5f59d9cfbfd589972e"},
          {{1, ArrivalProcess::Diurnal},
           "76c50e148ea19d34833dac231b044ab2634b04f5f58c2cacb4da8cfbd49dbd84"},
          {{2, ArrivalProcess::Poisson},
           "b3faa135f3906ac9626494bdca8da5827e101ef1fe247c4deaf06d4d65937f7a"},
          {{2, ArrivalProcess::Bursty},
           "5df2e09ed2754c73ee3408f97d37f4a8ead7e087be3ed0f73db4421c1d154279"},
          {{2, ArrivalProcess::Diurnal},
           "77f8f95084f856f263d28bb3c20430e1772aae4123d782a9084eb78d000465c0"},
      };
  for (const auto& [key, expect] : pinned) {
    LoadGenConfig cfg;
    cfg.seed = key.first;
    cfg.process = key.second;
    cfg.offered_rps = 900;
    cfg.request_count = 300;
    cfg.input_dim = 64;
    cfg.input_pool = 8;
    cfg.slo_s = 0.1;
    EXPECT_EQ(generate_load(cfg).fingerprint(), expect)
        << "seed=" << key.first << " " << to_string(key.second);
  }
}

TEST(LoadGenTest, TracesAreSortedDistinctAndDeadlined) {
  LoadGenConfig cfg;
  cfg.process = ArrivalProcess::Bursty;
  cfg.offered_rps = 500;
  cfg.request_count = 100;
  cfg.input_dim = 16;
  cfg.input_pool = 4;
  cfg.slo_s = 0.005;
  const LoadTrace trace = generate_load(cfg);
  ASSERT_EQ(trace.requests.size(), 100u);
  ASSERT_EQ(trace.images.size(), 4u);
  std::uint64_t prev = 0;
  for (const Request& r : trace.requests) {
    EXPECT_GE(r.arrival_ns, prev);
    prev = r.arrival_ns;
    EXPECT_EQ(r.deadline_ns, r.arrival_ns + 5'000'000u);
    ASSERT_NE(r.input, nullptr);
    EXPECT_EQ(r.input, &trace.images[static_cast<std::size_t>(r.id) % 4]);
  }
  // The pool images are pairwise distinct (distinct DRBG draws).
  std::set<std::string> seen;
  for (const ml::Tensor& img : trace.images) {
    std::string key(reinterpret_cast<const char*>(img.data()),
                    img.byte_size());
    EXPECT_TRUE(seen.insert(std::move(key)).second);
  }
}

TEST(LoadGenTest, MeanRateMatchesOfferedLoad) {
  LoadGenConfig cfg;
  cfg.offered_rps = 1000;
  cfg.request_count = 4000;
  cfg.input_dim = 4;
  // The 4-second trace must cover many burst cycles / diurnal periods, or
  // truncation at the Nth arrival biases the measured rate upward.
  cfg.burst_dwell_s = 0.01;
  cfg.diurnal_period_s = 0.25;
  for (const ArrivalProcess p : {ArrivalProcess::Poisson,
                                 ArrivalProcess::Bursty,
                                 ArrivalProcess::Diurnal}) {
    cfg.process = p;
    const LoadTrace trace = generate_load(cfg);
    const double span_s =
        static_cast<double>(trace.requests.back().arrival_ns) / 1e9;
    const double rate = static_cast<double>(cfg.request_count) / span_s;
    EXPECT_NEAR(rate / cfg.offered_rps, 1.0, 0.25) << to_string(p);
  }
}

TEST(LoadGenTest, RejectsNonsensicalConfigs) {
  LoadGenConfig cfg;
  cfg.offered_rps = 0;
  EXPECT_THROW(generate_load(cfg), std::invalid_argument);
  cfg = {};
  cfg.request_count = 0;
  EXPECT_THROW(generate_load(cfg), std::invalid_argument);
  cfg = {};
  cfg.process = ArrivalProcess::Bursty;
  cfg.burst_duty = 0.5;
  cfg.burst_rate_factor = 4;  // duty * factor >= 1: mean rate impossible
  EXPECT_THROW(generate_load(cfg), std::invalid_argument);
  cfg = {};
  cfg.process = ArrivalProcess::Diurnal;
  cfg.diurnal_amplitude = 1.0;
  EXPECT_THROW(generate_load(cfg), std::invalid_argument);
}

// ---- cross-request batching --------------------------------------------

struct BatchFixture {
  // Small MLP: pure dense path through Scale/Softmax.
  ml::lite::FlatModel mlp = [] {
    ml::Graph g = ml::sized_classifier("batch-mlp", 2ull << 20, 64);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();
  // Convnet: exercises Conv2D / pooling / Reshape under batching.
  ml::lite::FlatModel convnet = [] {
    ml::Graph g = ml::mnist_convnet(3);
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  }();
};

std::vector<ml::Tensor> make_inputs(std::int64_t n, std::int64_t dim,
                                    std::uint64_t salt) {
  std::vector<ml::Tensor> inputs;
  for (std::int64_t i = 0; i < n; ++i) {
    ml::Tensor t(ml::Shape{1, dim});
    for (std::int64_t j = 0; j < dim; ++j) {
      t.data()[j] =
          static_cast<float>((i * dim + j + salt) % 97) / 97.0f - 0.5f;
    }
    inputs.push_back(std::move(t));
  }
  return inputs;
}

// Batches of up to 8 rows run the small-batch GEMM schedule, larger ones
// the row-block schedule, and single invokes the small-batch one; the
// output layer's k = 1024 spans four KC panels.
TEST(LiteBatchTest, BatchedMlpIsBitIdenticalToSingleInvokes) {
  BatchFixture f;
  ml::lite::LiteInterpreter single(f.mlp);
  ml::lite::LiteInterpreter batched(f.mlp);
  for (const std::int64_t size : {5, 8, 9, 16}) {
    const std::vector<ml::Tensor> inputs = make_inputs(size, 64, 11);
    std::vector<const ml::Tensor*> ptrs;
    for (const auto& t : inputs) ptrs.push_back(&t);
    const std::vector<ml::Tensor> batch_out = batched.invoke_batch(ptrs);
    ASSERT_EQ(batch_out.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const ml::Tensor one = single.invoke(inputs[i]);
      ASSERT_TRUE(one.same_shape(batch_out[i]));
      for (std::int64_t j = 0; j < one.size(); ++j) {
        EXPECT_EQ(one.data()[j], batch_out[i].data()[j])
            << "batch " << size << " request " << i << " element " << j;
      }
    }
  }
}

TEST(LiteBatchTest, BatchedConvnetIsBitIdenticalToSingleInvokes) {
  BatchFixture f;
  ml::lite::LiteInterpreter single(f.convnet);
  ml::lite::LiteInterpreter batched(f.convnet);
  const std::vector<ml::Tensor> inputs = make_inputs(4, 28 * 28, 23);
  std::vector<const ml::Tensor*> ptrs;
  for (const auto& t : inputs) ptrs.push_back(&t);
  const std::vector<ml::Tensor> batch_out = batched.invoke_batch(ptrs);
  ASSERT_EQ(batch_out.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ml::Tensor one = single.invoke(inputs[i]);
    ASSERT_TRUE(one.same_shape(batch_out[i]));
    for (std::int64_t j = 0; j < one.size(); ++j) {
      EXPECT_EQ(one.data()[j], batch_out[i].data()[j])
          << "request " << i << " element " << j;
    }
  }
}

ml::lite::LiteInterpreter int8_interpreter(const ml::lite::FlatModel& q) {
  return ml::lite::LiteInterpreter(q, nullptr,
                                   ml::kernels::KernelContext::shared(),
                                   /*weight_streaming=*/false,
                                   /*int8_compute=*/true);
}

TEST(LiteBatchTest, BatchedInt8MlpIsBitIdenticalToSingleInvokes) {
  BatchFixture f;
  const ml::lite::FlatModel q = f.mlp.quantized(make_inputs(6, 64, 31));
  auto single = int8_interpreter(q);
  auto batched = int8_interpreter(q);
  const std::vector<ml::Tensor> inputs = make_inputs(5, 64, 11);
  std::vector<const ml::Tensor*> ptrs;
  for (const auto& t : inputs) ptrs.push_back(&t);
  const std::vector<ml::Tensor> batch_out = batched.invoke_batch(ptrs);
  ASSERT_EQ(batch_out.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ml::Tensor one = single.invoke(inputs[i]);
    ASSERT_TRUE(one.same_shape(batch_out[i]));
    for (std::int64_t j = 0; j < one.size(); ++j) {
      EXPECT_EQ(one.data()[j], batch_out[i].data()[j])
          << "request " << i << " element " << j;
    }
  }
}

TEST(LiteBatchTest, BatchedInt8ConvnetIsBitIdenticalToSingleInvokes) {
  BatchFixture f;
  const ml::lite::FlatModel q = f.convnet.quantized(make_inputs(4, 28 * 28, 41));
  auto single = int8_interpreter(q);
  auto batched = int8_interpreter(q);
  const std::vector<ml::Tensor> inputs = make_inputs(4, 28 * 28, 23);
  std::vector<const ml::Tensor*> ptrs;
  for (const auto& t : inputs) ptrs.push_back(&t);
  const std::vector<ml::Tensor> batch_out = batched.invoke_batch(ptrs);
  ASSERT_EQ(batch_out.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ml::Tensor one = single.invoke(inputs[i]);
    ASSERT_TRUE(one.same_shape(batch_out[i]));
    for (std::int64_t j = 0; j < one.size(); ++j) {
      EXPECT_EQ(one.data()[j], batch_out[i].data()[j])
          << "request " << i << " element " << j;
    }
  }
}

// A node worker's grouped pass (MathStep::append) stacks several charged
// batches into one pass, shaped by the shape rule at the group's row count
// (the convnet's Reshape scales with it), and hands each batch the rows of
// its own invoke_batch bit for bit: on floats, where 32 rows run the
// row-block GEMM and each batch of up to 8 the small-batch one, and on
// int8 codes. A group of one is that batch's own pass.
TEST(LiteBatchTest, GroupedPassMatchesEachBatch) {
  const auto lite = [](ml::Graph g) {
    ml::Session s(g);
    return ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                            "probs");
  };
  const ml::lite::FlatModel mlp = lite(ml::mnist_mlp());
  const ml::lite::FlatModel convnet = lite(ml::mnist_convnet(3));
  for (const ml::lite::FlatModel* f32 : {&mlp, &convnet}) {
    const ml::lite::FlatModel i8 = f32->quantized(make_inputs(4, 784, 41));
    for (const bool int8 : {false, true}) {
      ml::lite::LiteInterpreter interp(
          int8 ? i8 : *f32, nullptr, ml::kernels::KernelContext::shared(),
          /*weight_streaming=*/false, int8);
      for (const std::vector<std::int64_t>& sizes :
           {std::vector<std::int64_t>{8, 8, 8, 8},
            std::vector<std::int64_t>{1, 7, 3, 8},
            std::vector<std::int64_t>{5}}) {
        std::vector<std::vector<ml::Tensor>> inputs;
        std::vector<std::vector<const ml::Tensor*>> batches;
        for (std::size_t b = 0; b < sizes.size(); ++b) {
          inputs.push_back(make_inputs(sizes[b], 784, 7 * b + 3));
        }
        for (const auto& batch : inputs) {
          auto& ptrs = batches.emplace_back();
          for (const ml::Tensor& t : batch) ptrs.push_back(&t);
        }
        ml::lite::MathStep group;
        for (const auto& ptrs : batches) {
          ml::lite::MathStep step = interp.charge(interp.plan(ptrs), ptrs);
          if (!group.pending()) {
            group = std::move(step);
          } else {
            ASSERT_TRUE(group.append(step));
            ASSERT_FALSE(step.pending());
          }
        }
        const std::vector<ml::Tensor> out = group.run();
        std::size_t row = 0;
        for (std::size_t b = 0; b < batches.size(); ++b) {
          const std::vector<ml::Tensor> want = interp.invoke_batch(batches[b]);
          for (std::size_t i = 0; i < want.size(); ++i, ++row) {
            ASSERT_LT(row, out.size());
            ASSERT_TRUE(out[row].same_shape(want[i]));
            EXPECT_EQ(std::memcmp(out[row].data(), want[i].data(),
                                  want[i].byte_size()),
                      0)
                << (f32 == &mlp ? "mlp" : "convnet")
                << (int8 ? " int8" : " float") << ", batch " << b
                << " of " << sizes.size() << ", request " << i;
          }
        }
        EXPECT_EQ(row, out.size());
      }
    }
  }
}

TEST(LiteBatchTest, RejectsMismatchedShapes) {
  BatchFixture f;
  ml::lite::LiteInterpreter interp(f.mlp);
  ml::Tensor a(ml::Shape{1, 64});
  ml::Tensor b(ml::Shape{1, 32});
  EXPECT_THROW(interp.invoke_batch({&a, &b}), std::invalid_argument);
  ml::Tensor two(ml::Shape{2, 64});
  EXPECT_THROW(interp.invoke_batch({&two, &two}), std::invalid_argument);
  EXPECT_TRUE(interp.invoke_batch({}).empty());
}

// ---- request plane: ServingFleet::serve_trace --------------------------
// Single-node cases run a one-node fleet: the fleet's loop is the only
// request plane.

LoadGenConfig trace_config(double rps, std::int64_t count, double slo_s) {
  LoadGenConfig cfg;
  cfg.seed = 5;
  cfg.offered_rps = rps;
  cfg.request_count = count;
  cfg.input_dim = 3072;
  cfg.input_pool = 8;
  cfg.slo_s = slo_s;
  return cfg;
}

TEST(ServeTraceTest, EveryRequestGetsExactlyOneOutcome) {
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(2000, 60, 0));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 2), 1);
  BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.001;
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, window);
  ASSERT_EQ(outcomes.size(), trace.requests.size());
  const TrafficSummary s = summarize(outcomes);
  EXPECT_EQ(s.offered, s.completed + s.shed_queue_full + s.shed_expired);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].id, static_cast<std::int64_t>(i));
    if (outcomes[i].status == RequestStatus::Completed) {
      EXPECT_GE(outcomes[i].dispatch_ns, outcomes[i].arrival_ns);
      EXPECT_GT(outcomes[i].completion_ns, outcomes[i].dispatch_ns);
      EXPECT_GE(outcomes[i].batch_size, 1);
      EXPECT_LE(outcomes[i].batch_size, 4);
    }
  }
}

TEST(ServeTraceTest, BatchingAmortizesEpcPagingUnderPressure) {
  // HW mode with the model far beyond the EPC: unbatched requests re-page
  // per layer per request, batching pays it once per batch.
  ServingFixture f;
  ServingConfig cfg = f.config(tee::TeeMode::Hardware, 1);
  cfg.model.epc_bytes = 16ull << 20;  // model is 24 MB
  cfg.per_thread_scratch = 1ull << 20;
  const LoadTrace trace = generate_load(trace_config(1e6, 16, 0));
  const obs::Counter& epc_faults =
      obs::Registry::global().counter(obs::names::kEpcFaults);

  BatchWindowConfig unbatched;
  unbatched.max_batch = 1;
  std::uint64_t before = epc_faults.value();
  ServingFleet a(f.model, cfg, 1);
  const TrafficSummary tu = summarize(a.serve_trace(trace.requests, unbatched));
  const std::uint64_t faults_unbatched = epc_faults.value() - before;

  BatchWindowConfig batched;
  batched.max_batch = 8;
  batched.max_wait_s = 0.01;
  before = epc_faults.value();
  ServingFleet b(f.model, cfg, 1);
  const TrafficSummary tb = summarize(b.serve_trace(trace.requests, batched));
  const std::uint64_t faults_batched = epc_faults.value() - before;

  ASSERT_EQ(tu.completed, 16);
  ASSERT_EQ(tb.completed, 16);
  EXPECT_LT(faults_batched, faults_unbatched);
  EXPECT_LT(tb.last_completion_ns, tu.last_completion_ns);
}

TEST(ServeTraceTest, QueueCapacityShedsAtAdmission) {
  ServingFixture f;
  // Effectively simultaneous arrivals against a tiny queue.
  const LoadTrace trace = generate_load(trace_config(1e9, 40, 0));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 1), 1);
  BatchWindowConfig window;
  window.max_batch = 2;
  window.max_wait_s = 0;
  window.queue_capacity = 4;
  const TrafficSummary s = summarize(fleet.serve_trace(trace.requests, window));
  EXPECT_GT(s.shed_queue_full, 0);
  EXPECT_EQ(s.offered, s.completed + s.shed_queue_full + s.shed_expired);
}

TEST(ServeTraceTest, ExpiredRequestsAreShedAtDispatch) {
  ServingFixture f;
  // A burst far beyond capacity whose deadlines fall 1 us after each
  // request reaches the node, shorter than one service time: the head is
  // served, queued requests expire before the lane frees up.
  const ServingConfig cfg = f.config(tee::TeeMode::Simulation, 1);
  LoadTrace trace = generate_load(trace_config(1e9, 30, 0));
  const std::uint64_t bytes = trace.images.front().byte_size();
  const std::uint64_t wire_ns =
      cfg.model.netshield_ns(bytes) + cfg.model.lan_transfer_ns(bytes);
  for (Request& r : trace.requests) {
    r.deadline_ns = r.arrival_ns + wire_ns + 1'000;
  }
  ServingFleet fleet(f.model, cfg, 1);
  BatchWindowConfig window;
  window.max_batch = 1;
  window.max_wait_s = 0;
  window.queue_capacity = 0;  // unbounded: isolate deadline shedding
  const TrafficSummary s = summarize(fleet.serve_trace(trace.requests, window));
  EXPECT_GT(s.completed, 0);
  EXPECT_GT(s.shed_expired, 0);
  EXPECT_EQ(s.offered, s.completed + s.shed_expired);
  // With shedding disabled the same trace completes everything, late.
  ServingFleet keep(f.model, cfg, 1);
  BatchWindowConfig no_shed = window;
  no_shed.shed_expired = false;
  const TrafficSummary s2 =
      summarize(keep.serve_trace(trace.requests, no_shed));
  EXPECT_EQ(s2.completed, s2.offered);
  EXPECT_GT(s2.slo_misses, 0);
}

TEST(ServeTraceTest, LanesStayBalancedUnderLeastLoadedDispatch) {
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(1e6, 32, 0));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 4), 1);
  BatchWindowConfig window;
  window.max_batch = 2;
  window.max_wait_s = 0;
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, window);
  // Under backlog, every batch should land on the lane that frees first;
  // completions therefore spread across distinct completion times rather
  // than serializing on lane 0.
  std::set<std::uint64_t> completions;
  for (const auto& o : outcomes) completions.insert(o.completion_ns);
  EXPECT_GT(completions.size(), outcomes.size() / 4);
}

TEST(ServeTraceTest, FleetServesBelowCapacityWithinSlo) {
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(50, 40, 0.5));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 2), 2);
  BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.002;
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, window);
  const TrafficSummary s = summarize(outcomes);
  EXPECT_EQ(s.completed, s.offered);
  EXPECT_EQ(s.shed_queue_full, 0);
  EXPECT_EQ(s.slo_misses, 0);
  EXPECT_LE(s.p99_ns, 500'000'000u);
  // Client-side arrivals are preserved (e2e includes the wire).
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].arrival_ns, trace.requests[i].arrival_ns);
  }
}

TEST(ServeTraceTest, RegistryE2eQuantilesMatchTrafficSummary) {
  // The registry series and TrafficSummary both measure from the client
  // arrival, so both include the wire and agree exactly.
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(400, 40, 0));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 2), 2);
  BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.002;
  obs::Registry::global().reset();
  const TrafficSummary s = summarize(fleet.serve_trace(trace.requests, window));
  const obs::QuantileSeries& e2e =
      obs::Registry::global().quantiles(obs::names::kServingE2eQuantileNs);
  ASSERT_GT(s.goodput(), 0);
  ASSERT_EQ(e2e.count(), static_cast<std::uint64_t>(s.goodput()));
  EXPECT_EQ(e2e.quantile(0.50), s.p50_ns);
  EXPECT_EQ(e2e.quantile(0.95), s.p95_ns);
  EXPECT_EQ(e2e.quantile(0.99), s.p99_ns);
}

TEST(ServeTraceTest, FleetWithAllNodesDownThrows) {
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(100, 4, 0));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 1), 1);
  fleet.fail_node(0);
  BatchWindowConfig window;
  EXPECT_THROW(fleet.serve_trace(trace.requests, window),
               runtime::TransientError);
}

// ---- PR-7 satellites: summary wraparound, capacity edges, pre-failed ----

TEST(TrafficSummaryTest, AllShedTraceReportsZeroDuration) {
  // Every request shed: last_completion_ns stays 0 while first_arrival_ns
  // is positive. The unsigned difference used to wrap, and throughput_rps()
  // divided by ~5e8 seconds of garbage.
  ServingFixture f;
  LoadTrace trace = generate_load(trace_config(1000, 8, 0));
  for (Request& r : trace.requests) {
    r.arrival_ns += 1000;
    r.deadline_ns = 1;  // already passed before the request even arrives
  }
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 1), 1);
  BatchWindowConfig window;
  window.max_batch = 2;
  window.max_wait_s = 0;
  const TrafficSummary s = summarize(fleet.serve_trace(trace.requests, window));
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.shed_expired, s.offered);
  EXPECT_GT(s.first_arrival_ns, 0u);
  EXPECT_EQ(s.last_completion_ns, 0u);
  EXPECT_EQ(s.duration_s(), 0.0);
  EXPECT_EQ(s.throughput_rps(), 0.0);
}

TEST(ServeTraceTest, NonPositiveQueueCapacityMeansUnbounded) {
  // serve_trace documents "<= 0 means unbounded": a burst far beyond any
  // sane bound must never shed at admission for 0 or negative capacities.
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(1e9, 40, 0));
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{-5}}) {
    ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 1), 1);
    BatchWindowConfig window;
    window.max_batch = 2;
    window.max_wait_s = 0;
    window.queue_capacity = cap;
    const TrafficSummary s =
        summarize(fleet.serve_trace(trace.requests, window));
    EXPECT_EQ(s.shed_queue_full, 0) << "capacity " << cap;
    EXPECT_EQ(s.completed, s.offered) << "capacity " << cap;
  }
}

TEST(ServeTraceTest, CapacityOneKeepsOnlyTheQueueHead) {
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(1e9, 16, 0));
  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 1), 1);
  BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.01;
  window.queue_capacity = 1;
  const std::vector<RequestOutcome> outcomes =
      fleet.serve_trace(trace.requests, window);
  const TrafficSummary s = summarize(outcomes);
  EXPECT_EQ(s.offered, s.completed + s.shed_queue_full);
  EXPECT_GT(s.completed, 0);
  EXPECT_GT(s.shed_queue_full, 0);
  // With a single queue slot no batch can ever hold more than one request.
  for (const RequestOutcome& o : outcomes) {
    if (o.status == RequestStatus::Completed) {
      EXPECT_EQ(o.batch_size, 1);
    }
  }
}

TEST(ServeTraceTest, FleetPartitionsOverSurvivorsWhenNodeFailedBeforeTrace) {
  ServingFixture f;
  const LoadTrace trace = generate_load(trace_config(200, 30, 0));
  BatchWindowConfig window;
  window.max_batch = 4;
  window.max_wait_s = 0.002;

  ServingFleet fleet(f.model, f.config(tee::TeeMode::Simulation, 2), 3);
  fleet.fail_node(1);
  const std::vector<RequestOutcome> a =
      fleet.serve_trace(trace.requests, window);
  const TrafficSummary s = summarize(a);
  EXPECT_EQ(s.completed, s.offered);
  // The dead node served nothing; both survivors took round-robin shares.
  std::set<std::int64_t> nodes;
  for (const RequestOutcome& o : a) nodes.insert(o.node);
  EXPECT_EQ(nodes.count(1), 0u);
  EXPECT_EQ(nodes.size(), 2u);
  EXPECT_EQ(fleet.node_status(1).served, 0);
  EXPECT_GT(fleet.node_status(0).served, 0);
  EXPECT_GT(fleet.node_status(2).served, 0);

  // Deterministic: an identical fleet re-serves the trace identically.
  ServingFleet again(f.model, f.config(tee::TeeMode::Simulation, 2), 3);
  again.fail_node(1);
  const std::vector<RequestOutcome> b =
      again.serve_trace(trace.requests, window);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].status), static_cast<int>(b[i].status));
    EXPECT_EQ(a[i].dispatch_ns, b[i].dispatch_ns);
    EXPECT_EQ(a[i].completion_ns, b[i].completion_ns);
    EXPECT_EQ(a[i].node, b[i].node);
  }
}

}  // namespace
}  // namespace stf::core
