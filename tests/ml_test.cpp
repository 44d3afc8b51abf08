// Tests for the ML framework: tensor/graph mechanics, kernel numerics,
// autodiff (checked against numerical gradients), training convergence,
// serialization/freeze round trips, and Lite converter/interpreter parity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "crypto/sha256.h"
#include "ml/dataset.h"
#include "ml/graph.h"
#include "ml/lite/flat_model.h"
#include "ml/models.h"
#include "ml/ops.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tee/platform.h"

namespace stf::ml {
namespace {

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.byte_size(), 24u);
  t.at2(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(5), 5.0f);
  EXPECT_THROW(Tensor({2, 2}, {1.0f}), std::invalid_argument);
  EXPECT_THROW((void)num_elements({2, -1}), std::invalid_argument);
}

TEST(TensorTest, Reshape) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW((void)t.reshaped({4, 2}), std::invalid_argument);
}

TEST(GraphTest, RejectsDuplicatesAndBadInputs) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("x");
  EXPECT_THROW(b.placeholder("x"), std::invalid_argument);
  EXPECT_THROW(g.add_node(OpType::Relu, "r", {42}), std::invalid_argument);
  EXPECT_THROW(g.add_node(OpType::Relu, "", {x}), std::invalid_argument);
  EXPECT_THROW((void)g.find("nope"), std::invalid_argument);
}

TEST(GraphTest, TopologicalOrderRespectsDependencies) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("x");
  const NodeId w = b.constant("w", Tensor({2, 2}, {1, 0, 0, 1}));
  const NodeId mm = b.matmul("mm", x, w);
  const NodeId r = b.relu("r", mm);
  const auto order = g.topological_order({r});
  auto pos = [&](NodeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(x), pos(mm));
  EXPECT_LT(pos(w), pos(mm));
  EXPECT_LT(pos(mm), pos(r));
}

TEST(GraphTest, TopologicalOrderOnlyVisitsReachable) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("x");
  b.placeholder("unused");
  const NodeId r = b.relu("r", x);
  const auto order = g.topological_order({r});
  EXPECT_EQ(order.size(), 2u);
}

TEST(GraphTest, ParameterBytes) {
  Graph g;
  GraphBuilder b(g);
  b.constant("c", Tensor({4, 4}));     // 64 bytes
  b.variable("v", Tensor({2, 2}));     // 16 bytes
  b.placeholder("p");
  EXPECT_EQ(g.parameter_bytes(), 80u);
}

// --- kernel numerics -------------------------------------------------------

TEST(OpsTest, MatMulKnownValues) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const auto r = ops::matmul(a, b);
  EXPECT_EQ(r.output.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(r.output.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(r.output.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(r.output.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(r.output.at2(1, 1), 154.0f);
  EXPECT_DOUBLE_EQ(r.flops, 2.0 * 2 * 3 * 2);
  EXPECT_THROW(ops::matmul(a, a), std::invalid_argument);
}

TEST(OpsTest, AddElementwiseAndBias) {
  const Tensor a({2, 2}, {1, 2, 3, 4});
  const Tensor b({2, 2}, {10, 20, 30, 40});
  EXPECT_FLOAT_EQ(ops::add(a, b).output.at2(1, 1), 44.0f);
  const Tensor bias({2}, {100, 200});
  const auto r = ops::add(a, bias);
  EXPECT_FLOAT_EQ(r.output.at2(0, 0), 101.0f);
  EXPECT_FLOAT_EQ(r.output.at2(1, 1), 204.0f);
  const Tensor bad({3}, {1, 2, 3});
  EXPECT_THROW(ops::add(a, bad), std::invalid_argument);
}

TEST(OpsTest, Relu) {
  const Tensor x({4}, {-1, 0, 2, -3});
  const auto r = ops::relu(x);
  EXPECT_FLOAT_EQ(r.output.at(0), 0.0f);
  EXPECT_FLOAT_EQ(r.output.at(2), 2.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  const Tensor x({2, 3}, {1, 2, 3, 1000, 1000, 1000});
  const auto r = ops::softmax(x);
  for (std::int64_t i = 0; i < 2; ++i) {
    float sum = 0;
    for (std::int64_t j = 0; j < 3; ++j) sum += r.output.at2(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Large logits must not overflow (max-subtraction).
  EXPECT_NEAR(r.output.at2(1, 0), 1.0f / 3.0f, 1e-5f);
}

TEST(OpsTest, SoftmaxCrossEntropyUniformIsLogN) {
  const Tensor logits({1, 4}, {0, 0, 0, 0});
  const Tensor labels({1, 4}, {0, 1, 0, 0});
  const auto r = ops::softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.output.at(0), std::log(4.0f), 1e-5f);
}

TEST(OpsTest, Conv2DIdentityFilter) {
  // 1x3x3x1 input, 1x1 filter with weight 2: output = 2 * input.
  Tensor input({1, 3, 3, 1});
  for (std::int64_t i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i);
  const Tensor filter({1, 1, 1, 1}, {2.0f});
  const auto r = ops::conv2d(input, filter, 1);
  EXPECT_EQ(r.output.shape(), (Shape{1, 3, 3, 1}));
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(r.output.at(i), 2.0f * static_cast<float>(i));
  }
}

TEST(OpsTest, Conv2DSumFilterCenterPixel) {
  // 3x3 all-ones filter on all-ones 3x3 input: center output = 9 (full
  // overlap), corner = 4 (padding).
  Tensor input({1, 3, 3, 1});
  for (std::int64_t i = 0; i < 9; ++i) input.at(i) = 1.0f;
  Tensor filter({3, 3, 1, 1});
  for (std::int64_t i = 0; i < 9; ++i) filter.at(i) = 1.0f;
  const auto r = ops::conv2d(input, filter, 1);
  EXPECT_FLOAT_EQ(r.output.at(4), 9.0f);
  EXPECT_FLOAT_EQ(r.output.at(0), 4.0f);
}

TEST(OpsTest, Conv2DStrideHalvesOutput) {
  Tensor input({1, 4, 4, 1});
  const Tensor filter({1, 1, 1, 1}, {1.0f});
  const auto r = ops::conv2d(input, filter, 2);
  EXPECT_EQ(r.output.shape(), (Shape{1, 2, 2, 1}));
}

TEST(OpsTest, Pooling) {
  Tensor input({1, 2, 2, 1}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(ops::max_pool2d(input, 2, 2).output.at(0), 4.0f);
  EXPECT_FLOAT_EQ(ops::avg_pool2d(input, 2, 2).output.at(0), 2.5f);
  const auto g = ops::global_avg_pool(input);
  EXPECT_EQ(g.output.shape(), (Shape{1, 1}));
  EXPECT_FLOAT_EQ(g.output.at(0), 2.5f);
}

TEST(OpsTest, ArgMaxAndScale) {
  const Tensor x({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto am = ops::argmax(x);
  EXPECT_FLOAT_EQ(am.output.at(0), 1.0f);
  EXPECT_FLOAT_EQ(am.output.at(1), 0.0f);
  EXPECT_FLOAT_EQ(ops::scale(x, 0.5f).output.at2(1, 0), 4.5f);
}

// --- session ---------------------------------------------------------------

TEST(SessionTest, RunSimpleGraph) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("x");
  const NodeId w = b.constant("w", Tensor({2, 2}, {1, 2, 3, 4}));
  const NodeId mm = b.matmul("mm", x, w);
  b.relu("out", mm);
  Session session(g);
  const Tensor result =
      session.run1("out", {{"x", Tensor({1, 2}, {1, -1})}});
  EXPECT_FLOAT_EQ(result.at2(0, 0), 0.0f);   // 1-3 = -2 -> relu 0
  EXPECT_FLOAT_EQ(result.at2(0, 1), 0.0f);   // 2-4 = -2 -> relu 0
  EXPECT_GT(session.last_run_flops(), 0.0);
}

TEST(SessionTest, MissingFeedThrows) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("x");
  b.relu("out", x);
  Session session(g);
  EXPECT_THROW((void)session.run1("out"), std::invalid_argument);
}

TEST(SessionTest, VariableAssignment) {
  Graph g;
  GraphBuilder b(g);
  b.variable("v", Tensor({2}, {1, 2}));
  Session session(g);
  EXPECT_FLOAT_EQ(session.variable("v").at(0), 1.0f);
  session.assign("v", Tensor({2}, {9, 9}));
  EXPECT_FLOAT_EQ(session.variable("v").at(0), 9.0f);
  EXPECT_THROW(session.assign("v", Tensor({3})), std::invalid_argument);
  EXPECT_THROW((void)session.variable("nope"), std::invalid_argument);
}

// Numerical gradient check: autodiff against central differences.
TEST(SessionTest, GradientsMatchNumericalDifferentiation) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("input");
  const NodeId labels = b.placeholder("labels");
  const NodeId h = b.dense("fc1", x, 4, 5, /*with_relu=*/true, 3);
  const NodeId logits = b.dense("fc2", h, 5, 3, /*with_relu=*/false, 4);
  b.softmax_cross_entropy("loss", logits, labels);

  Session session(g);
  const std::map<std::string, Tensor> feeds = {
      {"input", Tensor({2, 4}, {0.5f, -0.2f, 0.8f, 0.1f,
                                -0.4f, 0.9f, 0.3f, -0.7f})},
      {"labels", Tensor({2, 3}, {1, 0, 0, 0, 0, 1})}};
  const auto grads = session.gradients("loss", feeds);

  for (const std::string var : {"fc1/W", "fc1/b", "fc2/W", "fc2/b"}) {
    ASSERT_TRUE(grads.contains(var)) << var;
    const Tensor analytic = grads.at(var);
    Tensor value = session.variable(var);
    // Spot-check a handful of coordinates per variable.
    const std::int64_t step =
        std::max<std::int64_t>(1, value.size() / 5);
    for (std::int64_t i = 0; i < value.size(); i += step) {
      const float eps = 1e-3f;
      Tensor plus = value, minus = value;
      plus.at(i) += eps;
      minus.at(i) -= eps;
      session.assign(var, plus);
      const float lp = session.run1("loss", feeds).at(0);
      session.assign(var, minus);
      const float lm = session.run1("loss", feeds).at(0);
      session.assign(var, value);
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic.at(i), numeric, 5e-3f)
          << var << "[" << i << "]";
    }
  }
}

TEST(SessionTest, TrainingReducesLoss) {
  Graph g = mnist_mlp(/*hidden=*/32, /*seed=*/5);
  Session session(g);
  const Dataset data = synthetic_mnist(200, 11);
  const auto feeds = data.batch_feeds(0, 100);
  const float initial = session.run1("loss", feeds).at(0);
  float final_loss = initial;
  for (int step = 0; step < 30; ++step) {
    final_loss = session.train_step("loss", feeds, 0.1f);
  }
  EXPECT_LT(final_loss, initial * 0.5f)
      << "30 SGD steps must at least halve the loss on a fixed batch";
}

TEST(SessionTest, TrainingImprovesHeldOutAccuracy) {
  Graph g = mnist_mlp(64, 7);
  Session session(g);
  const Dataset train = synthetic_mnist(600, 21);
  const Dataset test = synthetic_mnist(200, 22);

  auto accuracy = [&]() {
    const auto feeds = test.batch_feeds(0, test.size());
    const Tensor pred = session.run1("pred", feeds);
    int correct = 0;
    for (std::int64_t i = 0; i < test.size(); ++i) {
      if (static_cast<std::int64_t>(pred.at(i)) == test.label_of(i)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(test.size());
  };

  const double before = accuracy();
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (std::int64_t batch = 0; batch < train.size() / 100; ++batch) {
      session.train_step("loss", train.batch_feeds(batch, 100), 0.15f);
    }
  }
  const double after = accuracy();
  EXPECT_GT(after, before + 0.2) << "before=" << before << " after=" << after;
  EXPECT_GT(after, 0.8) << "synthetic classes are separable";
}

TEST(SessionTest, ApplyGradientsValidatesShapes) {
  Graph g;
  GraphBuilder b(g);
  b.variable("v", Tensor({2}, {1, 2}));
  Session session(g);
  EXPECT_THROW(session.apply_gradients({{"nope", Tensor({2})}}, 0.1f),
               std::invalid_argument);
  EXPECT_THROW(session.apply_gradients({{"v", Tensor({3})}}, 0.1f),
               std::invalid_argument);
  session.apply_gradients({{"v", Tensor({2}, {1, 1})}}, 0.5f);
  EXPECT_FLOAT_EQ(session.variable("v").at(0), 0.5f);
}

TEST(SessionTest, BackwardRejectsInferenceOnlyOps) {
  // ArgMax is non-differentiable: a loss built on it must be rejected.
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("input");
  const NodeId v = b.variable("v", Tensor({4, 4}));
  const NodeId mm = b.matmul("mm", x, v);
  const NodeId am = b.argmax("am", mm);
  const NodeId labels = b.placeholder("labels");
  const NodeId am2 = b.reshape("am2", am, {-1, 1});
  b.softmax_cross_entropy("loss", am2, labels);
  Session session(g);
  const std::map<std::string, Tensor> feeds = {
      {"input", Tensor({2, 4})}, {"labels", Tensor({2, 1})}};
  EXPECT_THROW((void)session.gradients("loss", feeds), std::logic_error);
}

TEST(SessionTest, ConvAndPoolGradientsMatchNumerical) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("input");  // [1, 36]
  const NodeId labels = b.placeholder("labels");
  Tensor filter({3, 3, 1, 2});
  for (std::int64_t i = 0; i < filter.size(); ++i) {
    filter.at(i) = 0.1f * static_cast<float>((i % 7) - 3);
  }
  const NodeId f = b.variable("filter", std::move(filter));
  const NodeId img = b.reshape("img", x, {-1, 6, 6, 1});
  const NodeId conv = b.conv2d("conv", img, f);
  const NodeId act = b.relu("act", conv);
  const NodeId pooled = b.max_pool("pool", act, 2, 2);   // [1,3,3,2]
  const NodeId gap = b.global_avg_pool("gap", pooled);   // [1,2]
  b.softmax_cross_entropy("loss", gap, labels);

  Session session(g);
  Tensor input({1, 36});
  for (std::int64_t i = 0; i < 36; ++i) {
    input.at(i) = 0.05f * static_cast<float>((i * 5) % 13) - 0.2f;
  }
  const std::map<std::string, Tensor> feeds = {
      {"input", input}, {"labels", Tensor({1, 2}, {1, 0})}};
  const auto grads = session.gradients("loss", feeds);
  const Tensor analytic = grads.at("filter");

  Tensor value = session.variable("filter");
  for (std::int64_t i = 0; i < value.size(); ++i) {
    const float eps = 1e-3f;
    Tensor plus = value, minus = value;
    plus.at(i) += eps;
    minus.at(i) -= eps;
    session.assign("filter", plus);
    const float lp = session.run1("loss", feeds).at(0);
    session.assign("filter", minus);
    const float lm = session.run1("loss", feeds).at(0);
    session.assign("filter", value);
    EXPECT_NEAR(analytic.at(i), (lp - lm) / (2 * eps), 3e-3f)
        << "filter[" << i << "]";
  }
}

TEST(SessionTest, ConvnetTrainsEndToEnd) {
  const Graph g = mnist_convnet(4);
  Session session(g);
  const Dataset data = synthetic_mnist(120, 19);
  const auto feeds = data.batch_feeds(0, 60);
  const float initial = session.run1("loss", feeds).at(0);
  float loss = initial;
  for (int step = 0; step < 40; ++step) {
    loss = session.train_step("loss", feeds, 0.3f);
  }
  EXPECT_LT(loss, initial * 0.7f)
      << "convolution gradients must let the convnet learn";
}

// --- serialization ---------------------------------------------------------

TEST(SerializeTest, GraphRoundTrip) {
  Graph g = mnist_mlp(16, 3);
  const auto blob = serialize_graph(g);
  const Graph restored = deserialize_graph(blob);
  ASSERT_EQ(restored.node_count(), g.node_count());
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const Node& a = g.nodes()[i];
    const Node& b = restored.nodes()[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.value.has_value(), b.value.has_value());
    if (a.value.has_value()) {
      EXPECT_EQ(*a.value, *b.value);
    }
  }
}

TEST(SerializeTest, RestoredGraphComputesSameResult) {
  Graph g = mnist_mlp(16, 3);
  const Graph restored = deserialize_graph(serialize_graph(g));
  Session s1(g), s2(restored);
  const Dataset data = synthetic_mnist(4, 9);
  const auto feeds = data.batch_feeds(0, 4);
  EXPECT_EQ(s1.run1("probs", feeds), s2.run1("probs", feeds));
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_THROW((void)deserialize_graph(crypto::to_bytes("not a graph")),
               std::runtime_error);
  auto blob = serialize_graph(mnist_mlp(8, 1));
  blob.resize(blob.size() / 2);
  EXPECT_THROW((void)deserialize_graph(blob), std::runtime_error);
}

TEST(SerializeTest, CheckpointRoundTrip) {
  Graph g = mnist_mlp(16, 3);
  Session trained(g);
  const Dataset data = synthetic_mnist(100, 5);
  for (int i = 0; i < 5; ++i) {
    trained.train_step("loss", data.batch_feeds(0, 100), 0.1f);
  }
  const auto ckpt = serialize_checkpoint(trained);

  Session fresh(g);
  restore_checkpoint(fresh, ckpt);
  const auto feeds = data.batch_feeds(0, 100);
  EXPECT_EQ(fresh.run1("probs", feeds), trained.run1("probs", feeds));
}

TEST(SerializeTest, FreezeFoldsVariables) {
  Graph g = mnist_mlp(16, 3);
  Session session(g);
  const Graph frozen = freeze(g, session);
  EXPECT_TRUE(frozen.variables().empty());
  // Frozen graph computes identically without a variable store.
  Session fs(frozen);
  const Dataset data = synthetic_mnist(2, 13);
  const auto feeds = data.batch_feeds(0, 2);
  EXPECT_EQ(fs.run1("probs", feeds), session.run1("probs", feeds));
}

// --- datasets ----------------------------------------------------------------

TEST(DatasetTest, ShapesAndDeterminism) {
  const Dataset a = synthetic_mnist(50, 4);
  EXPECT_EQ(a.images.shape(), (Shape{50, 784}));
  EXPECT_EQ(a.labels.shape(), (Shape{50, 10}));
  const Dataset b = synthetic_mnist(50, 4);
  EXPECT_EQ(a.images, b.images);
  const Dataset c = synthetic_mnist(50, 5);
  EXPECT_NE(c.images, a.images);
  const Dataset cifar = synthetic_cifar10(10, 1);
  EXPECT_EQ(cifar.images.shape(), (Shape{10, 3072}));
}

TEST(DatasetTest, LabelsAreOneHot) {
  const Dataset d = synthetic_mnist(20, 2);
  for (std::int64_t i = 0; i < d.size(); ++i) {
    float sum = 0;
    for (std::int64_t c = 0; c < 10; ++c) sum += d.labels.at2(i, c);
    EXPECT_FLOAT_EQ(sum, 1.0f);
    EXPECT_GE(d.label_of(i), 0);
  }
}

TEST(DatasetTest, BatchBoundsChecked) {
  const Dataset d = synthetic_mnist(10, 2);
  EXPECT_NO_THROW((void)d.batch_feeds(0, 10));
  EXPECT_THROW((void)d.batch_feeds(1, 10), std::out_of_range);
}

TEST(DatasetTest, PixelsInUnitRange) {
  const Dataset d = synthetic_cifar10(20, 3);
  for (std::int64_t i = 0; i < d.images.size(); ++i) {
    EXPECT_GE(d.images.at(i), 0.0f);
    EXPECT_LE(d.images.at(i), 1.0f);
  }
}

// --- model zoo ---------------------------------------------------------------

TEST(ModelsTest, SizedClassifierHitsTargetBytes) {
  for (const std::uint64_t target :
       {16ull << 20, 42ull << 20, 91ull << 20}) {
    const Graph g = sized_classifier("m", target);
    const double actual = static_cast<double>(g.parameter_bytes());
    EXPECT_NEAR(actual / static_cast<double>(target), 1.0, 0.25)
        << "target=" << (target >> 20) << "MB actual="
        << (g.parameter_bytes() >> 20) << "MB";
  }
}

TEST(ModelsTest, ConvnetClassifiesBatch) {
  const Graph g = mnist_convnet(3);
  Session session(g);
  const Dataset d = synthetic_mnist(4, 8);
  const Tensor pred = session.run1("pred", d.batch_feeds(0, 4));
  EXPECT_EQ(pred.shape(), (Shape{4}));
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_GE(pred.at(i), 0.0f);
    EXPECT_LT(pred.at(i), 10.0f);
  }
}

// --- Lite --------------------------------------------------------------------

// Byte offsets of the fields tests forge in a serialized FlatModel (version
// 2 or calibrated version 3): each tensor's first dim, and per op its type
// byte, stride, window, first Reshape target dim and first input index.
struct BlobLayout {
  std::vector<std::size_t> dims, type, stride, window, target, inputs, output;
  std::size_t model_input = 0;
};

BlobLayout walk_flat_model(const crypto::Bytes& blob) {
  std::size_t at = 4;  // magic
  const auto u32 = [&] {
    const std::uint32_t v = crypto::load_be32(blob.data() + at);
    at += 4;
    return v;
  };
  const bool calibrated = u32() == 3;
  at += 1;  // quantized flag
  BlobLayout l;
  const std::uint32_t n_tensors = u32();
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    const std::uint32_t rank = u32();
    l.dims.push_back(at);
    at += 8 * rank + 8 + 4 + (calibrated ? 8 : 0);
  }
  const std::uint32_t n_ops = u32();
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    l.type.push_back(at);
    l.stride.push_back(at + 1);
    l.window.push_back(at + 9);
    at += 1 + 8 + 8 + 4;  // type, stride, window, scalar
    const std::uint32_t rank = u32();
    l.target.push_back(at);
    at += 8 * rank;
    const std::uint32_t n_inputs = u32();
    l.inputs.push_back(at);
    at += 4 * n_inputs;
    l.output.push_back(at);
    at += 4;
  }
  l.model_input = at;
  return l;
}

// `blob` with the 8-byte field at each offset overwritten.
crypto::Bytes forged64(
    crypto::Bytes blob,
    std::initializer_list<std::pair<std::size_t, std::int64_t>> fields) {
  for (const auto& [at, v] : fields) {
    crypto::store_be64(blob.data() + at, static_cast<std::uint64_t>(v));
  }
  return blob;
}

// A hardware-mode enclave with a 24-page EPC, so the order of an invoke's
// charges shows in its paging.
struct SmallEnclave {
  static tee::CostModel cost() {
    tee::CostModel c;
    c.epc_bytes = 24 * c.page_size;
    return c;
  }
  tee::Platform platform{"p", tee::TeeMode::Hardware, cost()};
  std::unique_ptr<tee::Enclave> enclave = platform.launch_enclave(
      {.name = "lite", .content = crypto::to_bytes("lite"), .binary_bytes = 0});
};

std::size_t first_op(const lite::FlatModel& m, OpType type) {
  for (std::size_t j = 0; j < m.ops().size(); ++j) {
    if (m.ops()[j].type == type) return j;
  }
  ADD_FAILURE() << "no such op";
  return 0;
}

TEST(LiteTest, ConverterRejectsUnfrozenAndTrainingGraphs) {
  Graph g = mnist_mlp(8, 2);
  EXPECT_THROW((void)lite::FlatModel::from_frozen(g, "input", "probs"),
               std::invalid_argument);  // still has variables
  Session session(g);
  const Graph frozen = freeze(g, session);
  EXPECT_THROW((void)lite::FlatModel::from_frozen(frozen, "input", "loss"),
               std::invalid_argument);  // training op in subgraph
  EXPECT_NO_THROW((void)lite::FlatModel::from_frozen(frozen, "input", "probs"));
}

TEST(LiteTest, InterpreterMatchesSession) {
  Graph g = mnist_mlp(24, 6);
  Session session(g);
  const Dataset d = synthetic_mnist(100, 17);
  for (int i = 0; i < 5; ++i) {
    session.train_step("loss", d.batch_feeds(0, 100), 0.1f);
  }
  const Graph frozen = freeze(g, session);
  const auto model = lite::FlatModel::from_frozen(frozen, "input", "probs");
  lite::LiteInterpreter interp(model);

  for (std::int64_t i = 0; i < 5; ++i) {
    const Tensor x = d.sample(i);
    const Tensor expected = session.run1("probs", {{"input", x}});
    const Tensor got = interp.invoke(x);
    ASSERT_EQ(got.shape(), expected.shape());
    for (std::int64_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got.at(j), expected.at(j), 1e-5f);
    }
  }
}

TEST(LiteTest, SerializeRoundTrip) {
  Graph g = mnist_mlp(16, 4);
  Session session(g);
  const auto model = lite::FlatModel::from_frozen(freeze(g, session), "input",
                                                  "probs");
  const auto blob = model.serialize();
  const auto restored = lite::FlatModel::deserialize(blob);
  EXPECT_EQ(restored.weight_bytes(), model.weight_bytes());
  EXPECT_EQ(restored.ops().size(), model.ops().size());

  lite::LiteInterpreter a(model), b(restored);
  const Dataset d = synthetic_mnist(2, 30);
  EXPECT_EQ(a.invoke(d.sample(0)), b.invoke(d.sample(0)));
}

TEST(LiteTest, DeserializeRejectsGarbage) {
  EXPECT_THROW((void)lite::FlatModel::deserialize(crypto::to_bytes("xx")),
               std::runtime_error);
  Graph g = mnist_mlp(8, 4);
  Session session(g);
  auto blob = lite::FlatModel::from_frozen(freeze(g, session), "input", "probs")
                  .serialize();
  blob.pop_back();
  EXPECT_THROW((void)lite::FlatModel::deserialize(blob), std::runtime_error);
}

// Forged counts, dims and weight ranges are rejected with a typed error
// before anything is sized from them: no length_error/bad_alloc from a
// reserve, and no weight tensor the in-place MatMul could read past the
// arena with.
TEST(LiteTest, DeserializeRejectsForgedCountsAndRanges) {
  Graph g = mnist_mlp(8, 4);
  Session session(g);
  const auto model =
      lite::FlatModel::from_frozen(freeze(g, session), "input", "probs");
  ASSERT_FALSE(model.is_quantized());
  ASSERT_FALSE(model.is_calibrated());
  const crypto::Bytes blob = model.serialize();

  // Walk the version-2 layout for the byte offsets of the fields to forge.
  std::size_t at = 4 + 4 + 1;  // magic, version, quantized flag
  const auto u32 = [&] {
    const std::uint32_t v = crypto::load_be32(blob.data() + at);
    at += 4;
    return v;
  };
  std::size_t weight_dims = 0;    // dims of the first 2-D weight
  std::size_t weight_offset = 0;  // its weight_offset field
  const std::uint32_t n_tensors = u32();
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    const std::uint32_t rank = u32();
    const std::size_t dims = at;
    at += 8 * rank;
    if (rank == 2 && weight_dims == 0 &&
        model.tensors()[i].is_weight()) {
      weight_dims = dims;
      weight_offset = at;
    }
    at += 8 + 4;  // weight_offset, quant_scale
  }
  ASSERT_NE(weight_dims, 0u);
  const std::size_t n_ops_at = at;
  const std::size_t n_weights_at =
      blob.size() - model.weights().size() * sizeof(float) - 8;
  const auto arena = static_cast<std::int64_t>(model.weights().size());

  const auto forged = [&](std::size_t field, std::uint64_t value,
                          bool wide) {
    crypto::Bytes b = blob;
    if (wide) {
      crypto::store_be64(b.data() + field, value);
    } else {
      crypto::store_be32(b.data() + field, static_cast<std::uint32_t>(value));
    }
    return b;
  };
  const auto rejects = [](const crypto::Bytes& b) {
    EXPECT_THROW((void)lite::FlatModel::deserialize(b), std::runtime_error);
  };
  rejects(forged(n_weights_at,
                 static_cast<std::uint64_t>(-(std::int64_t{1} << 62)), true));
  rejects(forged(n_ops_at, 0x7fffffffu, false));
  rejects(forged(weight_offset, static_cast<std::uint64_t>(arena - 1), true));
  rejects(forged(weight_dims, static_cast<std::uint64_t>(-1), true));
  // The untouched blob still loads.
  EXPECT_EQ(lite::FlatModel::deserialize(blob).weights(), model.weights());
}

// Forged op programs are rejected at load with a typed error, so the
// interpreter never indexes a tensor slot out of range or reads an
// activation before it exists (each used to crash or throw logic_error in
// invoke), and no program is accepted that no input could run (a Reshape
// target {0,-1} used to end in SIGFPE).
TEST(LiteTest, DeserializeRejectsForgedProgram) {
  Graph g = mnist_mlp(8, 3);
  Session session(g);
  const auto model =
      lite::FlatModel::from_frozen(freeze(g, session), "input", "probs");
  const crypto::Bytes blob = model.serialize();
  ASSERT_GE(model.ops().size(), 2u);
  ASSERT_EQ(model.ops()[0].inputs.size(), 2u);
  const BlobLayout l = walk_flat_model(blob);
  const std::size_t model_input = l.model_input;
  const std::size_t model_output = l.model_input + 4;

  const auto forged = [&](std::size_t field, std::uint32_t value) {
    crypto::Bytes b = blob;
    crypto::store_be32(b.data() + field, value);
    return b;
  };
  const auto rejects = [](const crypto::Bytes& b, const char* what) {
    EXPECT_THROW((void)lite::FlatModel::deserialize(b), std::runtime_error)
        << what;
  };
  rejects(forged(l.inputs[0], 1'000'000), "op input index 1,000,000");
  rejects(forged(l.inputs[0], static_cast<std::uint32_t>(-5)),
          "op input index -5");
  rejects(forged(l.output[0], 1'000'000), "op output index 1,000,000");
  crypto::Bytes bad_type = blob;
  bad_type[l.type[0]] = 250;
  rejects(bad_type, "op type 250");
  rejects(forged(l.inputs[0],
                 static_cast<std::uint32_t>(model.ops()[1].output)),
          "op input produced by a later op");
  rejects(forged(l.output[0], static_cast<std::uint32_t>(model.input_tensor())),
          "op output overwrites the model input");
  rejects(forged(model_input, 1'000'000), "model input index 1,000,000");
  rejects(forged(model_output, static_cast<std::uint32_t>(-1)),
          "model output index -1");

  // What no input can make runnable, on the convnet's program.
  const Graph cg = mnist_convnet(9);
  Session conv_session(cg);
  const auto conv =
      lite::FlatModel::from_frozen(freeze(cg, conv_session), "input", "probs");
  const crypto::Bytes cblob = conv.serialize();
  const BlobLayout c = walk_flat_model(cblob);
  const std::size_t reshape = first_op(conv, OpType::Reshape);  // {-1,28,28,1}
  const std::size_t pool = first_op(conv, OpType::MaxPool2D);
  const std::size_t conv2d = first_op(conv, OpType::Conv2D);
  const std::size_t matmul = first_op(conv, OpType::MatMul);
  const std::size_t bias_op = first_op(conv, OpType::Add);
  const std::int32_t bias = conv.ops()[bias_op].inputs[1];
  ASSERT_TRUE(conv.tensors()[static_cast<std::size_t>(bias)].is_weight());
  const std::size_t target = c.target[reshape];
  rejects(forged64(cblob, {{target, 0}}), "Reshape target {0,28,28,1}");
  rejects(forged64(cblob, {{target, 0}, {target + 8, -1}}),
          "Reshape target {0,-1,28,1}");
  rejects(forged64(cblob, {{target + 8, -2}}), "Reshape target {-1,-2,28,1}");
  rejects(forged64(cblob, {{target + 8, -1}}), "Reshape target {-1,-1,28,1}");
  rejects(forged64(cblob, {{c.window[pool], 0}}), "MaxPool window 0");
  rejects(forged64(cblob, {{c.stride[pool], 0}}), "MaxPool stride 0");
  rejects(forged64(cblob, {{c.stride[conv2d], -1}}), "Conv2D stride -1");
  rejects(forged64(cblob, {{c.dims[static_cast<std::size_t>(bias)], 0}}),
          "bias with no elements");
  const auto rewired = [&](std::size_t op, std::int32_t weight) {
    crypto::Bytes b = cblob;
    crypto::store_be32(b.data() + c.inputs[op] + 4,
                       static_cast<std::uint32_t>(weight));
    return b;
  };
  rejects(rewired(matmul, bias), "MatMul weight of rank 1");
  rejects(rewired(conv2d, conv.ops()[matmul].inputs[1]),
          "Conv2D filter of rank 2");
  // The untouched blobs still load and run.
  const auto restored = lite::FlatModel::deserialize(blob);
  lite::LiteInterpreter interp(restored);
  EXPECT_EQ(interp.invoke(synthetic_mnist(1, 4).sample(0)).shape(),
            (Shape{1, 10}));
  const auto conv_restored = lite::FlatModel::deserialize(cblob);
  lite::LiteInterpreter conv_interp(conv_restored);
  EXPECT_EQ(conv_interp.invoke(synthetic_mnist(1, 4).sample(0)).shape(),
            (Shape{1, 10}));
}

// Requests and programs an op cannot run end in std::invalid_argument in
// both domains, before the invoke charges anything: the int8 kernels take
// their shapes from the rule the float ops are checked by, so none of these
// cases can index past a tensor (SIGSEGV), divide by zero (SIGFPE) or, for
// {1,100}, compute a wrong answer on int8 codes. The forged programs pass
// the load-time checks, which cannot know the shape of the input.
TEST(LiteTest, MalformedInputsFailTypedInBothDomains) {
  const Dataset d = synthetic_mnist(5, 12);
  std::vector<Tensor> calib;
  for (std::int64_t i = 0; i < 4; ++i) calib.push_back(d.sample(i));
  const Tensor valid = d.sample(4);

  for (const bool convnet : {false, true}) {
    const Graph g = convnet ? mnist_convnet(9) : mnist_mlp(32, 5);
    Session session(g);
    const auto q =
        lite::FlatModel::from_frozen(freeze(g, session), "input", "probs")
            .quantized(calib);
    const crypto::Bytes blob = q.serialize();
    const BlobLayout l = walk_flat_model(blob);
    const lite::LiteOp& mm = q.ops()[first_op(q, OpType::MatMul)];
    const auto w = static_cast<std::size_t>(mm.inputs[1]);
    const Shape& ws = q.tensors()[w].shape;
    const auto bias = static_cast<std::size_t>(
        q.ops()[first_op(q, OpType::Add)].inputs[1]);
    std::vector<lite::FlatModel> forged;
    forged.push_back(lite::FlatModel::deserialize(forged64(
        blob, {{l.dims[w], ws[1]}, {l.dims[w] + 8, ws[0]}})));
    forged.push_back(lite::FlatModel::deserialize(
        forged64(blob, {{l.dims[bias], q.tensors()[bias].shape[0] - 1}})));
    if (convnet) {  // 29 > the 28x28 input of the first pool
      forged.push_back(lite::FlatModel::deserialize(forged64(
          blob, {{l.window[first_op(q, OpType::MaxPool2D)], 29}})));
    }
    // Rank 1 {784} is a valid convnet request: its Reshape flattens any rank.
    std::vector<Shape> bad_requests = {{1, 100}, {1, 5000}};
    if (!convnet) bad_requests.push_back({784});

    for (const bool int8_compute : {false, true}) {
      SCOPED_TRACE(std::string(convnet ? "convnet" : "mlp") +
                   (int8_compute ? " int8" : " float"));
      SmallEnclave used;
      lite::LiteInterpreter interp(q, used.enclave.get(),
                                   kernels::KernelContext::shared(),
                                   /*weight_streaming=*/false, int8_compute);
      for (const Shape& shape : bad_requests) {
        EXPECT_THROW((void)interp.invoke(Tensor(shape)),
                     std::invalid_argument)
            << shape_to_string(shape);
      }
      for (const lite::FlatModel& model : forged) {
        lite::LiteInterpreter bad(model, nullptr,
                                  kernels::KernelContext::shared(),
                                  /*weight_streaming=*/false, int8_compute);
        EXPECT_THROW((void)bad.invoke(valid), std::invalid_argument);
      }
      // The rejected invokes charged nothing: a valid one afterwards costs
      // what it costs a fresh interpreter.
      SmallEnclave fresh;
      lite::LiteInterpreter reference(q, fresh.enclave.get(),
                                      kernels::KernelContext::shared(),
                                      /*weight_streaming=*/false,
                                      int8_compute);
      const std::uint64_t t0 = used.platform.clock().now_ns();
      const std::uint64_t r0 = fresh.platform.clock().now_ns();
      EXPECT_EQ(interp.invoke(valid), reference.invoke(valid));
      EXPECT_EQ(used.platform.clock().now_ns() - t0,
                fresh.platform.clock().now_ns() - r0);
      EXPECT_EQ(interp.last_invoke_flops(), reference.last_invoke_flops());
      EXPECT_EQ(interp.last_invoke_int8_ops(),
                reference.last_invoke_int8_ops());
    }
  }

  // A program lowered from a graph never passes through deserialize(), so
  // the invoke-time rule rejects what the load-time checks would have.
  const auto lowered_rejects = [&](const char* what, auto build) {
    Graph graph;
    GraphBuilder b(graph);
    build(b, b.placeholder("input"));
    const auto model = lite::FlatModel::from_frozen(graph, "input", "out");
    lite::LiteInterpreter interp(model);
    EXPECT_THROW((void)interp.invoke(valid), std::invalid_argument) << what;
  };
  lowered_rejects("Reshape target {0,-1}", [](GraphBuilder& b, NodeId x) {
    b.reshape("out", x, {0, -1});
  });
  lowered_rejects("MaxPool stride 0", [](GraphBuilder& b, NodeId x) {
    b.max_pool("out", b.reshape("image", x, {-1, 28, 28, 1}), 2, 0);
  });
  lowered_rejects("bias with no elements", [](GraphBuilder& b, NodeId x) {
    b.add("out", x, b.constant("bias", Tensor({0})));
  });
}

TEST(LiteTest, ConvnetLowersAndRuns) {
  const Graph g = mnist_convnet(9);
  Session session(g);  // the dense head holds variables: freeze them
  const auto model =
      lite::FlatModel::from_frozen(freeze(g, session), "input", "probs");
  lite::LiteInterpreter interp(model);
  const Dataset d = synthetic_mnist(1, 5);
  const Tensor probs = interp.invoke(d.sample(0));
  EXPECT_EQ(probs.shape(), (Shape{1, 10}));
  float sum = 0;
  for (std::int64_t i = 0; i < 10; ++i) sum += probs.at(i);
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

// Minimal cost environment for planner tests: records every access so the
// tests can pin exact charged bytes; streaming hints use the base-class
// no-ops (the math must not depend on them).
class RecordingEnv final : public tee::MemoryEnv {
 public:
  struct Access {
    std::uint64_t region, offset, len;
    bool write;
  };

  std::uint64_t alloc(std::string_view, std::uint64_t bytes) override {
    region_bytes_[next_id_] = bytes;
    return next_id_++;
  }
  void release(std::uint64_t) override {}
  void access(std::uint64_t region, std::uint64_t offset, std::uint64_t len,
              bool write) override {
    accesses_.push_back({region, offset, len, write});
  }
  void compute(double) override {}

  std::map<std::uint64_t, std::uint64_t> region_bytes_;
  std::vector<Access> accesses_;
  std::uint64_t next_id_ = 1;
};

std::vector<std::pair<std::string, Graph>> planner_model_zoo() {
  std::vector<std::pair<std::string, Graph>> zoo;
  zoo.emplace_back("mnist_mlp", mnist_mlp(32, 5));
  zoo.emplace_back("mnist_convnet", mnist_convnet(9));
  zoo.emplace_back("densenet_42mb", densenet_42mb());
  zoo.emplace_back("inception_v3_91mb", inception_v3_91mb());
  zoo.emplace_back("inception_v4_163mb", inception_v4_163mb());
  return zoo;
}

TEST(PlannerTest, OutputsBitIdenticalAcrossModels) {
  for (auto& [name, g] : planner_model_zoo()) {
    const bool mnist = name.rfind("mnist", 0) == 0;
    const Dataset d = mnist ? synthetic_mnist(3, 11) : synthetic_cifar10(3, 11);
    RecordingEnv planned_env, legacy_env;
    Session planned(g, &planned_env, kernels::KernelContext::shared(),
                    {.use_memory_planner = true, .weight_streaming = true});
    Session legacy(g, &legacy_env);
    Session pure(g);  // no env at all: the ground-truth math
    for (std::int64_t i = 0; i < 3; ++i) {
      const std::map<std::string, Tensor> feeds = {{"input", d.sample(i)}};
      const Tensor a = planned.run1("probs", feeds);
      const Tensor b = legacy.run1("probs", feeds);
      const Tensor c = pure.run1("probs", feeds);
      EXPECT_EQ(a, b) << name << ": planner changed the math";
      EXPECT_EQ(a, c) << name << ": cost accounting changed the math";
    }
  }
}

TEST(PlannerTest, PackedPeakNeverExceedsBumpCursorPeak) {
  for (auto& [name, g] : planner_model_zoo()) {
    const bool mnist = name.rfind("mnist", 0) == 0;
    const Dataset d = mnist ? synthetic_mnist(8, 3) : synthetic_cifar10(8, 3);
    RecordingEnv env;
    Session session(g, &env, kernels::KernelContext::shared(),
                    {.use_memory_planner = true});
    (void)session.run1("probs", d.batch_feeds(0, 8));
    ASSERT_TRUE(session.last_plan_report().has_value()) << name;
    const PlanReport& rep = *session.last_plan_report();
    EXPECT_GT(rep.tensor_count, 0u) << name;
    EXPECT_LE(rep.peak_bytes, rep.bump_peak_bytes)
        << name << ": packing must never beat the legacy arena's high water";
    EXPECT_GE(rep.reuse_ratio(), 1.0) << name;
    EXPECT_LE(rep.peak_bytes, rep.total_bytes) << name;
  }
}

TEST(PlannerTest, LargeFedBatchChargedExactly) {
  // Regression for the legacy read-window clamp: a fed batch larger than the
  // 1 MB initial arena was silently truncated to the arena size. The planner
  // path must charge the batch's exact bytes on both the feed write and the
  // consumer read.
  Graph g = mnist_mlp(16, 2);
  const Dataset d = synthetic_mnist(400, 21);
  const auto feeds = d.batch_feeds(0, 400);
  const std::uint64_t batch_bytes = feeds.at("input").byte_size();
  ASSERT_GT(batch_bytes, 1ull << 20) << "batch must outgrow the initial arena";

  RecordingEnv planned_env;
  Session planned(g, &planned_env, kernels::KernelContext::shared(),
                  {.use_memory_planner = true});
  (void)planned.run1("probs", feeds);
  std::uint64_t feed_writes = 0, feed_reads = 0;
  for (const auto& a : planned_env.accesses_) {
    if (a.len == batch_bytes && a.write) ++feed_writes;
    if (a.len == batch_bytes && !a.write) ++feed_reads;
  }
  EXPECT_EQ(feed_writes, 1u) << "the fed batch is written once, in full";
  EXPECT_GE(feed_reads, 1u) << "its consumer reads the full batch";

  // Pin the legacy undercharge this path fixes: no access in the bump-cursor
  // run ever covers the whole batch.
  RecordingEnv legacy_env;
  Session legacy(g, &legacy_env);
  (void)legacy.run1("probs", feeds);
  for (const auto& a : legacy_env.accesses_) {
    EXPECT_LT(a.len, batch_bytes)
        << "legacy clamp regressed: remove this check only if the legacy "
           "path was made exact too";
  }
}

TEST(PlannerTest, PlanIsCachedAcrossIdenticalRuns) {
  auto& plans = obs::Registry::global().counter(obs::names::kPlannerPlans);
  Graph g = mnist_mlp(16, 6);
  const Dataset d = synthetic_mnist(8, 4);
  RecordingEnv env;
  Session session(g, &env, kernels::KernelContext::shared(),
                  {.use_memory_planner = true});
  const std::uint64_t before = plans.value();
  (void)session.run1("probs", d.batch_feeds(0, 4));
  (void)session.run1("probs", d.batch_feeds(1, 4));  // same shapes: cache hit
  EXPECT_EQ(plans.value(), before + 1);
  (void)session.run1("probs", d.batch_feeds(0, 8));  // new batch size: replan
  EXPECT_EQ(plans.value(), before + 2);
}

TEST(PlannerTest, TrainingKeepsLegacyArenaAndConverges) {
  // gradients()/train_step() must bypass the planner (the tape pins every
  // activation); the planner option must not perturb training numerics.
  Graph g_planned = mnist_mlp(16, 8);
  Graph g_legacy = mnist_mlp(16, 8);
  RecordingEnv env;
  Session planned(g_planned, &env, kernels::KernelContext::shared(),
                  {.use_memory_planner = true});
  Session legacy(g_legacy);
  const Dataset d = synthetic_mnist(64, 13);
  for (int i = 0; i < 3; ++i) {
    const float a = planned.train_step("loss", d.batch_feeds(0, 64), 0.1f);
    const float b = legacy.train_step("loss", d.batch_feeds(0, 64), 0.1f);
    EXPECT_EQ(a, b) << "training diverged with the planner option set";
  }
  EXPECT_FALSE(planned.last_plan_report().has_value())
      << "training pass must not plan";
}

TEST(LiteTest, WeightStreamingDoesNotChangeResults) {
  Graph g = sized_classifier("stream", 2ull << 20);
  Session session(g);
  const auto model =
      lite::FlatModel::from_frozen(freeze(g, session), "input", "probs");

  // Streamed interpreter inside a hardware enclave vs the pure-math one.
  tee::CostModel cost;
  cost.epc_bytes = 64 * cost.page_size;  // far smaller than the weights
  tee::Platform platform("p", tee::TeeMode::Hardware, cost);
  auto enclave = platform.launch_enclave(
      {.name = "lite", .content = crypto::to_bytes("lite"), .binary_bytes = 0});
  lite::LiteInterpreter streamed(model, enclave.get(),
                                 kernels::KernelContext::shared(),
                                 /*weight_streaming=*/true);
  lite::LiteInterpreter pure(model);

  const Dataset d = synthetic_cifar10(2, 8);
  EXPECT_EQ(streamed.invoke(d.sample(0)), pure.invoke(d.sample(0)));
  EXPECT_EQ(streamed.invoke(d.sample(1)), pure.invoke(d.sample(1)));
  EXPECT_GT(platform.epc().stats().prefetched_pages, 0u)
      << "streaming must actually prefetch under EPC pressure";
  EXPECT_GT(platform.epc().stats().advised_evictions, 0u)
      << "dead weight windows must retire off the critical path";
}

TEST(LiteTest, ActivationFootprintSmallerThanWeights) {
  Graph g = sized_classifier("m", 8ull << 20);
  Session session(g);
  const auto model =
      lite::FlatModel::from_frozen(freeze(g, session), "input", "probs");
  lite::LiteInterpreter interp(model);
  const Dataset d = synthetic_cifar10(1, 2);
  (void)interp.invoke(d.sample(0));
  EXPECT_LT(interp.activation_bytes(), model.weight_bytes() / 100)
      << "Lite keeps a tiny activation footprint next to the weights";
}

// Pins everything an invoke computes and charges, per interpreter config,
// model and batch size: the outputs, last_invoke_flops, last_invoke_int8_ops,
// the invoke's virtual ns and its EPC loads and evictions, plus the
// serialized version-2 and calibrated version-3 bytes. The 24-page EPC
// makes the order of the memory charges show in the paging. The digest was
// computed from the interpreter with separate float and int8 loops; a
// mismatch means an output or a charge moved.
TEST(LiteTest, InvokeAccountingMatchesPinnedDigest) {
  struct Config {
    bool quantized, streaming, int8_compute, gpu_offload;
  };
  const Config configs[] = {
      {false, false, false, false},  // float
      {false, true, false, false},   // float + streaming
      {true, false, false, false},   // int8 storage (dequantizing)
      {true, true, true, false},     // int8_compute + streaming
      {false, false, false, true},   // GPU offload
  };
  struct Program {
    Graph graph;
    const char* output;  // fc2/bias and pool1 end on an int8-domain op
  };
  const Program programs[] = {{mnist_mlp(32, 5), "probs"},
                              {mnist_mlp(32, 5), "fc2/bias"},
                              {mnist_convnet(9), "probs"},
                              {mnist_convnet(9), "pool1"}};
  const Dataset calibration = synthetic_mnist(4, 21);
  const Dataset requests = synthetic_mnist(8, 33);
  std::vector<Tensor> calib;
  for (std::int64_t i = 0; i < 4; ++i) calib.push_back(calibration.sample(i));
  std::vector<Tensor> samples;
  for (std::int64_t i = 0; i < 8; ++i) samples.push_back(requests.sample(i));

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
  for (const Program& program : programs) {
    Session session(program.graph);
    const auto model = lite::FlatModel::from_frozen(
        freeze(program.graph, session), "input", program.output);
    const auto q = model.quantized(calib);
    digest.update(model.serialize());
    digest.update(q.serialize());
    for (const Config& c : configs) {
      SmallEnclave e;
      lite::LiteInterpreter interp(c.quantized ? q : model, e.enclave.get(),
                                   kernels::KernelContext::shared(),
                                   c.streaming, c.int8_compute, c.gpu_offload);
      for (const std::size_t batch : {1u, 3u, 8u}) {
        std::vector<const Tensor*> inputs;
        for (std::size_t i = 0; i < batch; ++i) inputs.push_back(&samples[i]);
        const std::uint64_t t0 = e.platform.clock().now_ns();
        const tee::EpcStats e0 = e.platform.epc().stats();
        const std::vector<Tensor> outs = interp.invoke_batch(inputs);
        const tee::EpcStats e1 = e.platform.epc().stats();
        put(e.platform.clock().now_ns() - t0);
        put(e1.loads - e0.loads);
        put(e1.evictions - e0.evictions);
        put_double(interp.last_invoke_flops());
        put_double(interp.last_invoke_int8_ops());
        for (const Tensor& out : outs) {
          for (const auto d : out.shape()) put(static_cast<std::uint64_t>(d));
          digest.update(crypto::BytesView(
              reinterpret_cast<const std::uint8_t*>(out.data()),
              out.byte_size()));
        }
      }
    }
  }
  EXPECT_EQ(crypto::to_hex(digest.finish()),
            "7a29bfe070b386b98f3e6b6ad44c2d3508ec25d65711b135838323c661a2151b");
}

// The Session twin of the test above: pins everything a run computes and
// charges, per executor config, model and batch size — the outputs,
// last_run_flops, the run's virtual ns, its EPC loads and evictions, and
// the offload counters when offload is on. The train config pins the loss
// and every variable after one train_step. The digest was computed from
// the Session with an op switch, a planned pass and a streaming schedule of
// its own; a mismatch means an output or a charge moved.
TEST(SessionTest, RunAccountingMatchesPinnedDigest) {
  struct Config {
    bool planner, streaming, gpu_offload, train;
  };
  const Config configs[] = {
      {false, false, false, false},  // legacy arena
      {true, false, false, false},   // planner
      {true, true, false, false},    // planner + streaming
      {false, false, true, false},   // GPU offload, legacy arena
      {true, false, true, false},    // GPU offload + planner
      {false, false, false, true},   // one train_step per batch
  };
  const Graph programs[] = {mnist_mlp(32, 5), mnist_convnet(9)};
  const Dataset data = synthetic_mnist(8, 33);

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
  const auto put_tensor = [&](const Tensor& t) {
    for (const auto d : t.shape()) put(static_cast<std::uint64_t>(d));
    digest.update(crypto::BytesView(
        reinterpret_cast<const std::uint8_t*>(t.data()), t.byte_size()));
  };
  for (const Graph& program : programs) {
    for (const Config& c : configs) {
      SmallEnclave e;
      Session session(program, e.enclave.get(),
                      kernels::KernelContext::shared(),
                      {.use_memory_planner = c.planner,
                       .weight_streaming = c.streaming,
                       .gpu_offload = c.gpu_offload});
      for (const std::int64_t batch : {1, 3, 8}) {
        const auto feeds = data.batch_feeds(0, batch);
        const std::uint64_t t0 = e.platform.clock().now_ns();
        const tee::EpcStats e0 = e.platform.epc().stats();
        std::vector<Tensor> outs;
        if (c.train) {
          outs.emplace_back(Shape{1}, std::vector<float>{
                                          session.train_step("loss", feeds,
                                                             0.1f)});
          for (const auto& [name, value] : session.variable_snapshot()) {
            outs.push_back(value);
          }
        } else {
          outs = session.run({"probs"}, {{"input", feeds.at("input")}});
        }
        const tee::EpcStats e1 = e.platform.epc().stats();
        put(e.platform.clock().now_ns() - t0);
        put(e1.loads - e0.loads);
        put(e1.evictions - e0.evictions);
        put_double(session.last_run_flops());
        for (const Tensor& out : outs) put_tensor(out);
        if (const SlalomStats* s = session.slalom_stats()) {
          put(s->offloaded_ops);
          put(s->verifications);
          put(s->fallbacks);
          put_double(s->gpu_flops);
          put_double(s->verification_flops);
          put(s->pcie_bytes);
        }
      }
    }
  }
  EXPECT_EQ(crypto::to_hex(digest.finish()),
            "1e10c17bc0694f968b70aef449d46ce6d8776b0eeb5cb30aa618a126296045ac");
}

// Graphs come from outside the enclave (deserialize_graph), and each of
// these parses. Session::run must refuse every one with a typed error: no
// Reshape inference divides by a zero dimension, and no op reads an input
// it does not have.
TEST(SessionTest, ForgedGraphsFailTyped) {
  const auto forged = [](OpType type, std::size_t n_inputs, NodeAttrs attrs) {
    Graph g;
    const NodeId x = g.add_node(OpType::Placeholder, "input", {});
    g.add_node(type, "out", std::vector<NodeId>(n_inputs, x), attrs);
    return deserialize_graph(serialize_graph(g));
  };
  const Graph graphs[] = {
      forged(OpType::Reshape, 1, {.target_shape = {-1, 0}}),
      forged(OpType::Reshape, 1, {.target_shape = {0, -1}}),
      forged(OpType::MatMul, 1, {}),
      forged(OpType::Relu, 0, {}),
      forged(OpType::Reshape, 1, {.target_shape = {-1, -1}}),
      forged(OpType::Reshape, 1, {.target_shape = {0, 4}}),
      forged(OpType::MaxPool2D, 1, {.window = 0}),
  };
  const Tensor feed({1, 4}, {1, 2, 3, 4});
  for (const Graph& g : graphs) {
    Session session(g);
    EXPECT_THROW((void)session.run1("out", {{"input", feed}}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace stf::ml
