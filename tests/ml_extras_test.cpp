// Tests for the ML extensions: optimizers, sigmoid/tanh ops and gradients,
// and input-resolution normalization (§7.1).
#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/optimizers.h"
#include "ml/ops.h"
#include "ml/serialize.h"
#include "ml/session.h"

namespace stf::ml {
namespace {

TEST(ActivationOpsTest, SigmoidValues) {
  const Tensor x({3}, {0.0f, 100.0f, -100.0f});
  const auto r = ops::sigmoid(x);
  EXPECT_FLOAT_EQ(r.output.at(0), 0.5f);
  EXPECT_NEAR(r.output.at(1), 1.0f, 1e-6f);
  EXPECT_NEAR(r.output.at(2), 0.0f, 1e-6f);
}

TEST(ActivationOpsTest, TanhValues) {
  const Tensor x({3}, {0.0f, 10.0f, -10.0f});
  const auto r = ops::tanh_op(x);
  EXPECT_FLOAT_EQ(r.output.at(0), 0.0f);
  EXPECT_NEAR(r.output.at(1), 1.0f, 1e-5f);
  EXPECT_NEAR(r.output.at(2), -1.0f, 1e-5f);
}

// Build a tiny net with the given activation and check autodiff against
// numerical differentiation.
void check_activation_gradients(OpType activation) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("input");
  const NodeId labels = b.placeholder("labels");
  const NodeId w = b.variable("w", Tensor({3, 4}, {0.1f, -0.2f, 0.3f, 0.05f,
                                                   -0.4f, 0.2f, 0.15f, -0.1f,
                                                   0.25f, -0.3f, 0.1f, 0.2f}));
  const NodeId mm = b.matmul("mm", x, w);
  const NodeId act = g.add_node(activation, "act", {mm});
  b.softmax_cross_entropy("loss", act, labels);

  Session session(g);
  const std::map<std::string, Tensor> feeds = {
      {"input", Tensor({2, 3}, {0.5f, -0.3f, 0.8f, -0.2f, 0.7f, 0.1f})},
      {"labels", Tensor({2, 4}, {1, 0, 0, 0, 0, 0, 1, 0})}};
  const auto grads = session.gradients("loss", feeds);
  const Tensor analytic = grads.at("w");

  Tensor value = session.variable("w");
  for (std::int64_t i = 0; i < value.size(); ++i) {
    const float eps = 1e-3f;
    Tensor plus = value, minus = value;
    plus.at(i) += eps;
    minus.at(i) -= eps;
    session.assign("w", plus);
    const float lp = session.run1("loss", feeds).at(0);
    session.assign("w", minus);
    const float lm = session.run1("loss", feeds).at(0);
    session.assign("w", value);
    EXPECT_NEAR(analytic.at(i), (lp - lm) / (2 * eps), 2e-3f)
        << op_name(activation) << " grad[" << i << "]";
  }
}

TEST(ActivationOpsTest, SigmoidGradientMatchesNumerical) {
  check_activation_gradients(OpType::Sigmoid);
}

TEST(ActivationOpsTest, TanhGradientMatchesNumerical) {
  check_activation_gradients(OpType::Tanh);
}

TEST(ActivationOpsTest, SerializeRoundTripNewOps) {
  Graph g;
  GraphBuilder b(g);
  const NodeId x = b.placeholder("x");
  b.tanh("t", b.sigmoid("s", x));
  const Graph restored = deserialize_graph(serialize_graph(g));
  EXPECT_EQ(restored.node(restored.find("s")).type, OpType::Sigmoid);
  EXPECT_EQ(restored.node(restored.find("t")).type, OpType::Tanh);
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

float train_with(Optimizer& opt, int steps) {
  Graph g = mnist_mlp(32, 5);
  Session session(g);
  const Dataset data = synthetic_mnist(200, 11);
  const auto feeds = data.batch_feeds(0, 100);
  float loss = 0;
  for (int i = 0; i < steps; ++i) loss = opt.minimize(session, "loss", feeds);
  return loss;
}

TEST(OptimizerTest, AllOptimizersReduceLoss) {
  Graph g = mnist_mlp(32, 5);
  Session probe(g);
  const Dataset data = synthetic_mnist(200, 11);
  const float initial = probe.run1("loss", data.batch_feeds(0, 100)).at(0);

  Sgd sgd(0.1f);
  MomentumSgd momentum(0.05f, 0.9f);
  Adam adam(0.01f);
  EXPECT_LT(train_with(sgd, 20), initial * 0.6f);
  EXPECT_LT(train_with(momentum, 20), initial * 0.6f);
  EXPECT_LT(train_with(adam, 20), initial * 0.6f);
}

TEST(OptimizerTest, MomentumAcceleratesOverSgdOnSmallLr) {
  // With a small learning rate and consistent gradients, momentum makes
  // strictly more progress per step than plain SGD.
  Sgd sgd(0.01f);
  MomentumSgd momentum(0.01f, 0.9f);
  const float sgd_loss = train_with(sgd, 25);
  const float momentum_loss = train_with(momentum, 25);
  EXPECT_LT(momentum_loss, sgd_loss);
}

TEST(OptimizerTest, SgdMatchesSessionTrainStep) {
  Graph g = mnist_mlp(16, 5);
  Session a(g), c(g);
  const Dataset data = synthetic_mnist(100, 3);
  const auto feeds = data.batch_feeds(0, 100);
  Sgd sgd(0.1f);
  for (int i = 0; i < 5; ++i) {
    a.train_step("loss", feeds, 0.1f);
    sgd.minimize(c, "loss", feeds);
  }
  const auto va = a.variable_snapshot();
  const auto vb = c.variable_snapshot();
  for (const auto& [name, value] : va) {
    const auto& other = vb.at(name);
    for (std::int64_t i = 0; i < value.size(); ++i) {
      ASSERT_FLOAT_EQ(value.at(i), other.at(i)) << name;
    }
  }
}

TEST(OptimizerTest, AdamStateIsPerVariable) {
  Graph g;
  GraphBuilder b(g);
  b.variable("a", Tensor({2}, {1, 1}));
  b.variable("b", Tensor({3}, {1, 1, 1}));
  Session session(g);
  Adam adam(0.1f);
  adam.apply(session, {{"a", Tensor({2}, {1, 1})}});
  adam.apply(session, {{"b", Tensor({3}, {1, 1, 1})}});  // must not collide
  EXPECT_LT(session.variable("a").at(0), 1.0f);
  EXPECT_LT(session.variable("b").at(0), 1.0f);
}

// ---------------------------------------------------------------------------
// Input normalization (§7.1)
// ---------------------------------------------------------------------------

TEST(NormalizationTest, ShapesAndAveraging) {
  // A 4x4 single-channel "image" of known values averages to 2x2 exactly.
  Dataset d;
  d.feature_dim = 16;
  d.num_classes = 10;
  d.images = Tensor({1, 16}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                              14, 15});
  d.labels = Tensor({1, 10});
  const Dataset out = normalize_resolution(d, 4, 4, 1, 2, 2);
  EXPECT_EQ(out.feature_dim, 4);
  EXPECT_FLOAT_EQ(out.images.at2(0, 0), (0 + 1 + 4 + 5) / 4.0f);
  EXPECT_FLOAT_EQ(out.images.at2(0, 3), (10 + 11 + 14 + 15) / 4.0f);
}

TEST(NormalizationTest, RejectsBadGeometry) {
  const Dataset d = synthetic_images(2, 8, 8, 1, 1);
  EXPECT_THROW((void)normalize_resolution(d, 7, 8, 1, 4, 4),
               std::invalid_argument);  // wrong source shape
  EXPECT_THROW((void)normalize_resolution(d, 8, 8, 1, 3, 4),
               std::invalid_argument);  // 8 % 3 != 0
  EXPECT_THROW((void)normalize_resolution(d, 8, 8, 1, 0, 4),
               std::invalid_argument);
}

TEST(NormalizationTest, LabelsPreservedAndClassesStaySeparable) {
  const Dataset full = synthetic_images(400, 32, 32, 1, 9);
  const Dataset small = normalize_resolution(full, 32, 32, 1, 16, 16);
  EXPECT_EQ(small.labels, full.labels);

  // A classifier trained on normalized inputs still learns the task.
  Graph g;
  GraphBuilder b(g);
  const auto input = b.placeholder("input");
  const auto labels = b.placeholder("labels");
  const auto h = b.dense("fc1", input, 16 * 16, 64, true, 2);
  const auto logits = b.dense("fc2", h, 64, 10, false, 3);
  const auto named = b.scale("logits", logits, 1.0f);
  b.argmax("pred", named);
  b.softmax_cross_entropy("loss", named, labels);
  Session session(g);
  for (int e = 0; e < 8; ++e) {
    for (std::int64_t batch = 0; batch < 3; ++batch) {
      session.train_step("loss", small.batch_feeds(batch, 100), 0.15f);
    }
  }
  const auto feeds = small.batch_feeds(3, 100);
  const Tensor pred = session.run1("pred", feeds);
  int correct = 0;
  for (std::int64_t i = 0; i < 100; ++i) {
    std::int64_t label = -1;
    for (std::int64_t c = 0; c < 10; ++c) {
      if (feeds.at("labels").at2(i, c) > 0.5f) label = c;
    }
    if (static_cast<std::int64_t>(pred.at(i)) == label) ++correct;
  }
  EXPECT_GT(correct, 60);
}

TEST(NormalizationTest, NoopResizeIsIdentity) {
  const Dataset d = synthetic_images(3, 8, 8, 2, 4);
  const Dataset same = normalize_resolution(d, 8, 8, 2, 8, 8);
  EXPECT_EQ(same.images, d.images);
}

}  // namespace
}  // namespace stf::ml

// Slalom-style GPU offloading with in-enclave verification (§7.4), on the
// Session executor (docs/GPU_OFFLOAD.md).
namespace stf::ml {
namespace {

TEST(SlalomTest, MatchesEnclaveOnlyExecution) {
  Graph g = mnist_mlp(32, 5);
  Session trainer(g);
  const Graph frozen = freeze(g, trainer);
  const Dataset data = synthetic_mnist(4, 9);
  Session reference(frozen);
  SessionOptions opts;
  opts.gpu_offload = true;
  Session slalom(frozen, nullptr, kernels::KernelContext::shared(), opts);
  for (std::int64_t i = 0; i < 4; ++i) {
    const Tensor expected =
        reference.run1("probs", {{"input", data.sample(i)}});
    const Tensor got = slalom.run1("probs", {{"input", data.sample(i)}});
    ASSERT_EQ(got.shape(), expected.shape());
    for (std::int64_t j = 0; j < got.size(); ++j) {
      ASSERT_NEAR(got.at(j), expected.at(j), 1e-5f);
    }
  }
  ASSERT_NE(slalom.slalom_stats(), nullptr);
  EXPECT_GT(slalom.slalom_stats()->offloaded_ops, 0u);
  EXPECT_EQ(slalom.slalom_stats()->verifications,
            slalom.slalom_stats()->offloaded_ops);
}

}  // namespace
}  // namespace stf::ml
