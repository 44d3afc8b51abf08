// Tests for the extension features: graph optimization (§7.2), int8
// quantization, and the network-facing classifier service (§4.2).
#include <gtest/gtest.h>

#include "core/classifier_server.h"
#include "core/securetf.h"
#include "ml/dataset.h"
#include "ml/models.h"
#include "ml/optimize.h"

namespace stf {
namespace {

using crypto::to_bytes;

// ---------------------------------------------------------------------------
// Graph optimization
// ---------------------------------------------------------------------------

TEST(OptimizeTest, PruneDropsUnreachableNodes) {
  ml::Graph g;
  ml::GraphBuilder b(g);
  const auto x = b.placeholder("input");
  const auto used = b.relu("used", x);
  b.softmax("head", used);
  // Dead branch with its own weights.
  const auto dead_w = b.constant("dead/w", ml::Tensor({64, 64}));
  b.matmul("dead/mm", x, dead_w);

  const ml::Graph pruned = ml::prune(g, {"head"});
  EXPECT_EQ(pruned.node_count(), 3u);
  EXPECT_FALSE(pruned.contains("dead/mm"));
  EXPECT_EQ(pruned.parameter_bytes(), 0u) << "dead weights must be dropped";
}

TEST(OptimizeTest, FoldRemovesIdentityScales) {
  ml::Graph g;
  ml::GraphBuilder b(g);
  const auto x = b.placeholder("input");
  const auto id1 = b.scale("id1", x, 1.0f);
  const auto real = b.scale("real", id1, 0.5f);
  const auto id2 = b.scale("id2", real, 1.0f);
  b.relu("out", id2);

  const ml::Graph folded = ml::fold_identities(g, {"out"});
  EXPECT_FALSE(folded.contains("id1"));
  EXPECT_FALSE(folded.contains("id2"));
  EXPECT_TRUE(folded.contains("real")) << "non-identity scale must survive";
  EXPECT_TRUE(folded.contains("out"));
}

TEST(OptimizeTest, KeepNamesProtectsOutputs) {
  ml::Graph g;
  ml::GraphBuilder b(g);
  const auto x = b.placeholder("input");
  b.scale("logits", x, 1.0f);  // identity, but it is the published head
  const ml::Graph folded = ml::fold_identities(g, {"logits"});
  EXPECT_TRUE(folded.contains("logits"));
}

TEST(OptimizeTest, OptimizedGraphComputesSameResult) {
  ml::Graph g = ml::mnist_mlp(24, 9);
  ml::Session before(g);
  ml::OptimizeReport report;
  const ml::Graph optimized =
      ml::optimize(ml::freeze(g, before), {"probs"}, &report);
  EXPECT_LT(report.nodes_after, report.nodes_before)
      << "mnist_mlp has unused heads (loss/pred) and identity scales";

  ml::Session after(optimized);
  const ml::Dataset d = ml::synthetic_mnist(4, 6);
  const auto feeds = d.batch_feeds(0, 4);
  EXPECT_EQ(after.run1("probs", feeds), before.run1("probs", feeds));
}

TEST(OptimizeTest, ReportCountsParameters) {
  ml::Graph g = ml::mnist_mlp(16, 2);
  ml::Session s(g);
  ml::OptimizeReport report;
  (void)ml::optimize(ml::freeze(g, s), {"probs"}, &report);
  EXPECT_GT(report.parameter_bytes_before, 0u);
  EXPECT_LE(report.parameter_bytes_after, report.parameter_bytes_before);
}

// ---------------------------------------------------------------------------
// Quantization + serialization
// ---------------------------------------------------------------------------

TEST(QuantizationTest, SerializeRoundTripInt8) {
  ml::Graph g = ml::mnist_mlp(16, 4);
  ml::Session s(g);
  const auto model = ml::lite::FlatModel::from_frozen(ml::freeze(g, s),
                                                      "input", "probs")
                         .quantized();
  const auto restored = ml::lite::FlatModel::deserialize(model.serialize());
  EXPECT_TRUE(restored.is_quantized());
  EXPECT_EQ(restored.weight_bytes(), model.weight_bytes());
  ml::lite::LiteInterpreter a(model), c(restored);
  const ml::Dataset d = ml::synthetic_mnist(1, 5);
  EXPECT_EQ(a.invoke(d.sample(0)), c.invoke(d.sample(0)));
}

TEST(QuantizationTest, QuantizingTwiceIsIdempotent) {
  ml::Graph g = ml::mnist_mlp(8, 4);
  ml::Session s(g);
  const auto q = ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                                  "probs")
                     .quantized();
  const auto qq = q.quantized();
  EXPECT_EQ(qq.serialize(), q.serialize());
}

TEST(QuantizationTest, ModelFileShrinksFourfold) {
  ml::Graph g = ml::sized_classifier("m", 16ull << 20);
  ml::Session s(g);
  const auto model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const auto q = model.quantized();
  const double ratio = static_cast<double>(model.serialize().size()) /
                       static_cast<double>(q.serialize().size());
  EXPECT_NEAR(ratio, 4.0, 0.1);
}

TEST(QuantizationTest, QuantizedServiceRunsInHardwareMode) {
  ml::Graph g = ml::mnist_mlp(24, 6);
  ml::Session s(g);
  const auto q = ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input",
                                                  "probs")
                     .quantized();
  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  core::SecureTfContext ctx(cfg);
  auto service = ctx.create_lite_service(q);
  const ml::Dataset d = ml::synthetic_mnist(3, 8);
  for (std::int64_t i = 0; i < 3; ++i) {
    const auto label = service->classify_label(d.sample(i));
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

// ---------------------------------------------------------------------------
// Classifier wire format
// ---------------------------------------------------------------------------

TEST(ClassifierWireTest, RequestRoundTrip) {
  const ml::Dataset d = ml::synthetic_mnist(1, 3);
  const ml::Tensor image = d.sample(0);
  const auto encoded = core::ClassifierServer::encode_request(image);
  const auto decoded = core::ClassifierServer::decode_request(encoded, 784);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, image);
}

TEST(ClassifierWireTest, RequestValidation) {
  const ml::Tensor image({1, 10});
  const auto encoded = core::ClassifierServer::encode_request(image);
  // Wrong expected dimension.
  EXPECT_FALSE(core::ClassifierServer::decode_request(encoded, 784));
  // Truncated payload.
  crypto::Bytes truncated(encoded.begin(), encoded.end() - 4);
  EXPECT_FALSE(core::ClassifierServer::decode_request(truncated, 10));
  // Absurd claimed length (Iago-style).
  crypto::Bytes absurd(4);
  crypto::store_be32(absurd.data(), 0xFFFFFFFF);
  EXPECT_FALSE(core::ClassifierServer::decode_request(absurd, 0));
  EXPECT_FALSE(core::ClassifierServer::decode_request({}, 0));
}

TEST(ClassifierWireTest, ReplyRoundTrip) {
  core::ClassifyReply reply;
  reply.ok = true;
  reply.label = 7;
  reply.probabilities = ml::Tensor({1, 10}, {0, 0, 0, 0, 0, 0, 0, 1, 0, 0});
  const auto decoded =
      core::ClassifierServer::decode_reply(
          core::ClassifierServer::encode_reply(reply));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->label, 7);
  EXPECT_EQ(decoded->probabilities, reply.probabilities);
}

TEST(ClassifierWireTest, ErrorReplyRoundTrip) {
  core::ClassifyReply reply;
  reply.ok = false;
  reply.error = "malformed request";
  const auto decoded = core::ClassifierServer::decode_reply(
      core::ClassifierServer::encode_reply(reply));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->error, "malformed request");
}

TEST(ClassifierWireTest, ReplyValidation) {
  EXPECT_FALSE(core::ClassifierServer::decode_reply({}));
  crypto::Bytes junk = {1, 2, 3};
  EXPECT_FALSE(core::ClassifierServer::decode_reply(junk));
}

TEST(ClassifierServerTest, MalformedRequestGetsErrorReply) {
  ml::Graph g = ml::mnist_mlp(16, 5);
  ml::Session s(g);
  const auto model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  core::SecureTfContext ctx(cfg);
  auto inference = ctx.create_lite_service(model);
  crypto::HmacDrbg rng(to_bytes("srv"));
  core::ClassifierServer server(*inference, rng, 784);

  net::SimNetwork net;
  tee::SimClock client_clock;
  const auto cn = net.add_node("client", client_clock);
  const auto sn = net.add_node("server", ctx.platform().base_clock());
  auto [client_conn, server_conn] = net.connect(cn, sn);
  crypto::HmacDrbg client_rng(to_bytes("cli"));
  core::ClassifierClient client(client_rng, cfg.model, client_clock);
  client_conn.send(client.hello());

  server.serve_connection(server_conn, [&] {
    client.finish(*client_conn.recv(), client_conn);
    // A wrong-dimension image: refused but answered.
    client.send_image(ml::Tensor({1, 3}, {1, 2, 3}));
  });
  const auto reply = client.recv_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(server.requests_rejected(), 1u);
}

TEST(ClassifierServerTest, ClientHangUpEndsTheConnection) {
  // A client that sends its last request and hangs up has stopped sending:
  // the server answers the request and returns instead of throwing.
  ml::Graph g = ml::mnist_mlp(16, 5);
  ml::Session s(g);
  const auto model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  core::SecureTfConfig cfg;
  cfg.mode = tee::TeeMode::Simulation;
  core::SecureTfContext ctx(cfg);
  auto inference = ctx.create_lite_service(model);
  crypto::HmacDrbg rng(to_bytes("srv"));
  core::ClassifierServer server(*inference, rng, 784);

  net::SimNetwork net;
  tee::SimClock client_clock;
  const auto cn = net.add_node("client", client_clock);
  const auto sn = net.add_node("server", ctx.platform().base_clock());
  auto [client_conn, server_conn] = net.connect(cn, sn);
  crypto::HmacDrbg client_rng(to_bytes("cli"));
  core::ClassifierClient client(client_rng, cfg.model, client_clock);
  client_conn.send(client.hello());

  EXPECT_NO_THROW(server.serve_connection(server_conn, [&] {
    client.finish(*client_conn.recv(), client_conn);
    client.send_image(ml::Tensor({1, 784}));
    client_conn.close();
  }));
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.requests_rejected(), 0u);
}

}  // namespace
}  // namespace stf
