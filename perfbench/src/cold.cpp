// cold_start_shielded: one sequential client launching a HW-mode secureTF
// context, attesting against a CAS, provisioning the model through the fs
// shield (seal + write), loading it back (read + verify + decrypt +
// FlatModel::deserialize), creating the Lite service and classifying a few
// inputs unbatched. The model fits the EPC and nothing is batched; the fs
// shield's real bulk chunk crypto is on the timed path.
#include <chrono>
#include <cstring>
#include <thread>

#include "cas/cas_server.h"
#include "core/securetf.h"
#include "harness.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "obs/names.h"
#include "obs/profile.h"

namespace perfbench {
namespace {

using namespace stf;

constexpr std::uint64_t kModelBytes = 4ull << 20;
constexpr std::int64_t kInputDim = 1024;
constexpr std::int64_t kClassifies = 8;  // the first is the cold one
constexpr const char* kModelPath = "/secure/model.stflite";
constexpr const char* kSession = "cold-start";
constexpr const char* kProfileRow = "perfbench.cold_start";

core::SecureTfConfig context_config(std::uint64_t seed) {
  core::SecureTfConfig cfg;
  cfg.node_name = "cold";
  cfg.mode = tee::TeeMode::Hardware;
  cfg.fs_shield.fidelity = runtime::CryptoFidelity::Real;
  cfg.fs_shield.hardware_enclave = true;
  cfg.seed = seed;
  return cfg;
}

bool same_bits(const ml::Tensor& a, const ml::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.byte_size()) == 0;
}

class ColdWorkload final : public Workload {
 public:
  explicit ColdWorkload(const Options& opt) : opt_(opt) {}

  std::vector<ConfigEntry> config() const override {
    const core::SecureTfConfig cfg = context_config(opt_.seed);
    std::vector<ConfigEntry> c = {
        config_str("workload", "cold_start_shielded"),
        config_str("loop", "closed, one sequential client"),
        config_num("model_weight_bytes", static_cast<double>(kModelBytes)),
        config_num("input_dim", kInputDim),
        config_num("classifies", kClassifies),
        config_num("fs_chunk_size",
                   static_cast<double>(cfg.fs_shield.chunk_size)),
        config_str("fs_crypto_fidelity", "real"),
        config_num("cores", cfg.cores),
    };
    const auto cost = cost_model_config("cost.", cfg.model);
    c.insert(c.end(), cost.begin(), cost.end());
    return c;
  }

  std::vector<std::string> profile_rows() const override {
    return {kProfileRow};
  }

  Rep run_rep(HostTrace& trace) override {
    Rep rep;
    const std::size_t mark = trace.spans().size();
    const core::SecureTfConfig cfg = context_config(opt_.seed);

    // --- set-up: model, inputs, the CAS and its policy -------------------
    std::unique_ptr<ml::lite::FlatModel> model;
    crypto::Bytes blob;
    std::vector<ml::Tensor> inputs;
    tee::ProvisioningAuthority authority;
    std::unique_ptr<tee::Platform> cas_host;
    std::unique_ptr<cas::CasServer> cas;
    {
      auto setup = trace.span("setup");
      {
        auto s = trace.span("ml.model_build");
        const ml::Graph graph = ml::sized_classifier("cold", kModelBytes,
                                                     kInputDim, 10, opt_.seed);
        ml::Session session(graph, nullptr, ml::kernels::KernelContext{});
        model = std::make_unique<ml::lite::FlatModel>(
            ml::lite::FlatModel::from_frozen(ml::freeze(graph, session),
                                             "input", "probs"));
        blob = model->serialize();
        for (std::int64_t i = 0; i < kClassifies; ++i) {
          inputs.emplace_back(
              ml::Shape{1, kInputDim},
              seeded_floats(opt_.seed * 1000 + static_cast<std::uint64_t>(i),
                            static_cast<std::size_t>(kInputDim)));
        }
      }
      {
        auto s = trace.span("cas.server_build");
        cas_host = std::make_unique<tee::Platform>(
            "cas", tee::TeeMode::Hardware, cfg.model, authority);
        cas = std::make_unique<cas::CasServer>(
            *cas_host, authority,
            crypto::to_bytes("cas-seed-" + std::to_string(opt_.seed)));
        cas::EnclavePolicy policy;
        // The measurement of the service image every context launches.
        policy.expected_mrenclave =
            core::SecureTfContext(cfg, &authority).service_measurement();
        policy.secrets = {
            {"fs-key", crypto::HmacDrbg(crypto::to_bytes(
                           "fs-key-" + std::to_string(opt_.seed)))
                           .generate(32)}};
        cas->register_policy(kSession, policy);
      }
      rep.setup_s = setup.elapsed_s();
    }

    // --- timed: enclave launch to the last classification ---------------
    std::vector<ml::Tensor> outputs;
    std::vector<double> warm_ms;
    cas::ProvisionOutcome attest;
    crypto::Bytes read_back;
    double cold_start_ms = 0;
    {
      auto timed = trace.span("cold_start");
      core::SecureTfContext ctx(cfg, &authority);
      tee::SimClock& clock = ctx.platform().clock();
      // The CAS is a long-running service that booted during set-up: the
      // client launches once it is up, so the cold start never includes
      // waiting for the CAS's own enclave launch.
      clock.advance_to(cas_host->clock().now_ns());
      const std::uint64_t start_ns = clock.now_ns();
      std::unique_ptr<core::InferenceService> service;
      {
        obs::ScopedAttribution profile(clock, kProfileRow);
        {
          auto s = trace.span("cas.attest");
          attest = ctx.attach_cas(*cas, kSession);
        }
        {
          auto s = trace.span("runtime.fs_shield.write");
          ctx.write_file(kModelPath, blob);
        }
        {
          auto s = trace.span("runtime.fs_shield.read");
          if (opt_.inject_read_delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    opt_.inject_read_delay_ms));
          }
          read_back = ctx.read_file(kModelPath);
        }
        std::unique_ptr<ml::lite::FlatModel> loaded;
        {
          auto s = trace.span("ml.lite.deserialize");
          loaded = std::make_unique<ml::lite::FlatModel>(
              ml::lite::FlatModel::deserialize(read_back));
        }
        {
          auto s = trace.span("core.inference.create");
          service = ctx.create_lite_service(std::move(*loaded));
        }
        auto s = trace.span("core.inference.classify");
        outputs.push_back(service->classify(inputs[0]));
      }
      cold_start_ms = static_cast<double>(clock.now_ns() - start_ns) / 1e6;
      for (std::size_t i = 1; i < inputs.size(); ++i) {
        auto s = trace.span("core.inference.classify");
        outputs.push_back(service->classify(inputs[i]));
        warm_ms.push_back(service->last_latency_ms());
      }
      rep.wall_s = timed.elapsed_s();
    }

    // --- output checks (untimed) ------------------------------------------
    ml::lite::LiteInterpreter reference(*model, nullptr,
                                        ml::kernels::KernelContext{});
    std::int64_t wrong = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (i >= outputs.size() ||
          !same_bits(outputs[i], reference.invoke(inputs[i]))) {
        ++wrong;
      }
    }
    const double integrity_failures =
        registry_counter(obs::names::kFsShieldIntegrityFailures);
    rep.attempted = kClassifies;
    rep.failed = attest.ok ? wrong : kClassifies;
    rep.checks.push_back({"cold.attestation_ok", attest.ok, attest.error});
    rep.checks.push_back({"cold.read_equals_written", read_back == blob,
                          std::to_string(read_back.size()) + " of " +
                              std::to_string(blob.size()) + " bytes"});
    rep.checks.push_back({"cold.no_integrity_failures", integrity_failures == 0,
                          json_number(integrity_failures) + " failures"});
    rep.checks.push_back({"cold.outputs_match_native_interpreter", wrong == 0,
                          std::to_string(wrong) + " of " +
                              std::to_string(inputs.size()) + " differ"});

    rep.exact["cold_start_ms"] = cold_start_ms;
    rep.exact["latency_p50_ms"] = nearest_rank(warm_ms, 0.5);
    rep.digests["cold.outputs"] = [&] {
      std::string bits;
      for (const auto& t : outputs) {
        bits.append(reinterpret_cast<const char*>(t.data()), t.byte_size());
      }
      return crypto::to_hex(crypto::sha256(crypto::to_bytes(bits)));
    }();

    const double read_s = trace.total_s("runtime.fs_shield.read", mark);
    const double opened = registry_counter(obs::names::kFsShieldBytesOpened);
    rep.host_layer["runtime.fs_shield.write_s"] =
        trace.total_s("runtime.fs_shield.write", mark);
    rep.host_layer["runtime.fs_shield.read_s"] = read_s;
    rep.host_layer["runtime.fs_shield.read_MBps"] = opened / read_s / 1e6;
    rep.host_layer["ml.lite.deserialize_ms"] =
        trace.total_s("ml.lite.deserialize", mark) * 1e3;
    rep.host_layer["core.inference.create_ms"] =
        trace.total_s("core.inference.create", mark) * 1e3;
    rep.host_layer["core.inference.classify_ms"] =
        median(trace.durations_s("core.inference.classify", mark)) * 1e3;
    rep.host_layer["cas.attest_wall_ms"] =
        trace.total_s("cas.attest", mark) * 1e3;
    rep.virtual_layer["cas.attest_ms"] = attest.breakdown.total_ms;
    rep.virtual_layer["cas.quote_verify_ms"] =
        attest.breakdown.quote_verification_ms;
    rep.virtual_layer["runtime.fs_shield.bytes_opened"] = opened;
    return rep;
  }

 private:
  Options opt_;
};

}  // namespace

std::unique_ptr<Workload> make_cold_workload(const Options& opt) {
  return std::make_unique<ColdWorkload>(opt);
}

}  // namespace perfbench
