// Figure 6: effect of the file-system shield on classification latency.
//
// Paper shape: the shield's cost is paid at application startup (decrypting
// the model at AES-NI rates, ~4 GB/s) and is negligible per classification:
// ~0.12% in SIM mode and ~0.9% in HW mode.
#include "bench_common.h"
#include "core/securetf.h"
#include "ml/dataset.h"

namespace {

using namespace stf;

constexpr double kInterpreterFlops = 2.66e9;
constexpr int kRunsPerStart = 10;  // classifications amortizing one startup

struct Sample {
  double per_classification_s = 0;
};

Sample measure(tee::TeeMode mode, const core::ModelSpec& spec,
               const crypto::Bytes& model_blob, const ml::Tensor& image,
               bool shield_on) {
  core::SecureTfConfig cfg;
  cfg.mode = mode;
  cfg.model.flops_per_second = kInterpreterFlops;
  cfg.fs_shield.hardware_enclave = (mode == tee::TeeMode::Hardware);
  if (!shield_on) {
    cfg.fs_shield.prefixes = {{"/", runtime::ShieldPolicy::Passthrough}};
  }
  core::SecureTfContext ctx(cfg);
  ctx.provision_fs_key(crypto::HmacDrbg(crypto::to_bytes("k")).generate(32));

  // Provisioning (writing the sealed model) happens once, offline.
  ctx.write_file("/secure/model.stflite", model_blob);

  const tee::SimClock::Ns start = ctx.platform().clock().now_ns();

  // Startup: read (and, with the shield, verify + decrypt) the model file.
  const auto raw = ctx.read_file("/secure/model.stflite");
  auto model = ml::lite::FlatModel::deserialize(raw);

  // In HW mode the shield's chunk crypto runs inside the enclave and is
  // charged at the in-enclave AEAD bandwidth (hardware_enclave above).
  core::InferenceOptions opts;
  opts.container_name = spec.name;
  opts.bytes_per_flop = spec.bytes_per_flop;
  opts.extra_gflops_per_inference = spec.gflops_per_inference;
  auto service = ctx.create_lite_service(std::move(model), opts);

  for (int i = 0; i < kRunsPerStart; ++i) (void)service->classify(image);

  const double total_s =
      static_cast<double>(ctx.platform().clock().now_ns() - start) / 1e9;
  return {total_s / kRunsPerStart};
}

void run() {
  bench::print_header(
      "Figure 6 — file-system shield effect on classification latency",
      "shield overhead ~0.12% (SIM) / ~0.9% (HW); startup-only cost");

  const ml::Dataset cifar = ml::synthetic_cifar10(1, 3);
  const ml::Tensor image = cifar.sample(0);

  for (const auto& spec : {core::densenet_spec(), core::inception_v3_spec(),
                           core::inception_v4_spec()}) {
    std::printf("\n[%s, %llu MB]  (startup + %d classifications, per-run)\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(spec.weight_bytes >> 20),
                kRunsPerStart);
    ml::Graph g = spec.build_graph();
    ml::Session session(g);
    const auto blob =
        ml::lite::FlatModel::from_frozen(ml::freeze(g, session), "input",
                                         "probs")
            .serialize();

    for (const auto mode :
         {tee::TeeMode::Simulation, tee::TeeMode::Hardware}) {
      const auto off = measure(mode, spec, blob, image, false);
      const auto on = measure(mode, spec, blob, image, true);
      const double overhead_pct =
          (on.per_classification_s / off.per_classification_s - 1.0) * 100.0;
      const std::string label = std::string("secureTF ") + to_string(mode);
      bench::print_row(label + ", shield off", off.per_classification_s, "s");
      bench::print_row(label + ", shield on", on.per_classification_s, "s");
      bench::print_row(label + " overhead", overhead_pct, "%",
                       mode == tee::TeeMode::Simulation ? "(paper: ~0.12%)"
                                                        : "(paper: ~0.9%)");
    }
  }
}

}  // namespace

int main() {
  run();
  return 0;
}
