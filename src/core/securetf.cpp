#include "core/securetf.h"

#include <stdexcept>

namespace stf::core {
namespace {

tee::EnclaveImage service_image() {
  return tee::EnclaveImage{
      .name = "stf-service",
      .content = crypto::to_bytes("stf-service-container-v1"),
      .binary_bytes = kLiteBinaryBytes,
  };
}

}  // namespace

SecureTfContext::SecureTfContext(SecureTfConfig config,
                                 tee::ProvisioningAuthority* authority)
    : config_(std::move(config)),
      authority_(authority),
      rng_(crypto::to_bytes("stf-context-" + config_.node_name + "-" +
                            std::to_string(config_.seed))) {
  if (authority_ != nullptr) {
    platform_ = std::make_unique<tee::Platform>(
        config_.node_name, config_.mode, config_.model, *authority_,
        config_.cores);
  } else {
    platform_ = std::make_unique<tee::Platform>(config_.node_name,
                                                config_.mode, config_.model,
                                                config_.cores);
  }
  self_node_ = net_.add_node(config_.node_name, platform_->base_clock());
}

void SecureTfContext::provision_fs_key(crypto::BytesView key) {
  fs_shield_.emplace(config_.fs_shield, key, host_fs_, platform_->model(),
                     platform_->clock(), rng_);
}

void SecureTfContext::write_file(const std::string& path,
                                 crypto::BytesView data) {
  if (!fs_shield_.has_value()) {
    throw std::logic_error(
        "fs shield key not provisioned (call provision_fs_key or attach_cas)");
  }
  fs_shield_->write(path, data);
}

crypto::Bytes SecureTfContext::read_file(const std::string& path) {
  if (!fs_shield_.has_value()) {
    throw std::logic_error(
        "fs shield key not provisioned (call provision_fs_key or attach_cas)");
  }
  return fs_shield_->read(path);
}

tee::Measurement SecureTfContext::service_measurement() const {
  return service_image().measure();
}

cas::ProvisionOutcome SecureTfContext::attach_cas(
    cas::CasServer& cas, const std::string& session_name) {
  if (authority_ == nullptr) {
    throw std::logic_error("attach_cas requires a provisioning authority");
  }
  auto enclave = platform_->launch_enclave(service_image());
  const auto cas_node =
      net_.add_node("cas@" + session_name, cas.platform().base_clock());
  auto outcome = cas::attest_with_cas(cas, *platform_, *enclave, net_,
                                      self_node_, cas_node, rng_,
                                      session_name);
  if (outcome.ok) {
    const auto it = outcome.secrets.find("fs-key");
    if (it != outcome.secrets.end() && it->second.size() == 32) {
      provision_fs_key(it->second);
    }
  }
  return outcome;
}

void SecureTfContext::save_lite_model(const std::string& path,
                                      const ml::lite::FlatModel& model) {
  write_file(path, model.serialize());
}

ml::lite::FlatModel SecureTfContext::load_lite_model(const std::string& path) {
  return ml::lite::FlatModel::deserialize(read_file(path));
}

std::unique_ptr<InferenceService> SecureTfContext::create_lite_service(
    ml::lite::FlatModel model, InferenceOptions options) {
  return std::make_unique<InferenceService>(*platform_, std::move(model),
                                            std::move(options));
}

std::unique_ptr<InferenceService> SecureTfContext::create_full_tf_service(
    ml::Graph frozen_graph, InferenceOptions options) {
  options.binary_bytes = kFullTfBinaryBytes;
  return std::make_unique<InferenceService>(*platform_,
                                            std::move(frozen_graph),
                                            std::move(options));
}

}  // namespace stf::core
