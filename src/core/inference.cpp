#include "core/inference.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace stf::core {
namespace {

tee::EnclaveImage image_for(const InferenceOptions& options) {
  return tee::EnclaveImage{
      .name = options.container_name,
      .content = crypto::to_bytes("stf-classifier:" + options.container_name),
      .binary_bytes = options.binary_bytes,
  };
}

}  // namespace

InferenceService::InferenceService(tee::Platform& platform,
                                   ml::lite::FlatModel model,
                                   InferenceOptions options)
    : platform_(platform), options_(std::move(options)),
      model_(std::move(model)) {
  tee::MemoryEnv* env = nullptr;
  if (platform_.mode() == tee::TeeMode::Native) {
    native_env_ = std::make_unique<tee::NativeEnv>(platform_.model(),
                                                   platform_.base_clock());
    env = native_env_.get();
  } else {
    enclave_ = platform_.launch_enclave(image_for(options_));
    enclave_->set_runtime_overhead(options_.runtime_overhead);
    enclave_->set_compute_bytes_per_flop(options_.bytes_per_flop);
    enclave_env_ = std::make_unique<tee::EnclaveEnv>(*enclave_);
    env = enclave_env_.get();
  }
  interpreter_ = std::make_unique<ml::lite::LiteInterpreter>(
      *model_, env, options_.kernels, options_.weight_streaming,
      options_.int8_compute, options_.gpu_offload, options_.slalom);
}

InferenceService::InferenceService(tee::Platform& platform,
                                   ml::Graph frozen_graph,
                                   InferenceOptions options)
    : platform_(platform), options_(std::move(options)),
      graph_(std::move(frozen_graph)) {
  options_.full_tensorflow = true;
  if (options_.int8_compute) {
    throw std::invalid_argument(
        "InferenceService: int8_compute is Lite-path only");
  }
  tee::MemoryEnv* env = nullptr;
  if (platform_.mode() == tee::TeeMode::Native) {
    native_env_ = std::make_unique<tee::NativeEnv>(platform_.model(),
                                                   platform_.base_clock());
    env = native_env_.get();
  } else {
    enclave_ = platform_.launch_enclave(image_for(options_));
    enclave_->set_runtime_overhead(options_.runtime_overhead);
    enclave_->set_compute_bytes_per_flop(options_.bytes_per_flop);
    enclave_env_ = std::make_unique<tee::EnclaveEnv>(*enclave_);
    env = enclave_env_.get();
    if (options_.framework_heap_bytes > 0) {
      heap_region_ = enclave_->alloc_region("framework-heap",
                                            options_.framework_heap_bytes);
    }
  }
  session_ = std::make_unique<ml::Session>(
      *graph_, env, options_.kernels,
      ml::SessionOptions{.use_memory_planner = options_.memory_planner,
                         .weight_streaming = options_.weight_streaming,
                         .gpu_offload = options_.gpu_offload,
                         .slalom = options_.slalom});
}

InferenceService::~InferenceService() = default;

void InferenceService::set_gpu_corruption(
    ml::GpuOffloadEngine::CorruptionHook hook) {
  if (interpreter_) {
    interpreter_->set_gpu_corruption(std::move(hook));
  } else if (session_) {
    session_->set_gpu_corruption(std::move(hook));
  }
}

const ml::SlalomStats* InferenceService::slalom_stats() const {
  if (interpreter_) return interpreter_->slalom_stats();
  if (session_) return session_->slalom_stats();
  return nullptr;
}

void InferenceService::set_offload_active(bool on) {
  if (interpreter_) interpreter_->set_gpu_offload_enabled(on);
  if (session_) session_->set_gpu_offload_enabled(on);
}

void InferenceService::note_gpu_failure() {
  ++gpu_fallbacks_;
  ml::GpuOffloadEngine* engine =
      interpreter_ ? interpreter_->gpu_engine()
                   : (session_ ? session_->gpu_engine() : nullptr);
  if (engine != nullptr) engine->note_fallback();
  if (!gpu_distrusted_ && gpu_fallbacks_ >= options_.slalom.distrust_after) {
    // Strike threshold reached: the GPU (or whatever sits on the PCIe path
    // to it) is lying too often to be worth re-verifying. Serve in-enclave
    // for the rest of this service's life.
    gpu_distrusted_ = true;
  }
}

void InferenceService::charge_per_inference_overheads() {
  // Framework compute equivalent of the real architecture's convolutions.
  const double extra_flops = options_.extra_gflops_per_inference * 1e9;
  if (enclave_) {
    // Framework code executes every inference: its hot pages compete with
    // the model for EPC residency. Full TF dispatches far more code per run
    // (op dispatch, allocator, protobuf), so the whole image stays hot.
    enclave_->touch_binary(options_.full_tensorflow
                               ? 1.0
                               : options_.hot_binary_fraction);
    if (heap_region_ != 0) {
      for (unsigned pass = 0; pass < options_.heap_passes_per_inference;
           ++pass) {
        enclave_->access(heap_region_, 0, options_.framework_heap_bytes,
                         true);
      }
    }
    if (extra_flops > 0) enclave_->compute(extra_flops);
    for (std::uint64_t i = 0; i < options_.syscalls_per_inference; ++i) {
      enclave_->syscall(256, /*asynchronous=*/!options_.sync_syscalls);
    }
  } else if (native_env_ != nullptr && extra_flops > 0) {
    native_env_->compute(extra_flops);
  }
}

ml::Tensor InferenceService::classify(const ml::Tensor& input) {
  tee::SimStopwatch watch(platform_.clock());
  ml::Tensor probs;
  {
    // The profile observes the same clock over the same interval as the
    // span, so its category decomposition sums exactly to the span's
    // duration (the conservation invariant).
    obs::ScopedAttribution profile(platform_.clock(),
                                   obs::names::kSpanInferenceRequest);
    obs::ScopedSpan span(obs::SpanTracer::global(), platform_.clock(),
                         obs::span_id<obs::names::kSpanInferenceRequest>());
    charge_per_inference_overheads();
    auto execute = [&]() {
      return interpreter_ ? interpreter_->invoke(input)
                          : session_->run1("probs", {{"input", input}});
    };
    try {
      probs = execute();
    } catch (const ml::VerificationError&) {
      // The GPU returned a wrong result: discard it, count the strike, and
      // recompute this request entirely in-enclave — the request still
      // terminates, it just loses the offload speedup.
      note_gpu_failure();
      set_offload_active(false);
      probs = execute();
      set_offload_active(!gpu_distrusted_);
    }
  }
  last_latency_ms_ = watch.elapsed_ms();
  obs::counter<obs::names::kInferenceRequests>().add();
  obs::histogram<obs::names::kInferenceRequestNs>().observe(
      watch.elapsed_ns());
  obs::quantiles<obs::names::kInferenceRequestQuantileNs>().observe(
      watch.elapsed_ns());
  return probs;
}

std::vector<ml::Tensor> InferenceService::classify_batch(
    const std::vector<const ml::Tensor*>& inputs) {
  if (inputs.empty()) return {};
  if (inputs.size() == 1) {
    std::vector<ml::Tensor> out;
    out.push_back(classify(*inputs.front()));
    return out;
  }
  if (!interpreter_) {
    throw std::logic_error(
        "classify_batch: only the Lite path supports batched invocation");
  }
  tee::SimStopwatch watch(platform_.clock());
  std::vector<ml::Tensor> probs;
  {
    obs::ScopedAttribution profile(platform_.clock(),
                                   obs::names::kSpanInferenceBatch);
    obs::ScopedSpan span(obs::SpanTracer::global(), platform_.clock(),
                         obs::span_id<obs::names::kSpanInferenceBatch>());
    // One container invocation for the whole batch: framework overheads
    // (binary touch, syscalls, extra flops) are paid once, and the batched
    // interpreter pays per-layer weight paging once — the amortization that
    // makes batching beat per-request dispatch at saturation.
    charge_per_inference_overheads();
    try {
      probs = interpreter_->invoke_batch(inputs);
    } catch (const ml::VerificationError&) {
      // One strike for the whole batch: the stacked result failed its
      // batched verification, so the entire batch re-executes in-enclave.
      note_gpu_failure();
      set_offload_active(false);
      probs = interpreter_->invoke_batch(inputs);
      set_offload_active(!gpu_distrusted_);
    }
  }
  last_latency_ms_ = watch.elapsed_ms();
  obs::counter<obs::names::kInferenceBatches>().add();
  obs::counter<obs::names::kInferenceRequests>().add(inputs.size());
  return probs;
}

std::int64_t InferenceService::classify_label(const ml::Tensor& input) {
  const ml::Tensor probs = classify(input);
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < probs.size(); ++j) {
    if (probs.at(j) > probs.at(best)) best = j;
  }
  return best;
}

}  // namespace stf::core
