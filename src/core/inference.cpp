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
  launch();
}

InferenceService::InferenceService(tee::Platform& platform,
                                   ml::Graph frozen_graph,
                                   InferenceOptions options)
    : platform_(platform), options_(std::move(options)),
      graph_(std::move(frozen_graph)) {
  if (options_.int8_compute) {
    throw std::invalid_argument(
        "InferenceService: int8_compute is Lite-path only");
  }
  launch();
}

InferenceService::~InferenceService() {
  // The executors release their own regions when they are destroyed next.
  if (heap_region_ != 0) enclave_->release(heap_region_);
}

void InferenceService::launch() {
  tee::MemoryEnv* env = nullptr;
  if (platform_.mode() == tee::TeeMode::Native) {
    native_env_ = std::make_unique<tee::NativeEnv>(platform_.model(),
                                                   platform_.base_clock());
    env = native_env_.get();
  } else {
    enclave_ = platform_.launch_enclave(image_for(options_));
    enclave_->set_runtime_overhead(options_.runtime_overhead);
    enclave_->set_compute_bytes_per_flop(options_.bytes_per_flop);
    if (graph_ && options_.framework_heap_bytes > 0) {
      heap_region_ =
          enclave_->alloc("framework-heap", options_.framework_heap_bytes);
    }
    env = enclave_.get();
  }
  if (graph_) {
    session_ = std::make_unique<ml::Session>(
        *graph_, env, options_.kernels,
        ml::SessionOptions{.use_memory_planner = options_.memory_planner,
                           .weight_streaming = options_.weight_streaming,
                           .gpu_offload = options_.gpu_offload,
                           .slalom = options_.slalom});
  } else {
    interpreter_ = std::make_unique<ml::lite::LiteInterpreter>(
        *model_, env, options_.kernels, options_.weight_streaming,
        options_.int8_compute, options_.gpu_offload, options_.slalom);
  }
}

ml::GpuOffloadEngine* InferenceService::gpu_engine() const {
  return interpreter_ ? interpreter_->gpu_engine() : session_->gpu_engine();
}

std::uint64_t InferenceService::gpu_fallbacks() const {
  const ml::GpuOffloadEngine* engine = gpu_engine();
  return engine != nullptr ? engine->stats().fallbacks : 0;
}

bool InferenceService::gpu_distrusted() const {
  // Strike threshold reached: the GPU (or whatever sits on the PCIe path to
  // it) is lying too often to be worth re-verifying.
  const std::uint64_t fallbacks = gpu_fallbacks();
  return fallbacks > 0 && fallbacks >= options_.slalom.distrust_after;
}

void InferenceService::set_gpu_corruption(
    ml::GpuOffloadEngine::CorruptionHook hook) {
  if (ml::GpuOffloadEngine* engine = gpu_engine()) {
    engine->set_corruption(std::move(hook));
  }
}

const ml::SlalomStats* InferenceService::slalom_stats() const {
  const ml::GpuOffloadEngine* engine = gpu_engine();
  return engine != nullptr ? &engine->stats() : nullptr;
}

void InferenceService::charge_per_inference_overheads() {
  // Framework compute equivalent of the real architecture's convolutions.
  const double extra_flops = options_.extra_gflops_per_inference * 1e9;
  if (enclave_) {
    // Framework code executes every inference: its hot pages compete with
    // the model for EPC residency. Full TF dispatches far more code per run
    // (op dispatch, allocator, protobuf), so the whole image stays hot.
    enclave_->touch_binary(session_ ? 1.0 : options_.hot_binary_fraction);
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
  return std::move(classify_batch({&input}).front());
}

std::vector<ml::Tensor> InferenceService::classify_batch(
    const std::vector<const ml::Tensor*>& inputs) {
  return charge_batch(inputs).run();
}

bool InferenceService::math_runs_inline() const {
  return session_ != nullptr || interpreter_->offloading();
}

ml::lite::MathStep InferenceService::charge_batch(
    const std::vector<const ml::Tensor*>& inputs) {
  if (inputs.empty()) return {};
  const bool single = inputs.size() == 1;
  if (!single && !interpreter_) {
    throw std::logic_error(
        "classify_batch: only the Lite path supports batched invocation");
  }
  std::optional<ml::lite::ChargePlan> plan;
  if (interpreter_) plan = interpreter_->plan(inputs);
  tee::SimStopwatch watch(platform_.clock());
  ml::lite::MathStep math;
  {
    // The profile observes the same clock over the same interval as the
    // span, so its category decomposition sums exactly to the span's
    // duration (the conservation invariant).
    obs::ScopedAttribution profile(platform_.clock(),
                                   single ? obs::names::kSpanInferenceRequest
                                          : obs::names::kSpanInferenceBatch);
    obs::ScopedSpan span(
        obs::SpanTracer::global(), platform_.clock(),
        single ? obs::span_id<obs::names::kSpanInferenceRequest>()
               : obs::span_id<obs::names::kSpanInferenceBatch>());
    // One container invocation for the whole call: framework overheads
    // (binary touch, syscalls, extra flops) are paid once, and the batched
    // interpreter pays per-layer weight paging once — the amortization that
    // makes batching beat per-request dispatch at saturation.
    charge_per_inference_overheads();
    const auto execute = [&]() -> ml::lite::MathStep {
      if (interpreter_) return interpreter_->charge(*plan, inputs);
      std::vector<ml::Tensor> out;
      out.push_back(session_->run1("probs", {{"input", *inputs.front()}}));
      return ml::lite::MathStep(std::move(out));
    };
    try {
      math = execute();
    } catch (const ml::VerificationError&) {
      // The GPU returned a wrong result: discard it, count the strike (one
      // for a whole batch, whose stacked result failed its batched check),
      // and recompute the call entirely in-enclave — the requests still
      // terminate, they just lose the offload speedup.
      ml::GpuOffloadEngine* engine = gpu_engine();
      engine->note_fallback();
      engine->set_active(false);
      math = execute();
      engine->set_active(!gpu_distrusted());
    }
  }
  last_latency_ms_ = watch.elapsed_ms();
  if (single) {
    obs::counter<obs::names::kInferenceRequests>().add();
    obs::histogram<obs::names::kInferenceRequestNs>().observe(
        watch.elapsed_ns());
    obs::quantiles<obs::names::kInferenceRequestQuantileNs>().observe(
        watch.elapsed_ns());
  } else {
    obs::counter<obs::names::kInferenceBatches>().add();
    obs::counter<obs::names::kInferenceRequests>().add(inputs.size());
  }
  return math;
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
