// Secure inference containers: the classification side of secureTF (§3.3.4,
// §4.2).
//
// An InferenceService is one shielded container: an enclave sized like the
// real deployment artifact (TF-Lite: 1.9 MB binary; full TensorFlow:
// 87.4 MB; Graphene: application + library OS), the lowered model, and the
// interpreter. The same service runs in Native / SIM / HW mode — results are
// bit-identical, only the charged virtual time differs, which is exactly the
// comparison Figures 5-7 draw.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/workloads.h"
#include "ml/lite/flat_model.h"
#include "ml/session.h"
#include "tee/platform.h"

namespace stf::core {

struct InferenceOptions {
  std::string container_name = "classifier";
  std::uint64_t binary_bytes = kLiteBinaryBytes;
  /// SCONE runtime multiplier (Native mode ignores it). Graphene-style
  /// containers use a slightly higher value plus synchronous syscalls.
  double runtime_overhead = 1.05;
  /// Memory intensity of the model's kernels (see workloads.h).
  double bytes_per_flop = 0.25;
  /// Convolution compute of the real architecture not performed by the
  /// dense stand-in; charged per inference through the cost model.
  double extra_gflops_per_inference = 0;
  /// Graphene-style baseline: synchronous (exit-based) system calls and a
  /// costlier page-fault path through the library OS.
  bool sync_syscalls = false;
  /// System calls issued per inference (I/O, futexes, ...); each costs a
  /// transition in sync mode and an async queue hop otherwise.
  std::uint64_t syscalls_per_inference = 180;
  /// Fraction of the binary image whose code/data is hot per inference
  /// (instruction fetch + static tables keep those EPC pages live). The
  /// full-TF path re-touches the whole image instead: its interpreter and
  /// framework dispatch far more code per run.
  double hot_binary_fraction = 0.3;
  /// Full-TF only: framework heap (protobuf graph, grappler, Eigen arenas,
  /// Python interpreter state) and how many times an inference sweeps it.
  /// TF-Lite plans memory statically and has none of this.
  std::uint64_t framework_heap_bytes = 0;
  unsigned heap_passes_per_inference = 2;
  /// Thread pool the real ML kernels execute on (wall time only; virtual
  /// time and results are thread-count independent).
  ml::kernels::KernelContext kernels = ml::kernels::KernelContext::shared();
  /// EPC-aware activation planning for the full-TensorFlow path
  /// (docs/MEMORY_PLANNER.md): liveness-packed arena instead of the legacy
  /// bump cursor. Results are bit-identical either way.
  bool memory_planner = false;
  /// Layer-wise weight streaming: overlap next-layer weight fault-in with
  /// current-layer compute and retire dead weights early. Applies to both
  /// paths (full TF requires `memory_planner` too).
  bool weight_streaming = false;
  /// True int8 execution (docs/QUANTIZATION.md): quantized GEMM/conv on
  /// int8 codes with fused requantization instead of dequantizing weights
  /// to float. Requires a calibrated int8 FlatModel
  /// (FlatModel::quantized(calibration)); Lite path only — the full-TF
  /// constructor throws std::invalid_argument, before it launches, when set.
  bool int8_compute = false;
  /// Slalom GPU offload (docs/GPU_OFFLOAD.md): linear layers run on the
  /// simulated untrusted GPU (charged under profile.gpu / profile.pcie)
  /// with batched in-enclave verification per `slalom`. Works on both
  /// paths; mutually exclusive with int8_compute (float-only). A failed
  /// verification falls the request back to in-enclave execution, and
  /// after `slalom.distrust_after` failures the service distrusts the GPU
  /// and stops offloading (gpu_distrusted()). Outputs are bit-identical
  /// with offload on, off, or fallen back.
  bool gpu_offload = false;
  ml::SlalomConfig slalom;
};

class InferenceService {
 public:
  /// Lite-path service (the production configuration).
  InferenceService(tee::Platform& platform, ml::lite::FlatModel model,
                   InferenceOptions options);
  /// Full-TensorFlow path (used by the §5.3 #4 comparison): executes the
  /// frozen graph with the Session executor.
  InferenceService(tee::Platform& platform, ml::Graph frozen_graph,
                   InferenceOptions options);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Classifies one input; returns class probabilities.
  ml::Tensor classify(const ml::Tensor& input);

  /// Classifies a batch of same-shaped inputs in ONE container invocation:
  /// per-inference framework overheads (binary touch, syscalls, extra
  /// convolution flops) and per-layer weight paging are charged once for
  /// the whole batch, which is where cross-request batching wins its
  /// throughput (docs/SERVING.md). Outputs are bit-identical to calling
  /// classify() per input, and a batch of one is exactly classify(). More
  /// than one input is Lite path only; the full-TensorFlow session path
  /// throws std::logic_error.
  std::vector<ml::Tensor> classify_batch(
      const std::vector<const ml::Tensor*>& inputs);

  /// The charge step of classify_batch (docs/SERVING.md): every check
  /// first, so a batch it cannot run throws before anything is charged,
  /// then every virtual-time charge of the call in classify_batch's order —
  /// which last_latency_ms() and the request metrics then reflect. Returns
  /// the math step, which computes the outputs and charges nothing. The
  /// full-TF path, and a Lite batch while its linear layers go to the GPU
  /// (math_runs_inline()), run their math here; their step holds the
  /// outputs.
  ml::lite::MathStep charge_batch(const std::vector<const ml::Tensor*>& inputs);

  /// True while charge_batch runs the math itself (see above).
  [[nodiscard]] bool math_runs_inline() const;

  /// Argmax convenience.
  std::int64_t classify_label(const ml::Tensor& input);

  /// Virtual-time latency of the most recent classify() call.
  [[nodiscard]] double last_latency_ms() const { return last_latency_ms_; }

  /// The container's enclave; null in Native mode.
  [[nodiscard]] const tee::Enclave* enclave() const { return enclave_.get(); }
  [[nodiscard]] tee::Enclave* enclave() { return enclave_.get(); }
  [[nodiscard]] tee::Platform& platform() { return platform_; }

  // --- GPU offload state (docs/GPU_OFFLOAD.md) --------------------------
  /// Verification failures seen so far, as the offload engine counts them;
  /// each one re-executed its request batch in-enclave.
  [[nodiscard]] std::uint64_t gpu_fallbacks() const;
  /// True once failures reached slalom.distrust_after (and at least one):
  /// offload is off for good and everything runs in-enclave.
  [[nodiscard]] bool gpu_distrusted() const;
  /// Fault-injection hook forwarded to the offload engine (chaos plumbing);
  /// null clears. No-op when gpu_offload is off.
  void set_gpu_corruption(ml::GpuOffloadEngine::CorruptionHook hook);
  /// Offload counters, or nullptr when gpu_offload is off.
  [[nodiscard]] const ml::SlalomStats* slalom_stats() const;

 private:
  /// Launches the environment (Native, or an enclave sized by the options)
  /// and builds the executor of whichever path the constructor chose.
  void launch();
  void charge_per_inference_overheads();
  /// The active executor's offload engine, or nullptr without gpu_offload.
  [[nodiscard]] ml::GpuOffloadEngine* gpu_engine() const;

  tee::Platform& platform_;
  InferenceOptions options_;
  // Declared before the executors, which release regions into it.
  std::unique_ptr<tee::Enclave> enclave_;
  std::unique_ptr<tee::NativeEnv> native_env_;
  // Exactly one of the two execution paths is active.
  std::optional<ml::lite::FlatModel> model_;
  std::unique_ptr<ml::lite::LiteInterpreter> interpreter_;
  std::optional<ml::Graph> graph_;
  std::unique_ptr<ml::Session> session_;
  tee::RegionId heap_region_ = 0;
  double last_latency_ms_ = 0;
};

}  // namespace stf::core
