// stf-Lite: the TensorFlow-Lite analogue (§2.1, §3.3.4).
//
// A FlatModel is a frozen graph lowered to a linear op program over a single
// contiguous weight arena — forward passes only, by design (training needs
// the full framework; the Lite converter rejects variables and training
// ops). The interpreter runs with a small, fixed memory footprint: weights
// once, plus ping-pong activation buffers — which is exactly why the paper's
// TF-Lite container stays inside the EPC where full TensorFlow thrashes
// (the 71x result of §5.3 #4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "ml/graph.h"
#include "ml/kernels.h"
#include "ml/memory_planner.h"
#include "ml/slalom.h"
#include "ml/tensor.h"
#include "tee/memory_env.h"

namespace stf::ml::lite {

struct LiteTensorDesc {
  Shape shape;
  /// Offset (in elements) into the weight arena, or -1 for an activation.
  std::int64_t weight_offset = -1;
  /// Dequantization scale for int8 models (w = q * scale, symmetric).
  float quant_scale = 0;
  /// Calibrated activation range (docs/QUANTIZATION.md), recorded by
  /// FlatModel::quantized(calibration) and serialized in format version 3.
  /// Meaningful only on calibrated models; the int8 execution path
  /// requantizes this tensor's values into act_scale().
  float act_min = 0;
  float act_max = 0;

  [[nodiscard]] bool is_weight() const { return weight_offset >= 0; }

  /// Symmetric zero-point-free activation scale: max(|act_min|, |act_max|)
  /// mapped onto the int8 code 127 (1.0 for never-observed / all-zero
  /// tensors, so quantization degenerates to rounding).
  [[nodiscard]] float act_scale() const {
    const float lo = act_min < 0 ? -act_min : act_min;
    const float hi = act_max < 0 ? -act_max : act_max;
    const float m = lo > hi ? lo : hi;
    return m > 0 ? m / 127.0f : 1.0f;
  }
};

struct LiteOp {
  OpType type = OpType::Relu;
  NodeAttrs attrs;
  std::vector<std::int32_t> inputs;  ///< tensor indices
  std::int32_t output = -1;          ///< tensor index
};

class FlatModel {
 public:
  /// Lowers a frozen graph (no Variables) into a flat model computing
  /// `output_name` from placeholder `input_name`. Throws on graphs that are
  /// not inference-only.
  static FlatModel from_frozen(const Graph& graph,
                               const std::string& input_name = "input",
                               const std::string& output_name = "probs");

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Parses a model file from outside the enclave. Throws
  /// std::runtime_error for malformed bytes, for a malformed program, and
  /// for what no input could run: a Reshape target with a 0 or < -1 dim or
  /// two -1s, a window or stride below 1, a MatMul weight not of rank 2, a
  /// Conv2D filter not of rank 4, a weight operand with no elements.
  static FlatModel deserialize(crypto::BytesView data);

  /// Post-training int8 weight quantization (§7.2): per-tensor symmetric
  /// affine, q = round(w / scale) with scale = max|w| / 127. Shrinks the
  /// weight arena 4x — which can move a model from "thrashes the EPC" to
  /// "fits the EPC" (bench_ablation_quantization measures it). Results
  /// change within quantization error; the converter records per-tensor
  /// scales. Without calibrated activation ranges the interpreter falls
  /// back to dequantizing each weight tensor to float before compute; the
  /// calibrating overload below enables the true int8 execution path
  /// (docs/QUANTIZATION.md).
  [[nodiscard]] FlatModel quantized() const;

  /// Weight quantization plus activation-range calibration: runs the float
  /// interpreter over the `calibration` samples, records per-tensor min/max
  /// activation ranges, and returns an int8 model the interpreter can
  /// execute natively (LiteInterpreter with int8_compute). Serializing a
  /// calibrated model bumps the format header to version 3; uncalibrated
  /// models keep writing byte-identical version-2 files. Must be called on
  /// the float model; throws std::invalid_argument on an empty sample set.
  [[nodiscard]] FlatModel quantized(
      const std::vector<Tensor>& calibration) const;

  [[nodiscard]] bool is_quantized() const { return quantized_; }
  [[nodiscard]] bool is_calibrated() const { return calibrated_; }

  [[nodiscard]] const std::vector<LiteOp>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<LiteTensorDesc>& tensors() const {
    return tensors_;
  }
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<std::int8_t>& qweights() const {
    return qweights_;
  }
  [[nodiscard]] std::int32_t input_tensor() const { return input_; }
  [[nodiscard]] std::int32_t output_tensor() const { return output_; }

  /// Total weight bytes — the dominant part of the model file size
  /// (4 bytes/element float, 1 byte/element quantized).
  [[nodiscard]] std::uint64_t weight_bytes() const {
    return quantized_ ? qweights_.size() : weights_.size() * sizeof(float);
  }

 private:
  std::vector<LiteTensorDesc> tensors_;
  std::vector<LiteOp> ops_;
  std::vector<float> weights_;
  std::vector<std::int8_t> qweights_;
  bool quantized_ = false;
  bool calibrated_ = false;
  std::int32_t input_ = -1;
  std::int32_t output_ = -1;
};

/// Forward-only interpreter with a bounded activation footprint.
class LiteInterpreter {
 public:
  /// `env` may be nullptr (no cost accounting). The interpreter keeps a
  /// reference to `model`, which must outlive it (passing a temporary is
  /// rejected below). `kernel_ctx` picks the thread pool the kernels run
  /// on — wall time only; outputs stay bit-identical to the Session's at
  /// any thread count. With `weight_streaming` the interpreter prefetches
  /// op k+1's weight window while op k computes and advise-evicts windows
  /// past their last use (docs/MEMORY_PLANNER.md) — cost model only, math
  /// unchanged. With `int8_compute` the forward pass runs the quantized
  /// GEMM/conv kernels on int8 codes with fused requantization
  /// (docs/QUANTIZATION.md); requires a calibrated int8 model
  /// (FlatModel::quantized(calibration)) and throws std::invalid_argument
  /// otherwise. With `gpu_offload` the linear layers (MatMul/Conv2D) run on
  /// the simulated untrusted GPU and are verified in-enclave per `slalom`
  /// (docs/GPU_OFFLOAD.md); outputs stay bit-identical to the offload-off
  /// path, and a lying GPU raises VerificationError from invoke. Mutually
  /// exclusive with int8_compute (the GPU path is float-only). Every
  /// domain runs in one forward loop, after one shape pass: an input or
  /// program some op cannot run throws std::invalid_argument from invoke
  /// before anything is charged.
  explicit LiteInterpreter(const FlatModel& model,
                           tee::MemoryEnv* env = nullptr,
                           kernels::KernelContext kernel_ctx =
                               kernels::KernelContext::shared(),
                           bool weight_streaming = false,
                           bool int8_compute = false,
                           bool gpu_offload = false,
                           SlalomConfig slalom = {});
  LiteInterpreter(FlatModel&&, tee::MemoryEnv* = nullptr) = delete;
  ~LiteInterpreter();

  LiteInterpreter(const LiteInterpreter&) = delete;
  LiteInterpreter& operator=(const LiteInterpreter&) = delete;

  /// Runs one forward pass.
  Tensor invoke(const Tensor& input);

  /// Runs one forward pass over a whole batch of same-shaped inputs
  /// (leading dimension 1 each), executing ONE batched GEMM/conv per layer
  /// so per-layer weight paging — streaming prefetch, demand faults,
  /// advise-evicts — is paid once per batch instead of once per request.
  /// Row b of every intermediate equals the single-request computation for
  /// inputs[b] bit-for-bit (the blocked kernels fix the reduction order per
  /// output row independent of the batch size), so the returned per-request
  /// outputs are identical to calling invoke() n times. Throws
  /// std::invalid_argument on shape-mismatched inputs.
  std::vector<Tensor> invoke_batch(const std::vector<const Tensor*>& inputs);

  /// Runs one float forward pass, handing the input and every produced
  /// activation to `observer(tensor_index, value)` — the hook min/max
  /// calibration is built on. Math identical to invoke().
  Tensor invoke_observed(
      const Tensor& input,
      const std::function<void(std::int32_t, const Tensor&)>& observer);

  /// Peak activation bytes the interpreter keeps live (two buffers).
  [[nodiscard]] std::uint64_t activation_bytes() const {
    return activation_bytes_;
  }
  [[nodiscard]] double last_invoke_flops() const { return last_flops_; }
  /// int8 integer ops (MACs + requantized elements) of the most recent
  /// int8_compute invoke; 0 on the float path.
  [[nodiscard]] double last_invoke_int8_ops() const { return last_int8_ops_; }

  /// Runtime switch for the offload path (the serving fallback flips it off
  /// once the GPU is distrusted). No-op unless constructed with gpu_offload.
  void set_gpu_offload_enabled(bool on) { gpu_offload_active_ = on; }
  [[nodiscard]] bool gpu_offload_enabled() const {
    return gpu_offload_active_ && gpu_engine_ != nullptr;
  }
  /// Fault-injection hook forwarded to the offload engine; null clears.
  void set_gpu_corruption(GpuOffloadEngine::CorruptionHook hook) {
    if (gpu_engine_ != nullptr) gpu_engine_->set_corruption(std::move(hook));
  }
  /// Offload counters, or nullptr when constructed without gpu_offload.
  [[nodiscard]] const SlalomStats* slalom_stats() const {
    return gpu_engine_ != nullptr ? &gpu_engine_->stats() : nullptr;
  }
  /// The offload backend itself (fallback bookkeeping); nullptr when
  /// constructed without gpu_offload.
  [[nodiscard]] GpuOffloadEngine* gpu_engine() { return gpu_engine_.get(); }

 private:
  /// The forward pass, for every domain: float ops, int8 codes under
  /// int8_compute (docs/QUANTIZATION.md), GPU offload of MatMul/Conv2D.
  /// `batch` is the leading batch dimension of `input` (1 for single
  /// requests); it scales fully specified Reshape targets.
  Tensor forward(const Tensor& input, std::int64_t batch);

  const FlatModel& model_;
  tee::MemoryEnv* env_;
  kernels::KernelContext kernel_ctx_;
  bool int8_compute_ = false;
  std::uint64_t weights_region_ = 0;
  std::uint64_t activation_region_ = 0;
  std::uint64_t activation_bytes_ = 0;
  /// The weight-streaming schedule; set iff streaming with an env.
  std::optional<WeightStreaming> streaming_;
  double last_flops_ = 0;
  double last_int8_ops_ = 0;
  /// Offload backend; non-null iff constructed with gpu_offload.
  std::unique_ptr<GpuOffloadEngine> gpu_engine_;
  bool gpu_offload_active_ = false;
  /// Non-null only inside invoke_observed(): the calibration hook.
  const std::function<void(std::int32_t, const Tensor&)>* observer_ = nullptr;
};

}  // namespace stf::ml::lite
