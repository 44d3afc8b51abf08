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

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/bytes.h"
#include "ml/graph.h"
#include "ml/kernels.h"
#include "ml/memory_planner.h"
#include "ml/slalom.h"
#include "ml/tensor.h"
#include "tee/memory_env.h"

namespace stf::ml::lite {

/// The float weight arena's allocator: a resize leaves the new floats
/// unwritten (default-initialized), so a load path sizes the arena and
/// then writes each weight once, in its layout, with no zero-fill first.
/// Everything else is std::allocator's.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
using FloatArena = std::vector<float, DefaultInitAllocator<float>>;

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
  /// A float weight some MatMul reads as operand B: its arena span holds it
  /// in the GEMM's panel order (ml/kernels.h), so every served batch
  /// streams it. Derived from the ops, never serialized: files hold every
  /// weight row-major.
  bool panels = false;

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

  /// The model file: every weight row-major, whatever its arena layout.
  [[nodiscard]] crypto::Bytes serialize() const;
  /// Parses a model file from outside the enclave. Throws
  /// std::runtime_error for malformed bytes, for a malformed program, and
  /// for what no input could run: a Reshape target with a 0 or < -1 dim or
  /// two -1s, a window or stride below 1, a MatMul weight not of rank 2, a
  /// Conv2D filter not of rank 4, a weight operand with no elements, two
  /// weights that share arena bytes.
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
  /// The float weight arena: panel order inside the span of each weight
  /// marked `panels`, row-major everywhere else.
  [[nodiscard]] const FloatArena& weights() const { return weights_; }
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
  FloatArena weights_;
  std::vector<std::int8_t> qweights_;
  bool quantized_ = false;
  bool calibrated_ = false;
  std::int32_t input_ = -1;
  std::int32_t output_ = -1;
};

/// The calibration hook: sees the input and every float activation, by
/// tensor index.
using Observer = std::function<void(std::int32_t, const Tensor&)>;

/// One forward pass as the charge step sees it (docs/SERVING.md): every
/// tensor's shape and, per op, its domain, the bytes it reads and writes
/// and the work it charges, all from shapes. Which values cross between
/// floats and int8 codes, and where, follows from op types — under
/// int8_compute a MatMul or Conv2D with a weight operand, an Add, a Relu, a
/// MaxPool2D and a Reshape run on codes, every other op on floats, and a
/// value crosses on its first use in the other domain — never from values.
struct ChargePlan {
  struct Op {
    bool on_codes = false;
    /// Each activation operand's bytes as stored when the op reads it (1
    /// per element as int8 codes); weights are read in the arena. The shape
    /// rule admits no op with more than two operands.
    std::array<std::uint64_t, 2> read_bytes{};
    std::uint64_t write_bytes = 0;
    double flops = 0;  ///< float work (ml::op_flops); 0 on codes
    /// Quantized weights dequantized to floats here: counted in
    /// last_invoke_flops(), never charged.
    double weight_flops = 0;
    double int8_ops = 0;  ///< 2 * MACs + requantized elements + crossings
  };
  std::vector<Shape> shapes;
  std::vector<Op> ops;
  bool int8 = false;               ///< the input is quantized (int8_compute)
  double input_int8_ops = 0;       ///< quantizing the input
  double output_int8_ops = 0;      ///< dequantizing codes at the output
  double output_weight_flops = 0;  ///< a weight as the model output
  double macs = 0;      ///< int8 MACs, for ml.quant.int8_macs
  double requants = 0;  ///< for ml.quant.requantized_elements
};

/// The math step of one charged forward pass (LiteInterpreter::charge): it
/// stacks the inputs, computes every op's values and splits the output. It
/// touches values and kernels only — no env call, no virtual clock, no
/// span — so it may run on any thread while later passes are charged on
/// the same interpreter. The model, the inputs and the kernel pool must
/// outlive it.
class MathStep {
 public:
  MathStep() = default;
  /// A step whose outputs already exist: math that ran inline.
  explicit MathStep(std::vector<Tensor> outputs)
      : outputs_(std::move(outputs)) {}

  /// Runs the math, once, and returns one output per input.
  std::vector<Tensor> run();
  /// True until the math has run.
  [[nodiscard]] bool pending() const { return model_ != nullptr; }
  /// The outputs run() returns.
  [[nodiscard]] std::size_t size() const {
    return pending() ? inputs_.size() : outputs_.size();
  }

  /// Joins `next` onto this step, so that one pass computes both (a
  /// grouped pass, docs/SERVING.md): the inputs stacked in order, every
  /// activation shaped by the shape rule at the joint row count, every op
  /// in its plan's domain, and run() returning this step's outputs, then
  /// next's, each with the bits of its own pass. Steps join when both are
  /// pending over one model and domain, every input is [1, ...] of one
  /// shape, and the model runs at the joint row count; otherwise append
  /// returns false and leaves both steps as they were.
  bool append(MathStep& next);

 private:
  friend class LiteInterpreter;
  MathStep(const FlatModel& model, kernels::KernelContext ctx,
           ChargePlan plan, std::vector<const Tensor*> inputs,
           const Observer* observer)
      : model_(&model), ctx_(ctx), plan_(std::move(plan)),
        inputs_(std::move(inputs)), observer_(observer) {}

  const FlatModel* model_ = nullptr;
  kernels::KernelContext ctx_;
  ChargePlan plan_;
  std::vector<const Tensor*> inputs_;
  const Observer* observer_ = nullptr;
  std::vector<Tensor> outputs_;
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
  /// invoke is a charge step and then a math step over one plan: an input
  /// or program some op cannot run throws std::invalid_argument from the
  /// plan, before anything is charged.
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
  Tensor invoke_observed(const Tensor& input, const Observer& observer);

  /// Every check of invoke_batch(inputs) (of invoke() for one input) and
  /// the plan of its pass; no env call. Throws std::invalid_argument for
  /// inputs of different shapes, inputs without a leading batch dimension
  /// of 1 (batches only), and anything the shape rule rejects.
  [[nodiscard]] ChargePlan plan(
      const std::vector<const Tensor*>& inputs) const;

  /// The charge step of `plan`, made for `inputs`: every env call of the
  /// pass — streaming windows, weight and activation reads, activation
  /// growth, the output write, compute and int8 compute, the ml.lite.op
  /// spans — plus last_invoke_flops(), last_invoke_int8_ops() and the
  /// ml.quant.* counters. Returns the math step. With an active GPU offload
  /// engine the math runs here instead, each op between its reads and its
  /// charges (the engine bills the GPU and reads the clock inside the
  /// math), and the returned step holds the outputs.
  MathStep charge(const ChargePlan& plan,
                  const std::vector<const Tensor*>& inputs);

  /// Peak activation bytes the interpreter keeps live (two buffers).
  [[nodiscard]] std::uint64_t activation_bytes() const {
    return activation_bytes_;
  }
  [[nodiscard]] double last_invoke_flops() const { return last_flops_; }
  /// int8 integer ops (MACs + requantized elements) of the most recent
  /// int8_compute invoke; 0 on the float path.
  [[nodiscard]] double last_invoke_int8_ops() const { return last_int8_ops_; }

  /// Offload counters, or nullptr when constructed without gpu_offload.
  [[nodiscard]] const SlalomStats* slalom_stats() const {
    return gpu_engine_ != nullptr ? &gpu_engine_->stats() : nullptr;
  }
  /// The offload backend itself (fallback bookkeeping, its on/off switch
  /// and fault-injection hook); nullptr when constructed without
  /// gpu_offload.
  [[nodiscard]] GpuOffloadEngine* gpu_engine() { return gpu_engine_.get(); }
  /// True while the linear layers go to the GPU, so charge() runs the math.
  [[nodiscard]] bool offloading() const {
    return gpu_engine_ != nullptr && gpu_engine_->active();
  }

 private:
  /// The charge loop. Per op: its span start, streaming window and reads;
  /// then `math(j)`, when given, which runs op j's math and returns the
  /// flops to charge (the op-interleaved offload path); then its
  /// activation growth, output write, compute and span.
  void charge_ops(const ChargePlan& plan,
                  const std::function<double(std::size_t)>& math);

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
  /// Non-null only inside invoke_observed(): the calibration hook.
  const Observer* observer_ = nullptr;
};

}  // namespace stf::ml::lite
