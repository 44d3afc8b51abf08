// Canonical metric and span names of the observability plane, and the one
// table of registry series.
//
// Every name the registry or the span tracer ever sees is declared here, as
// a `constexpr` string constant, and documented in docs/METRICS.md. Every
// registry series is listed once more in `kSeries` below, with its kind and
// unit: Registry::global() registers that table when it is created and
// refuses any other series, so every export lists the same series. A CMake
// check (cmake/check_metrics.cmake, ctest `metrics_docs_crosscheck`) parses
// this header and the reference table and fails the build's test suite when
// either side drifts: a name added here must be documented, a name
// documented must exist here, a name declared here must be used by some
// instrumentation site outside this header, and every table row must carry
// its documented Type and Unit. Sites reach a series or a span id through
// the accessors keyed by these constants (`obs::counter<names::kEpcFaults>()`,
// `obs::span_id<names::kSpanEpcLoad>()`), never through a string literal.
//
// Naming convention: `<subsystem>.<component>.<metric>`, lowercase,
// underscores inside a segment, dots between segments. Counters are plural
// nouns or `*_ns`/`*_bytes` totals; gauges are level nouns; histograms end
// in `_ns`; span names are singular event nouns.
#pragma once

#include <cstdint>
#include <string_view>

namespace stf::obs {

enum class Unit : std::uint8_t { Count, Bytes, Nanoseconds, Pages, Flops };

inline const char* to_string(Unit u) {
  switch (u) {
    case Unit::Count: return "count";
    case Unit::Bytes: return "bytes";
    case Unit::Nanoseconds: return "ns";
    case Unit::Pages: return "pages";
    case Unit::Flops: return "flops";
  }
  return "?";
}

/// The four kinds of registry series (docs/METRICS.md, column Type).
enum class Kind : std::uint8_t { Counter, Gauge, Histogram, Quantile };

}  // namespace stf::obs

namespace stf::obs::names {

// --- tee: EPC paging + enclave lifecycle (Figures 5-8, §5.3) -------------
inline constexpr const char* kEpcFaults = "tee.epc.faults";
inline constexpr const char* kEpcLoads = "tee.epc.loads";
inline constexpr const char* kEpcEvictions = "tee.epc.evictions";
inline constexpr const char* kEpcAccesses = "tee.epc.accesses";
inline constexpr const char* kEpcBytesAccessed = "tee.epc.bytes_accessed";
inline constexpr const char* kEpcResidentPages = "tee.epc.resident_pages";
inline constexpr const char* kEpcMappedBytes = "tee.epc.mapped_bytes";
inline constexpr const char* kEpcPrefetches = "tee.epc.prefetches";
inline constexpr const char* kEpcPrefetchedPages = "tee.epc.prefetched_pages";
inline constexpr const char* kEpcAdvisedEvictions =
    "tee.epc.advised_evictions";
inline constexpr const char* kEnclaveLaunches = "tee.enclave.launches";
inline constexpr const char* kEnclaveTransitions = "tee.enclave.transitions";
inline constexpr const char* kEnclaveSyscalls = "tee.enclave.syscalls";
inline constexpr const char* kEnclaveSyscallBytes = "tee.enclave.syscall_bytes";

// --- runtime: scheduler, shields, resilient RPC --------------------------
inline constexpr const char* kSchedContextSwitches =
    "runtime.sched.context_switches";
inline constexpr const char* kSchedSyscalls = "runtime.sched.syscalls";
inline constexpr const char* kSchedTransitions = "runtime.sched.transitions";
inline constexpr const char* kSchedIdleNs = "runtime.sched.idle_ns";
inline constexpr const char* kFsShieldWrites = "runtime.fs_shield.writes";
inline constexpr const char* kFsShieldReads = "runtime.fs_shield.reads";
inline constexpr const char* kFsShieldBytesSealed =
    "runtime.fs_shield.bytes_sealed";
inline constexpr const char* kFsShieldBytesOpened =
    "runtime.fs_shield.bytes_opened";
inline constexpr const char* kFsShieldIntegrityFailures =
    "runtime.fs_shield.integrity_failures";
inline constexpr const char* kChannelRecordsSent =
    "runtime.channel.records_sent";
inline constexpr const char* kChannelRecordsReceived =
    "runtime.channel.records_received";
inline constexpr const char* kChannelBytesSent = "runtime.channel.bytes_sent";
inline constexpr const char* kChannelReplaysRejected =
    "runtime.channel.replays_rejected";
inline constexpr const char* kRpcRetransmits = "runtime.rpc.retransmits";
inline constexpr const char* kRpcDuplicatesDropped =
    "runtime.rpc.duplicates_dropped";
inline constexpr const char* kRpcDelivered = "runtime.rpc.delivered";
inline constexpr const char* kRpcAcked = "runtime.rpc.acked";
inline constexpr const char* kRpcDeliveryNs = "runtime.rpc.delivery_ns";

// --- net: simulated cluster fabric ---------------------------------------
inline constexpr const char* kNetMessagesDelivered = "net.messages_delivered";
inline constexpr const char* kNetBytesSent = "net.bytes_sent";
inline constexpr const char* kNetConnectionsOpened = "net.connections_opened";

// --- faults: injected weather (E7) ---------------------------------------
inline constexpr const char* kFaultsMessagesSeen = "faults.messages_seen";
inline constexpr const char* kFaultsDropped = "faults.dropped";
inline constexpr const char* kFaultsDuplicated = "faults.duplicated";
inline constexpr const char* kFaultsDelayed = "faults.delayed";
inline constexpr const char* kFaultsCrashDropped = "faults.crash_dropped";
inline constexpr const char* kFaultsIoFailures = "faults.io_failures";

// --- ml: executor + kernels ----------------------------------------------
inline constexpr const char* kSessionRuns = "ml.session.runs";
inline constexpr const char* kSessionTrainSteps = "ml.session.train_steps";
inline constexpr const char* kSessionFlops = "ml.session.flops";
inline constexpr const char* kKernelGemmCalls = "ml.kernels.gemm_calls";
inline constexpr const char* kKernelConvCalls = "ml.kernels.conv_calls";
inline constexpr const char* kPlannerPlans = "ml.planner.plans";
inline constexpr const char* kPlannerPeakBytes = "ml.planner.peak_bytes";
inline constexpr const char* kPlannerSavedBytes = "ml.planner.saved_bytes";
// int8 execution path (docs/QUANTIZATION.md).
inline constexpr const char* kQuantGemmCalls = "ml.quant.int8_gemm_calls";
inline constexpr const char* kQuantConvCalls = "ml.quant.int8_conv_calls";
inline constexpr const char* kQuantInt8Macs = "ml.quant.int8_macs";
inline constexpr const char* kQuantRequantizedElements =
    "ml.quant.requantized_elements";
inline constexpr const char* kQuantInt8Invokes = "ml.quant.int8_invokes";
inline constexpr const char* kQuantCalibrationRuns =
    "ml.quant.calibration_runs";
// Slalom GPU offload (docs/GPU_OFFLOAD.md).
inline constexpr const char* kSlalomOffloadedOps = "ml.slalom.offloaded_ops";
inline constexpr const char* kSlalomVerifications = "ml.slalom.verifications";
inline constexpr const char* kSlalomFallbacks = "ml.slalom.fallbacks";
inline constexpr const char* kSlalomGpuFlops = "ml.slalom.gpu_flops";
inline constexpr const char* kSlalomPcieBytes = "ml.slalom.pcie_bytes";

// --- core: inference + serving fleet (Figures 5-7) -----------------------
inline constexpr const char* kInferenceRequests = "core.inference.requests";
inline constexpr const char* kInferenceRequestNs =
    "core.inference.request_ns";
inline constexpr const char* kInferenceRequestQuantileNs =
    "core.inference.request_quantile_ns";
inline constexpr const char* kInferenceBatches = "core.inference.batches";
inline constexpr const char* kServingRequestQuantileNs =
    "core.serving.request_quantile_ns";
inline constexpr const char* kServingDispatches = "core.serving.dispatches";
inline constexpr const char* kServingDispatchFailures =
    "core.serving.dispatch_failures";
inline constexpr const char* kServingEjections = "core.serving.ejections";
// Request-plane traffic (docs/SERVING.md).
inline constexpr const char* kServingRequestsOffered =
    "core.serving.requests_offered";
inline constexpr const char* kServingRequestsCompleted =
    "core.serving.requests_completed";
inline constexpr const char* kServingShedQueueFull =
    "core.serving.shed_queue_full";
inline constexpr const char* kServingShedExpired =
    "core.serving.shed_expired";
inline constexpr const char* kServingSloMisses = "core.serving.slo_misses";
inline constexpr const char* kServingQueueWaitQuantileNs =
    "core.serving.queue_wait_quantile_ns";
inline constexpr const char* kServingE2eQuantileNs =
    "core.serving.e2e_latency_quantile_ns";
// Request-plane failover policy (docs/SERVING.md): zero without faults,
// retries or hedging.
inline constexpr const char* kServingFailoverDetections =
    "core.serving.failover.crash_detections";
inline constexpr const char* kServingFailoverResteered =
    "core.serving.failover.resteered_requests";
inline constexpr const char* kServingFailoverRetries =
    "core.serving.failover.retries";
inline constexpr const char* kServingFailoverFailedRequests =
    "core.serving.failover.failed_requests";
inline constexpr const char* kServingFailoverHedges =
    "core.serving.failover.hedges";
inline constexpr const char* kServingFailoverHedgeWins =
    "core.serving.failover.hedge_wins";
inline constexpr const char* kServingFailoverReadmissions =
    "core.serving.failover.readmissions";
// SLO monitor over timeline windows (docs/TRACING.md).
inline constexpr const char* kSloAlerts = "core.serving.slo.alerts";
inline constexpr const char* kSloBreachedWindows =
    "core.serving.slo.breached_windows";

// --- distributed: parameter-server training (Figure 8) -------------------
inline constexpr const char* kTrainRounds = "distributed.rounds";
inline constexpr const char* kTrainDegradedRounds =
    "distributed.degraded_rounds";
inline constexpr const char* kTrainLostGradients =
    "distributed.lost_gradients";
inline constexpr const char* kTrainWorkerCrashes =
    "distributed.worker_crashes";
inline constexpr const char* kTrainSamplesProcessed =
    "distributed.samples_processed";
inline constexpr const char* kTrainRoundNs = "distributed.round_ns";
inline constexpr const char* kTrainRoundQuantileNs =
    "distributed.round_quantile_ns";

// --- obs: the observability plane watching itself ------------------------
inline constexpr const char* kTraceDropped = "obs.trace.dropped";
inline constexpr const char* kTimelineEvents = "obs.timeline.events";
inline constexpr const char* kTimelineWindows = "obs.timeline.windows";

// --- the registry series: each metric constant above, once ---------------
// Registry::global() registers every row when it is created; its kind and
// unit are the series' Type and Unit in docs/METRICS.md. Every histogram
// uses obs::latency_edges_ns().
struct Series {
  const char* name;
  Kind kind;
  Unit unit;
};

inline constexpr Series kSeries[] = {
    {kEpcFaults, Kind::Counter, Unit::Count},
    {kEpcLoads, Kind::Counter, Unit::Count},
    {kEpcEvictions, Kind::Counter, Unit::Count},
    {kEpcAccesses, Kind::Counter, Unit::Count},
    {kEpcBytesAccessed, Kind::Counter, Unit::Bytes},
    {kEpcResidentPages, Kind::Gauge, Unit::Pages},
    {kEpcMappedBytes, Kind::Gauge, Unit::Bytes},
    {kEpcPrefetches, Kind::Counter, Unit::Count},
    {kEpcPrefetchedPages, Kind::Counter, Unit::Pages},
    {kEpcAdvisedEvictions, Kind::Counter, Unit::Pages},
    {kEnclaveLaunches, Kind::Counter, Unit::Count},
    {kEnclaveTransitions, Kind::Counter, Unit::Count},
    {kEnclaveSyscalls, Kind::Counter, Unit::Count},
    {kEnclaveSyscallBytes, Kind::Counter, Unit::Bytes},
    {kSchedContextSwitches, Kind::Counter, Unit::Count},
    {kSchedSyscalls, Kind::Counter, Unit::Count},
    {kSchedTransitions, Kind::Counter, Unit::Count},
    {kSchedIdleNs, Kind::Counter, Unit::Nanoseconds},
    {kFsShieldWrites, Kind::Counter, Unit::Count},
    {kFsShieldReads, Kind::Counter, Unit::Count},
    {kFsShieldBytesSealed, Kind::Counter, Unit::Bytes},
    {kFsShieldBytesOpened, Kind::Counter, Unit::Bytes},
    {kFsShieldIntegrityFailures, Kind::Counter, Unit::Count},
    {kChannelRecordsSent, Kind::Counter, Unit::Count},
    {kChannelRecordsReceived, Kind::Counter, Unit::Count},
    {kChannelBytesSent, Kind::Counter, Unit::Bytes},
    {kChannelReplaysRejected, Kind::Counter, Unit::Count},
    {kRpcRetransmits, Kind::Counter, Unit::Count},
    {kRpcDuplicatesDropped, Kind::Counter, Unit::Count},
    {kRpcDelivered, Kind::Counter, Unit::Count},
    {kRpcAcked, Kind::Counter, Unit::Count},
    {kRpcDeliveryNs, Kind::Histogram, Unit::Nanoseconds},
    {kNetMessagesDelivered, Kind::Counter, Unit::Count},
    {kNetBytesSent, Kind::Counter, Unit::Bytes},
    {kNetConnectionsOpened, Kind::Counter, Unit::Count},
    {kFaultsMessagesSeen, Kind::Counter, Unit::Count},
    {kFaultsDropped, Kind::Counter, Unit::Count},
    {kFaultsDuplicated, Kind::Counter, Unit::Count},
    {kFaultsDelayed, Kind::Counter, Unit::Count},
    {kFaultsCrashDropped, Kind::Counter, Unit::Count},
    {kFaultsIoFailures, Kind::Counter, Unit::Count},
    {kSessionRuns, Kind::Counter, Unit::Count},
    {kSessionTrainSteps, Kind::Counter, Unit::Count},
    {kSessionFlops, Kind::Counter, Unit::Flops},
    {kKernelGemmCalls, Kind::Counter, Unit::Count},
    {kKernelConvCalls, Kind::Counter, Unit::Count},
    {kPlannerPlans, Kind::Counter, Unit::Count},
    {kPlannerPeakBytes, Kind::Gauge, Unit::Bytes},
    {kPlannerSavedBytes, Kind::Gauge, Unit::Bytes},
    {kQuantGemmCalls, Kind::Counter, Unit::Count},
    {kQuantConvCalls, Kind::Counter, Unit::Count},
    {kQuantInt8Macs, Kind::Counter, Unit::Count},
    {kQuantRequantizedElements, Kind::Counter, Unit::Count},
    {kQuantInt8Invokes, Kind::Counter, Unit::Count},
    {kQuantCalibrationRuns, Kind::Counter, Unit::Count},
    {kSlalomOffloadedOps, Kind::Counter, Unit::Count},
    {kSlalomVerifications, Kind::Counter, Unit::Count},
    {kSlalomFallbacks, Kind::Counter, Unit::Count},
    {kSlalomGpuFlops, Kind::Counter, Unit::Count},
    {kSlalomPcieBytes, Kind::Counter, Unit::Bytes},
    {kInferenceRequests, Kind::Counter, Unit::Count},
    {kInferenceRequestNs, Kind::Histogram, Unit::Nanoseconds},
    {kInferenceRequestQuantileNs, Kind::Quantile, Unit::Nanoseconds},
    {kInferenceBatches, Kind::Counter, Unit::Count},
    {kServingRequestQuantileNs, Kind::Quantile, Unit::Nanoseconds},
    {kServingDispatches, Kind::Counter, Unit::Count},
    {kServingDispatchFailures, Kind::Counter, Unit::Count},
    {kServingEjections, Kind::Counter, Unit::Count},
    {kServingRequestsOffered, Kind::Counter, Unit::Count},
    {kServingRequestsCompleted, Kind::Counter, Unit::Count},
    {kServingShedQueueFull, Kind::Counter, Unit::Count},
    {kServingShedExpired, Kind::Counter, Unit::Count},
    {kServingSloMisses, Kind::Counter, Unit::Count},
    {kServingQueueWaitQuantileNs, Kind::Quantile, Unit::Nanoseconds},
    {kServingE2eQuantileNs, Kind::Quantile, Unit::Nanoseconds},
    {kServingFailoverDetections, Kind::Counter, Unit::Count},
    {kServingFailoverResteered, Kind::Counter, Unit::Count},
    {kServingFailoverRetries, Kind::Counter, Unit::Count},
    {kServingFailoverFailedRequests, Kind::Counter, Unit::Count},
    {kServingFailoverHedges, Kind::Counter, Unit::Count},
    {kServingFailoverHedgeWins, Kind::Counter, Unit::Count},
    {kServingFailoverReadmissions, Kind::Counter, Unit::Count},
    {kSloAlerts, Kind::Counter, Unit::Count},
    {kSloBreachedWindows, Kind::Counter, Unit::Count},
    {kTrainRounds, Kind::Counter, Unit::Count},
    {kTrainDegradedRounds, Kind::Counter, Unit::Count},
    {kTrainLostGradients, Kind::Counter, Unit::Count},
    {kTrainWorkerCrashes, Kind::Counter, Unit::Count},
    {kTrainSamplesProcessed, Kind::Counter, Unit::Count},
    {kTrainRoundNs, Kind::Histogram, Unit::Nanoseconds},
    {kTrainRoundQuantileNs, Kind::Quantile, Unit::Nanoseconds},
    {kTraceDropped, Kind::Counter, Unit::Count},
    {kTimelineEvents, Kind::Counter, Unit::Count},
    {kTimelineWindows, Kind::Counter, Unit::Count},
};

/// Whether kSeries lists `name` as a series of `kind`.
constexpr bool declares(std::string_view name, Kind kind) {
  for (const Series& s : kSeries) {
    if (s.name == name && s.kind == kind) return true;
  }
  return false;
}

// --- spans (virtual-time intervals in the tracer ring) -------------------
inline constexpr const char* kSpanEnclaveTransition = "tee.enclave.transition";
inline constexpr const char* kSpanEpcEvict = "tee.epc.evict";
inline constexpr const char* kSpanEpcLoad = "tee.epc.load";
inline constexpr const char* kSpanEpcPrefetch = "tee.epc.prefetch";
inline constexpr const char* kSpanFsShieldSeal = "runtime.fs_shield.seal";
inline constexpr const char* kSpanFsShieldUnseal = "runtime.fs_shield.unseal";
inline constexpr const char* kSpanSchedSyscall = "runtime.sched.syscall";
inline constexpr const char* kSpanRpcRetry = "runtime.rpc.retry";
inline constexpr const char* kSpanSessionGemm = "ml.session.gemm";
inline constexpr const char* kSpanInferenceRequest = "core.inference.request";
inline constexpr const char* kSpanInferenceBatch = "core.inference.batch";
inline constexpr const char* kSpanServingFailoverDetect =
    "core.serving.failover.detect";
inline constexpr const char* kSpanTrainRound = "distributed.round";
inline constexpr const char* kSpanSchedIdle = "runtime.sched.idle";
// Causal request decomposition (docs/TRACING.md): synthetic per-request
// phase spans recorded by the serving plane when tracing is enabled, plus
// the per-op interpreter span. Root/wire/queue_wait/batch_wait/service
// partition each completed request's latency exactly.
inline constexpr const char* kSpanServingRequest = "core.serving.request";
inline constexpr const char* kSpanServingWire = "core.serving.wire";
inline constexpr const char* kSpanServingQueueWait =
    "core.serving.queue_wait";
inline constexpr const char* kSpanServingBatchWait =
    "core.serving.batch_wait";
inline constexpr const char* kSpanServingService = "core.serving.service";
inline constexpr const char* kSpanLiteOp = "ml.lite.op";

// --- flows (cross-lane causal arrows in the Chrome trace) ----------------
// One flow per traced request (flow id = trace id): start at client
// arrival, a step per retry/hedge/re-steer hop, finish at batch dispatch.
inline constexpr const char* kFlowServingRequest =
    "core.serving.request_flow";

// --- profile: attribution categories (docs/PROFILING.md) -----------------
// Every virtual nanosecond a SimClock advances while a ScopedAttribution is
// active is charged to exactly one of these categories (the innermost
// ScopedCategory on the charging thread; `profile.other` when none is
// open). The per-profile sum plus warp equals the profiled interval's
// duration — the conservation invariant checked by tests/obs_test.cpp.
inline constexpr const char* kCatCompute = "profile.compute";
inline constexpr const char* kCatEpcPaging = "profile.epc_paging";
inline constexpr const char* kCatTransition = "profile.transition";
inline constexpr const char* kCatSyscall = "profile.syscall";
inline constexpr const char* kCatCrypto = "profile.crypto";
inline constexpr const char* kCatNet = "profile.net";
inline constexpr const char* kCatFsShield = "profile.fs_shield";
inline constexpr const char* kCatFaultDelay = "profile.fault_delay";
inline constexpr const char* kCatEpcPrefetch = "profile.epc_prefetch";
inline constexpr const char* kCatGpu = "profile.gpu";
inline constexpr const char* kCatPcie = "profile.pcie";
inline constexpr const char* kCatOther = "profile.other";

}  // namespace stf::obs::names
