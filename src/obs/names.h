// Canonical metric and span names of the observability plane.
//
// Every name the registry or the span tracer ever sees is declared here, as
// a `constexpr` string constant, and documented in docs/METRICS.md. A CMake
// check (cmake/check_metrics.cmake, ctest `metrics_docs_crosscheck`) parses
// this header and the reference table and fails the build's test suite when
// either side drifts: a name added here must be documented, a name
// documented must exist here, and a name declared here must be used by some
// instrumentation site outside this header. Do not pass string literals to
// Registry/SpanTracer directly — route them through a constant below.
//
// Naming convention: `<subsystem>.<component>.<metric>`, lowercase,
// underscores inside a segment, dots between segments. Counters are plural
// nouns or `*_ns`/`*_bytes` totals; gauges are level nouns; histograms end
// in `_ns`; span names are singular event nouns.
#pragma once

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
// int8 execution path (docs/QUANTIZATION.md): registered lazily by the
// quantized kernels/interpreter only, so float-only runs keep their
// registry exports byte-identical.
inline constexpr const char* kQuantGemmCalls = "ml.quant.int8_gemm_calls";
inline constexpr const char* kQuantConvCalls = "ml.quant.int8_conv_calls";
inline constexpr const char* kQuantInt8Macs = "ml.quant.int8_macs";
inline constexpr const char* kQuantRequantizedElements =
    "ml.quant.requantized_elements";
inline constexpr const char* kQuantInt8Invokes = "ml.quant.int8_invokes";
inline constexpr const char* kQuantCalibrationRuns =
    "ml.quant.calibration_runs";
// Slalom GPU offload (docs/GPU_OFFLOAD.md): registered lazily by the offload
// engine only, so offload-off runs keep their registry exports
// byte-identical.
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
// Request-plane traffic (docs/SERVING.md): registered lazily by the
// serve_trace path only, so benches that never run traffic keep their
// registry exports byte-identical.
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
// Request-plane failover policy (docs/SERVING.md): registered with the
// traffic series above on the first serve_trace; zero without faults,
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
// SLO monitor over timeline windows (docs/TRACING.md): registered lazily by
// evaluate_slo only, so runs without the monitor keep their registry
// exports byte-identical.
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
// Registered lazily on the first ring overwrite / first timeline event, so
// overwrite-free and timeline-off runs keep registry exports byte-identical.
inline constexpr const char* kTraceDropped = "obs.trace.dropped";
inline constexpr const char* kTimelineEvents = "obs.timeline.events";
inline constexpr const char* kTimelineWindows = "obs.timeline.windows";

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
