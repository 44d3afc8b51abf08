#include "runtime/scheduler.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/span.h"
#include "tee/platform.h"

namespace stf::runtime {

UserScheduler::UserScheduler(tee::Enclave& enclave, bool async_syscalls)
    : enclave_(enclave), async_syscalls_(async_syscalls) {}

void UserScheduler::spawn(TaskSpec task) {
  tasks_.push_back(TaskState{.spec = std::move(task)});
}

std::uint64_t UserScheduler::run() {
  tee::SimClock& clock = enclave_.platform().clock();
  const tee::CostModel& model = enclave_.platform().model();
  const std::uint64_t start_ns = clock.now_ns();

  std::size_t remaining = tasks_.size();
  std::size_t cursor = 0;
  int last_run = -1;

  while (remaining > 0) {
    // Round-robin pick of a task that is ready at the current time.
    TaskState* picked = nullptr;
    int picked_index = -1;
    for (std::size_t probe = 0; probe < tasks_.size(); ++probe) {
      const std::size_t i = (cursor + probe) % tasks_.size();
      TaskState& t = tasks_[i];
      if (!t.done && t.ready_at_ns <= clock.now_ns()) {
        picked = &t;
        picked_index = static_cast<int>(i);
        cursor = (i + 1) % tasks_.size();
        break;
      }
    }

    if (picked == nullptr) {
      // Every live task is blocked on a pending syscall: idle until the
      // earliest completes (in SCONE the OS thread backs off in-enclave).
      // skip_empty: this poll runs every loop iteration, but only the
      // passes that actually wait deserve a ring slot.
      obs::ScopedSpan idle_span(obs::SpanTracer::global(), clock,
                                obs::span_id<obs::names::kSpanSchedIdle>(),
                                /*skip_empty=*/true);
      std::uint64_t wake = std::numeric_limits<std::uint64_t>::max();
      for (const TaskState& t : tasks_) {
        if (!t.done) wake = std::min(wake, t.ready_at_ns);
      }
      stats_.idle_ns += wake - clock.now_ns();
      obs::counter<obs::names::kSchedIdleNs>().add(wake - clock.now_ns());
      clock.advance_to(wake);
      continue;
    }

    if (last_run != picked_index && last_run != -1) {
      ++stats_.context_switches;
      obs::counter<obs::names::kSchedContextSwitches>().add();
      enclave_.charge_uthread_switch();
    }
    last_run = picked_index;

    // Run the task until it blocks, yields, or finishes.
    bool keep_running = true;
    while (keep_running && picked->next_step < picked->spec.steps.size()) {
      const Step& step = picked->spec.steps[picked->next_step++];
      if (const auto* c = std::get_if<ComputeStep>(&step)) {
        enclave_.compute(c->flops);
      } else if (const auto* s = std::get_if<SyscallStep>(&step)) {
        ++stats_.syscalls;
        obs::counter<obs::names::kSchedSyscalls>().add();
        const std::uint64_t call_start = clock.now_ns();
        {
          obs::ScopedCategory attribution(obs::Category::kSyscall);
          clock.advance(model.dram_ns(s->bytes));  // argument copy
        }
        if (async_syscalls_) {
          // Enqueue and block; the kernel work overlaps with other tasks.
          obs::ScopedCategory attribution(obs::Category::kSyscall);
          clock.advance(model.async_syscall_ns);
          picked->ready_at_ns = clock.now_ns() + model.syscall_kernel_ns;
          keep_running = false;
          // The round trip ends when the kernel part completes, even though
          // this lane has moved on (exit-less call: span covers the request's
          // life, not enclave occupancy).
          obs::SpanTracer::global().record(
              obs::span_id<obs::names::kSpanSchedSyscall>(), call_start,
              picked->ready_at_ns);
        } else {
          // Synchronous exit: the whole call serializes on this thread.
          // The EENTER/EEXIT pair is transition time; the kernel part is
          // syscall time (same split as Enclave::syscall).
          ++stats_.transitions;
          obs::counter<obs::names::kSchedTransitions>().add();
          {
            obs::ScopedCategory attribution(obs::Category::kTransition);
            clock.advance(model.transition_ns);
          }
          {
            obs::ScopedCategory attribution(obs::Category::kSyscall);
            clock.advance(model.syscall_kernel_ns);
          }
          obs::SpanTracer::global().record(
              obs::span_id<obs::names::kSpanSchedSyscall>(), call_start,
              clock.now_ns());
        }
      } else {
        keep_running = false;  // YieldStep
      }
    }
    if (picked->next_step >= picked->spec.steps.size()) {
      picked->done = true;
      --remaining;
    }
  }
  return clock.now_ns() - start_ns;
}

}  // namespace stf::runtime
