// Shared worker pool with a deterministic parallel_for.
//
// The partitioning contract is the whole point: a range [begin, end) with a
// given grain is always split into the same chunks — chunk c covers
// [begin + c*grain, min(end, begin + (c+1)*grain)) — regardless of how many
// worker threads exist or which thread executes which chunk. A kernel whose
// chunks write disjoint outputs therefore produces bit-identical results at
// any thread count, preserving the "Lite matches the Session bit-for-bit"
// fidelity invariant (DESIGN.md §6b) while letting wall time scale.
//
// Workers start lazily on the first parallel call and block on a condition
// variable between jobs; a pool that never runs a parallel job never spawns
// a thread. The pool only changes *real* time — virtual-time cost accounting
// is charged from op shapes and never observes it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace stf::runtime {

/// A non-owning reference to a chunk body `void(begin, end)`: an object
/// pointer plus a trampoline. Binding one never allocates, whatever the
/// callable captures; the callable must outlive the call it is passed to
/// (a lambda written in the argument list does).
class ChunkFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkFn> &&
             std::is_invocable_v<F&, std::int64_t, std::int64_t>)
  ChunkFn(F&& fn)  // implicit: a lambda argument binds in place
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, std::int64_t begin, std::int64_t end) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(begin, end);
        }) {}

  void operator()(std::int64_t begin, std::int64_t end) const {
    call_(obj_, begin, end);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::int64_t, std::int64_t);
};

class ThreadPool {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes fn(chunk_begin, chunk_end) for every grain-sized chunk of
  /// [begin, end). Chunks are claimed dynamically by the workers and the
  /// calling thread, but chunk boundaries depend only on (begin, end,
  /// grain): results are bit-identical at any thread count as long as fn
  /// writes disjoint outputs per index. Blocks until every chunk finished;
  /// the first exception thrown by fn is rethrown on the caller.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    ChunkFn fn);

  [[nodiscard]] unsigned thread_count() const { return threads_; }

  /// Process-wide pool sized to hardware concurrency (lazily constructed).
  static ThreadPool& shared();

 private:
  void ensure_started();
  void worker_loop();
  bool claim_and_run_chunk();

  unsigned threads_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  // One job at a time; concurrent parallel_for callers serialize here.
  std::mutex job_mu_;

  // Job state, guarded by mu_. Chunks are claimed by index under the lock —
  // the grain is coarse enough that claim cost is irrelevant next to the
  // chunk work, and the lock gives a clean happens-before edge for TSan.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t job_seq_ = 0;
  const ChunkFn* job_fn_ = nullptr;
  std::int64_t job_begin_ = 0;
  std::int64_t job_grain_ = 1;
  std::int64_t job_end_ = 0;
  std::int64_t next_chunk_ = 0;
  std::int64_t total_chunks_ = 0;
  std::int64_t done_chunks_ = 0;
  std::exception_ptr job_error_;
};

}  // namespace stf::runtime
