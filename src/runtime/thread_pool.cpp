#include "runtime/thread_pool.h"

#include <algorithm>

namespace stf::runtime {

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::ensure_started() {
  if (started_) return;
  started_ = true;
  // The caller participates in every job, so spawn threads-1 workers.
  for (unsigned t = 1; t < threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

bool ThreadPool::claim_and_run_chunk() {
  std::int64_t chunk;
  const ChunkFn* fn;
  std::int64_t begin, end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_chunk_ >= total_chunks_) return false;
    chunk = next_chunk_++;
    fn = job_fn_;
    begin = job_begin_ + chunk * job_grain_;
    end = std::min(job_end_, begin + job_grain_);
  }
  std::exception_ptr error;
  try {
    (*fn)(begin, end);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !job_error_) job_error_ = error;
    if (++done_chunks_ == total_chunks_) done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_seq = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_seq_ != seen_seq && next_chunk_ < total_chunks_);
      });
      if (stop_) return;
      seen_seq = job_seq_;
    }
    while (claim_and_run_chunk()) {
    }
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              std::int64_t grain, ChunkFn fn) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t chunks = (end - begin + grain - 1) / grain;
  if (threads_ <= 1 || chunks == 1) {
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t cb = begin + c * grain;
      fn(cb, std::min(end, cb + grain));
    }
    return;
  }

  std::lock_guard<std::mutex> job_lock(job_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ensure_started();
    job_fn_ = &fn;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = grain;
    next_chunk_ = 0;
    total_chunks_ = chunks;
    done_chunks_ = 0;
    job_error_ = nullptr;
    ++job_seq_;
  }
  work_cv_.notify_all();
  while (claim_and_run_chunk()) {
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done_chunks_ == total_chunks_; });
    error = job_error_;
    job_fn_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace stf::runtime
