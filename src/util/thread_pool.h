// Persistent thread pool with a dynamically-chunked parallel_for.
//
// Every parallel loop of the library runs on this pool, through
// parallel_for_shared below; a few tests also use it directly to validate
// thread-count-independent determinism (results must not depend on how work
// is scheduled, only on per-trial seeds).
//
// Two properties matter for the scoring hot path:
//
//  * parallel_for hands out iterations through an atomic cursor, one at a
//    time, instead of pre-splitting the range into one static chunk per
//    worker.  Greedy-taint cost varies wildly across victims; with static
//    chunks every worker idles behind the unluckiest one.
//
//  * The calling thread participates in the loop (it drains the same
//    cursor the helpers do).  That makes nested parallel_for calls on one
//    pool deadlock-free: a worker that issues an inner loop never blocks
//    waiting for queue capacity it is itself occupying — it executes the
//    inner iterations in place and helpers join only if they are free.
//
// Process-wide reuse: ThreadPool::shared() returns a lazily-created
// singleton that parallel_for_shared() grows on demand, so a scenario
// sweep issuing thousands of small loops does not pay a thread spawn/join
// per call.  The singleton is joined during static
// destruction, never leaked, so sanitizer runs stay clean.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lad {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 => hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Grows the pool to at least `n` workers (never shrinks).  Safe to call
  /// concurrently with running loops; new workers start draining the task
  /// queue immediately.
  void ensure_workers(std::size_t n);

  /// Runs fn(i) for i in [begin, end) and blocks until every iteration
  /// finished.  Iterations are handed out one at a time through an atomic
  /// cursor, so uneven per-iteration cost load-balances instead of
  /// serializing on the slowest static chunk.  The caller participates:
  /// at most `max_workers` threads (0 => num_threads()) touch the loop,
  /// counting the caller, and nested calls cannot deadlock.  Exceptions
  /// thrown by fn propagate to the caller (first one wins; the cursor is
  /// closed so remaining iterations are abandoned).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_workers = 0);

  /// The process-wide pool used by parallel_for_shared.  Created on first
  /// use, grown on demand via ensure_workers, joined at static
  /// destruction.
  static ThreadPool& shared();

 private:
  // State shared between the caller and helper tasks of one parallel_for.
  // Helpers hold it by shared_ptr: a helper that is dequeued only after
  // the loop already completed must still be able to read the (closed)
  // cursor safely and no-op.
  struct Loop {
    std::function<void(std::size_t)> fn;
    std::atomic<std::size_t> next{0};  ///< cursor; >= end means closed
    std::size_t end = 0;
    std::atomic<int> active{0};  ///< threads currently inside drive()
    std::mutex mu;               ///< guards error; cv waits on active==0
    std::condition_variable cv;
    std::exception_ptr error;
  };

  /// Drains the loop's cursor on the current thread until it is closed.
  static void drive(const std::shared_ptr<Loop>& loop);

  void worker_loop();
  void submit(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::atomic<std::size_t> count_{0};  ///< == workers_.size(), lock-free
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, n) on at most `threads` threads, counting the
/// caller, and blocks until done.  At `threads` <= 1 or n <= 1 the loop
/// runs inline on the caller and never touches the pool; otherwise the
/// shared pool grows to threads - 1 workers and runs the loop.  The one
/// dispatch rule of sim's parallel_for_items and of InterpTable's sampling
/// build.
void parallel_for_shared(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t threads);

}  // namespace lad
