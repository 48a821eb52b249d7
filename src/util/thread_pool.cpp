#include "util/thread_pool.h"

#include "util/assert.h"

namespace lad {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  ensure_workers(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ensure_workers(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  LAD_REQUIRE_MSG(!stop_, "ensure_workers() on a stopped pool");
  while (workers_.size() < n) {
    workers_.emplace_back([this] { worker_loop(); });
    count_.store(workers_.size(), std::memory_order_release);
  }
}

ThreadPool& ThreadPool::shared() {
  // Starts at one worker; parallel_for_shared grows it to the requested
  // width per call (parallel_for_items re-checks LAD_THREADS, so a pin
  // raised mid-process takes effect on the next loop).
  static ThreadPool pool(1);
  return pool;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    LAD_REQUIRE_MSG(!stop_, "submit() on a stopped pool");
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::drive(const std::shared_ptr<Loop>& loop) {
  // active is raised *before* the first cursor grab: once a completion
  // waiter observes active == 0 after the cursor closed, no thread can
  // still be about to execute an iteration — a helper dequeued later
  // sees the closed cursor and leaves without touching fn.
  loop->active.fetch_add(1, std::memory_order_acq_rel);
  while (true) {
    const std::size_t i = loop->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop->end) break;
    try {
      loop->fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop->mu);
      if (!loop->error) loop->error = std::current_exception();
      // Close the cursor: iterations already grabbed finish, the rest
      // are abandoned.
      loop->next.store(loop->end, std::memory_order_relaxed);
    }
  }
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    last = loop->active.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  if (last) loop->cv.notify_all();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_workers) {
  if (begin >= end) return;
  const std::size_t n = end - begin;

  auto loop = std::make_shared<Loop>();
  loop->fn = fn;
  loop->next.store(begin, std::memory_order_relaxed);
  loop->end = end;

  // The caller is one of the loop's workers, so only width-1 helpers are
  // needed; never more helpers than there are extra iterations.
  const std::size_t width = max_workers == 0 ? num_threads() : max_workers;
  const std::size_t helpers = std::min(width > 0 ? width - 1 : 0, n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([loop] { drive(loop); });
  }

  drive(loop);

  // The caller drained the cursor, so next >= end permanently; once no
  // thread is inside drive(), every grabbed iteration has finished and
  // late helpers can only no-op.
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock,
                [&] { return loop->active.load(std::memory_order_acquire) == 0; });
  if (loop->error) std::rethrow_exception(loop->error);
}

void parallel_for_shared(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t threads) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller participates in the loop, so `threads`-wide execution
  // needs only threads-1 pool workers, and nested loops (scenario jobs
  // running pipeline passes, which run per-trial loops) cannot deadlock.
  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_workers(threads - 1);
  pool.parallel_for(0, n, fn, threads);
}

}  // namespace lad
