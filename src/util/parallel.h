#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace contango {

/// \file parallel.h
/// \brief Minimal threading primitives for the experiment harness: a
/// fixed-size ThreadPool for heterogeneous job sets, parallel_for() for
/// index-space fan-out on a persistent helper pool, and the process-wide
/// CoreBudget they draw cores from.  ThreadPool and parallel_for() degrade
/// to inline serial execution at one thread, which keeps single-threaded
/// runs byte-for-byte reproducible.

/// \brief Worker count to use when a caller passes 0 ("pick for me").
/// \return std::thread::hardware_concurrency(), or 1 when that is unknown
inline int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// \brief Fixed-size thread pool for fanning independent jobs (whole
/// Contango runs, baseline flows, batch evaluations) across cores.
///
/// Submitted tasks must be independent: the pool gives no ordering
/// guarantee between them, so any shared state they touch must be their
/// own output slot or atomic.
///
/// With num_threads <= 1 the pool spawns no workers and submit() runs the
/// task inline, which keeps single-threaded runs byte-for-byte reproducible
/// and easy to debug/profile.  Callers that need submit() to be
/// asynchronous even at one worker — the service JobScheduler must return
/// to its client while the job runs, and cancel from another thread — pass
/// inline_single = false to force a real worker thread.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 picks hardware_threads(), <= 1
  ///        selects inline mode (no worker threads at all)
  /// \param inline_single when false, a single-threaded pool still spawns
  ///        its one worker so submit() never runs tasks on the caller
  explicit ThreadPool(int num_threads = 0, bool inline_single = true) {
    if (num_threads <= 0) num_threads = hardware_threads();
    if (num_threads <= 1 && inline_single) return;  // inline mode
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    wait();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (1 means inline execution, no workers).
  int num_threads() const {
    return workers_.empty() ? 1 : static_cast<int>(workers_.size());
  }

  /// \brief Enqueues one task.
  ///
  /// In inline mode the task runs before submit() returns.  Tasks must not
  /// throw — wrap the body and record failures in the task's own output
  /// slot (see run_suite() for the pattern).
  /// \param task the job to run on some worker, at some later time
  void submit(std::function<void()> task) {
    if (workers_.empty()) {
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push(std::move(task));
      ++unfinished_;
    }
    task_ready_.notify_one();
  }

  /// Blocks until every task submitted so far has finished.  The pool stays
  /// usable afterwards (wait() is a barrier, not shutdown).
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // only true when stopping
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--unfinished_ == 0) all_done_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  int unfinished_ = 0;
  bool stopping_ = false;
};

/// \brief Process-wide budget of core tokens, one per hardware thread.
///
/// A thread holds a token while it computes on a core the budget lent it.
/// Suite workers hold one for each flow they run (blocking acquire());
/// parallel_for() lends its helpers the tokens that are free at the moment
/// of the call (try_acquire(), never blocking).  So a flow's level sweep
/// widens as soon as other suite workers finish, and the process never
/// runs more budgeted compute threads than the machine has cores.
class CoreBudget {
 public:
  explicit CoreBudget(int capacity) : capacity_(std::max(1, capacity)) {}

  /// The budget every suite worker and parallel_for() call shares:
  /// hardware_threads() tokens.
  static CoreBudget& global() {
    static CoreBudget budget(hardware_threads());
    return budget;
  }

  CoreBudget(const CoreBudget&) = delete;
  CoreBudget& operator=(const CoreBudget&) = delete;

  int capacity() const { return capacity_; }

  /// Takes up to `max` free tokens without blocking.  Tokens that blocked
  /// acquire() calls are waiting for are not free: a sweep re-borrowing
  /// at every level would otherwise starve a waiting suite worker.
  /// \return the number taken, 0..max
  int try_acquire(int max) {
    if (max <= 0) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const int granted = std::max(0, std::min(max, capacity_ - in_use_ - waiting_));
    take_locked(granted);
    return granted;
  }

  /// Takes one token, blocking until one is free.
  void acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiting_;
    freed_.wait(lock, [this] { return in_use_ < capacity_; });
    --waiting_;
    take_locked(1);
  }

  /// Returns `count` tokens taken earlier.
  void release(int count) {
    if (count <= 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_use_ -= count;
    }
    freed_.notify_all();
  }

  /// Tokens held right now.
  int in_use() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return in_use_;
  }

  /// Threads blocked in acquire() right now.
  int waiting() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return waiting_;
  }

  /// Most tokens ever held at once (read-only high-water mark).
  int peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  void take_locked(int count) {
    in_use_ += count;
    peak_ = std::max(peak_, in_use_);
  }

  const int capacity_;
  mutable std::mutex mutex_;
  std::condition_variable freed_;
  int in_use_ = 0;
  int waiting_ = 0;  ///< threads blocked in acquire()
  int peak_ = 0;
};

/// \brief One token of CoreBudget::global(), held for this object's
/// lifetime; the constructor blocks until a token is free.
class CoreToken {
 public:
  CoreToken() { CoreBudget::global().acquire(); }
  ~CoreToken() { CoreBudget::global().release(1); }
  CoreToken(const CoreToken&) = delete;
  CoreToken& operator=(const CoreToken&) = delete;
};

namespace detail {

/// True on the helper pool's threads: parallel_for() there runs inline.
inline thread_local bool t_on_helper = false;

/// One parallel_for() call's tasks on the helper pool.  It lives on the
/// caller's stack; HelperPool::join() returns only once no helper refers
/// to it any more.
struct HelperJob {
  void (*run)(void* ctx) = nullptr;
  void* ctx = nullptr;
  int pending = 0;  ///< posted tasks not yet finished, guarded by the pool
  std::condition_variable done;
};

/// \brief The persistent helper threads behind parallel_for():
/// hardware_threads() - 1 of them, started on first use and joined at
/// process exit.
///
/// parallel_for() posts one task per budget token it was granted and
/// returns the tokens after join().  While every caller holds a token of
/// its own, as suite workers do, at most hardware_threads() - 1 tasks are
/// out at once, so each finds a pool thread that is idle or about to be.
/// Helper tasks never block on anything but their own work (a nested
/// parallel_for runs inline), so every posted task runs to completion.
class HelperPool {
 public:
  static HelperPool& instance() {
    static HelperPool pool(hardware_threads() - 1);
    return pool;
  }

  ~HelperPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  /// Number of helper threads actually running.
  int size() const { return static_cast<int>(threads_.size()); }

  /// Queues `count` runs of `job` for the helpers.
  void post(HelperJob& job, int count) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.pending += count;
      queue_.insert(queue_.end(), static_cast<std::size_t>(count), &job);
    }
    ready_.notify_all();
  }

  /// Withdraws the job's tasks that no helper has started yet, then blocks
  /// until the started ones have finished.
  void join(HelperJob& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto unstarted = std::remove(queue_.begin(), queue_.end(), &job);
    job.pending -= static_cast<int>(queue_.end() - unstarted);
    queue_.erase(unstarted, queue_.end());
    job.done.wait(lock, [&job] { return job.pending == 0; });
  }

 private:
  explicit HelperPool(int count) {
    threads_.reserve(static_cast<std::size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i) {
      try {
        threads_.emplace_back([this] { loop(); });
      } catch (const std::system_error&) {
        break;  // out of threads: run with the helpers already started
      }
    }
  }

  void loop() {
    t_on_helper = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // only when stopping
      HelperJob* job = queue_.front();
      queue_.pop_front();
      lock.unlock();
      job->run(job->ctx);
      lock.lock();
      // Notified under the lock: the caller cannot leave join(), and free
      // the job, before this thread is back in wait().
      if (--job->pending == 0) job->done.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<HelperJob*> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: the threads use the members above
};

}  // namespace detail

/// \brief Runs fn(i) for i in [0, n) on the calling thread plus up to
/// num_threads - 1 borrowed helpers.
///
/// The caller always drains the range itself.  Helpers come from the
/// persistent pool (detail::HelperPool, no thread is created per call), one
/// per CoreBudget::global() token free at the time of the call: at most
/// min(num_threads - 1, n - 1, free tokens).  The tokens go back once the
/// helpers have finished.  With no free token, at one thread, and on a
/// pool helper (nested calls) the loop runs inline.
///
/// fn is invoked at most once per index — exactly once unless an iteration
/// throws; indices are handed out dynamically so uneven job sizes still
/// balance.  Blocks until all iterations finish.
///
/// Exception-safe: the first exception thrown by any iteration, on a helper
/// or on the calling thread, is captured, no further indices are handed
/// out, every helper is joined, and the exception is rethrown on the
/// caller.  Iterations already running elsewhere complete first.
/// \param n iteration count
/// \param num_threads thread cap, caller included; 0 = hardware_threads(),
///        1 = serial
/// \param fn callable taking the index
template <typename Fn>
void parallel_for(int n, int num_threads, Fn&& fn) {
  if (n <= 0) return;
  if (num_threads <= 0) num_threads = hardware_threads();
  if (num_threads == 1 || n == 1 || detail::t_on_helper) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto drain = [&]() noexcept {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // hand out nothing more
        return;
      }
    }
  };
  detail::HelperPool& pool = detail::HelperPool::instance();
  CoreBudget& budget = CoreBudget::global();
  const int helpers =
      budget.try_acquire(std::min({num_threads - 1, n - 1, pool.size()}));
  detail::HelperJob job;
  job.run = [](void* ctx) { (*static_cast<decltype(drain)*>(ctx))(); };
  job.ctx = &drain;
  if (helpers > 0) pool.post(job, helpers);
  drain();
  if (helpers > 0) {
    pool.join(job);
    budget.release(helpers);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace contango
