/// \file thread_pool.h
/// \brief Fixed-size worker pool used for task- and domain-parallel
/// execution of view groups.

#ifndef LMFAO_UTIL_THREAD_POOL_H_
#define LMFAO_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lmfao {

/// \brief A simple FIFO thread pool.
///
/// Tasks are arbitrary callables. The pool is not work-stealing; the
/// engine's scheduler enqueues ready groups explicitly and tracks their
/// completion itself.
///
/// Shutdown contract: `Shutdown()` (and the destructor, which calls it)
/// drains deterministically — every task accepted before the shutdown
/// started runs to completion (including tasks those tasks submit from
/// worker context) before the workers are joined. A Submit that races with
/// or follows shutdown is *rejected* (returns false) instead of being
/// silently enqueued into a pool whose workers may already have exited —
/// accepted tasks always run, rejected tasks visibly don't.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Returns true when the task was
  /// accepted; false when the pool is shutting down (the task is dropped
  /// *before* enqueue — it will never run, and the caller knows).
  bool Submit(std::function<void()> task);

  /// Drains then joins: stops accepting new external Submits, runs every
  /// already-accepted task (worker-submitted continuations included), and
  /// joins the workers. Idempotent; called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

  /// Hardware concurrency, at least 1.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// \brief Runs `fn(i)` for i in [0, n) across `pool`, blocking until done;
/// safe from inside a pool worker. Runs inline when `pool` is null or has
/// one thread.
///
/// The caller claims indices alongside up-to-(n-1) helper tasks submitted
/// to the pool, and returns as soon as all n indices have run — helpers
/// that get scheduled late find no work and exit (their shared control
/// block keeps the state alive). Because the caller always makes progress
/// on its own indices, a worker thread blocking here cannot deadlock the
/// pool. This is how a group's domain shards run concurrently with other
/// task-parallel groups.
void ParallelForShared(ThreadPool* pool, size_t n,
                       const std::function<void(size_t)>& fn);

}  // namespace lmfao

#endif  // LMFAO_UTIL_THREAD_POOL_H_
