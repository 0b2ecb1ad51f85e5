#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace lmfao {

namespace {
/// The pool whose WorkerLoop the current thread is inside (null on
/// non-worker threads). Lets Submit distinguish a continuation submitted
/// by a draining task (must be accepted, or in-flight task graphs would
/// wedge mid-shutdown) from a new external task racing the shutdown
/// (must be rejected, or it could land after the workers exited and never
/// run).
thread_local const ThreadPool* g_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  // A worker exits once it finds the queue empty; a worker still running a
  // task loops back afterwards and runs any continuations that task
  // submitted, so join() here IS the drain barrier: everything accepted
  // before the stop flag runs first.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && g_current_pool != this) return false;
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
  return true;
}

void ThreadPool::WorkerLoop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

void ParallelForShared(ThreadPool* pool, size_t n,
                       const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  struct Control {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t n = 0;
    std::function<void(size_t)> fn;
  };
  auto control = std::make_shared<Control>();
  control->n = n;
  control->fn = fn;
  auto work = [](const std::shared_ptr<Control>& c) {
    for (;;) {
      const size_t i = c->next.fetch_add(1);
      if (i >= c->n) break;
      c->fn(i);
      if (c->done.fetch_add(1) + 1 == c->n) {
        std::lock_guard<std::mutex> lock(c->mu);
        c->cv.notify_all();
      }
    }
  };
  const size_t helpers = std::min(n, pool->num_threads()) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([control, work] { work(control); });
  }
  work(control);
  std::unique_lock<std::mutex> lock(control->mu);
  control->cv.wait(lock, [&] { return control->done.load() == control->n; });
}

}  // namespace lmfao
