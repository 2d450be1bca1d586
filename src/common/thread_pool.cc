#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace vaq {

size_t WorkerCount(size_t n, size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(num_threads, n);
}

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& body) {
  num_threads = WorkerCount(n, num_threads);
  if (num_threads <= 1) {
    body(0, n);
    return;
  }
  std::vector<std::thread> workers;
  const size_t chunk = (n + num_threads - 1) / num_threads;
  for (size_t begin = 0; begin < n; begin += chunk) {
    workers.emplace_back(body, begin, std::min(n, begin + chunk));
  }
  for (std::thread& worker : workers) worker.join();
}

void ParallelForEach(size_t n, size_t num_threads,
                     const std::function<void(size_t)>& body) {
  const size_t workers = WorkerCount(n, num_threads);
  std::atomic<size_t> next{0};
  ParallelFor(workers, workers, [&](size_t, size_t) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  });
}

ThreadPool::ThreadPool() : ThreadPool(Options()) {}

ThreadPool::ThreadPool(const Options& options) {
  size_t n = options.num_threads;
  if (n == 0) {
    n = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  queue_capacity_ =
      options.queue_capacity != 0 ? options.queue_capacity : 4 * n;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::queued() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_ || queue_.size() >= queue_capacity_) return false;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return true;
}

Status ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    // Explicit predicate re-check loop: the analysis treats `mu_` as held
    // across the wait (it does not model cv unlock/relock), which exactly
    // matches the guarded accesses in the predicate.
    while (!shutdown_ && queue_.size() >= queue_capacity_) {
      not_full_.wait(lock.native());
    }
    if (shutdown_) {
      return Status::Unavailable("thread pool is shutting down");
    }
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return Status::OK();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        not_empty_.wait(lock.native());
      }
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    try {
      task();
    } catch (...) {
      // Tasks own their error reporting; a leaked exception must not
      // terminate the process by escaping a pool thread.
    }
  }
}

namespace {
// Published once Shared() constructs the pool; lets SharedIfStarted()
// observe it without triggering construction.
std::atomic<ThreadPool*> g_shared_pool{nullptr};
}  // namespace

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool();  // intentionally leaked: pool workers may
    // still be draining when static destructors run, and joining them at
    // exit can deadlock against user atexit handlers.
    g_shared_pool.store(p, std::memory_order_release);
    return p;
  }();
  return *pool;
}

ThreadPool* ThreadPool::SharedIfStarted() {
  return g_shared_pool.load(std::memory_order_acquire);
}

AdmissionController& AdmissionController::Global() {
  static AdmissionController* controller = new AdmissionController();
  return *controller;
}

}  // namespace vaq
