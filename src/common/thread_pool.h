#ifndef VAQ_COMMON_THREAD_POOL_H_
#define VAQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace vaq {

/// Fixed-size worker pool with a bounded task queue. Replaces the
/// previous construct-and-join of `num_threads` fresh std::threads on
/// every SearchBatchInto call: workers are started once and reused, so a
/// serving loop pays thread-creation cost exactly once instead of per
/// batch, and the bounded queue keeps a flood of batches from piling up
/// unbounded work in memory.
///
/// Locking discipline (statically enforced under
/// VAQ_ENABLE_THREAD_SAFETY_ANALYSIS, DESIGN.md §11): `mu_` guards the
/// queue and the shutdown flag; both condition variables wait on it.
///
/// Tasks must not throw; as a safety net the worker loop swallows
/// exceptions so one faulty task cannot take the process (callers doing
/// completion accounting should wrap their own bodies — see TaskGroup).
class ThreadPool {
 public:
  struct Options {
    /// 0 = hardware concurrency.
    size_t num_threads = 0;
    /// Pending (not yet running) task cap; 0 = 4 * num_threads.
    size_t queue_capacity = 0;
  };

  ThreadPool();  ///< default Options
  explicit ThreadPool(const Options& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }
  /// Immutable after construction; safe to read without `mu_`.
  size_t queue_capacity() const { return queue_capacity_; }
  /// Pending tasks (excludes ones already running). Approximate.
  size_t queued() const VAQ_EXCLUDES(mu_);

  /// Enqueues without blocking. Returns false when the queue is at
  /// capacity or the pool is shutting down — the caller sheds the load.
  bool TrySubmit(std::function<void()> task) VAQ_EXCLUDES(mu_);

  /// Enqueues, waiting for queue space if necessary. Only fails after
  /// shutdown began. Safe for callers that already passed admission
  /// control and therefore hold a bounded amount of outstanding work.
  Status Submit(std::function<void()> task) VAQ_EXCLUDES(mu_);

  /// Process-wide pool used by the search batch drivers. Created on first
  /// use with hardware-concurrency workers.
  static ThreadPool& Shared();

  /// The shared pool if Shared() has been called, else nullptr. Metrics
  /// callbacks use this so a scrape never spins up pool workers on an
  /// idle process.
  static ThreadPool* SharedIfStarted();

 private:
  void WorkerLoop() VAQ_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_ VAQ_GUARDED_BY(mu_);
  size_t queue_capacity_ = 0;  ///< set once in the constructor
  bool shutdown_ VAQ_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// The t of ParallelFor: `num_threads` (0 = hardware concurrency) capped
/// at n.
size_t WorkerCount(size_t n, size_t num_threads);

/// Runs body(begin, end) over [0, n) in ceil(n / t) contiguous chunks, one
/// fresh std::thread each, and joins them. t is WorkerCount(n,
/// num_threads); t <= 1 runs body(0, n) inline. The build steps
/// use plain threads rather than ThreadPool::Shared(): a build called from
/// a pool task would otherwise wait on its own pool.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& body);

/// Runs body(i) for every i in [0, n) on t fresh std::threads (t as in
/// ParallelFor) that each claim the next unclaimed index until none is
/// left, and joins them. Unlike ParallelFor's contiguous chunks, uneven
/// items spread over the threads: list the heaviest first. t <= 1 runs
/// every item inline in index order.
void ParallelForEach(size_t n, size_t num_threads,
                     const std::function<void(size_t)>& body);

/// Completion latch for a set of tasks submitted to a ThreadPool. The
/// submitting thread calls Add() per task and Wait() once; each task
/// calls Done() exactly once (use a scope guard or call it on every exit
/// path). Waiting instead of joining keeps pool workers alive for the
/// next batch.
class TaskGroup {
 public:
  void Add(size_t n = 1) VAQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    pending_ += n;
  }
  void Done() VAQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }
  void Wait() VAQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_ != 0) cv_.wait(lock.native());
  }

 private:
  Mutex mu_;
  std::condition_variable cv_;
  size_t pending_ VAQ_GUARDED_BY(mu_) = 0;
};

/// Admission control for query execution: a cap on in-flight queries
/// across all concurrent batch calls. When a new batch would push the
/// total past the cap, TryAdmit fails fast — the server sheds the batch
/// with kUnavailable instead of queueing it behind work it cannot finish
/// in time (the caller retries elsewhere or later). Admission is counted
/// in queries, not batches, so one oversized batch cannot starve many
/// small ones for long.
///
/// Deliberately lock-free: all state is relaxed/acq-rel atomics, so the
/// thread-safety analysis has no capability to track here — TryAdmit
/// sits on the batch fast path and must never block behind a scrape.
class AdmissionController {
 public:
  /// RAII grant; releases its query count when destroyed.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      controller_ = other.controller_;
      cost_ = other.cost_;
      other.controller_ = nullptr;
      other.cost_ = 0;
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    bool admitted() const { return controller_ != nullptr; }
    void Release() {
      if (controller_ != nullptr) controller_->Release(cost_);
      controller_ = nullptr;
      cost_ = 0;
    }

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* controller, size_t cost)
        : controller_(controller), cost_(cost) {}
    AdmissionController* controller_ = nullptr;
    size_t cost_ = 0;
  };

  explicit AdmissionController(size_t max_in_flight = kDefaultMaxInFlight)
      : max_in_flight_(max_in_flight) {}

  /// Attempts to reserve `num_queries` slots. The returned ticket is
  /// admitted() on success; on overload it is empty and the caller should
  /// return kUnavailable.
  Ticket TryAdmit(size_t num_queries) {
    size_t current = in_flight_.load(std::memory_order_relaxed);
    const size_t cap = max_in_flight_.load(std::memory_order_relaxed);
    do {
      if (num_queries > cap || current > cap - num_queries) {
        shed_batches_.fetch_add(1, std::memory_order_relaxed);
        return Ticket();
      }
    } while (!in_flight_.compare_exchange_weak(current,
                                               current + num_queries,
                                               std::memory_order_acq_rel));
    admitted_batches_.fetch_add(1, std::memory_order_relaxed);
    return Ticket(this, num_queries);
  }

  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  size_t max_in_flight() const {
    return max_in_flight_.load(std::memory_order_relaxed);
  }
  /// Reconfigurable at runtime (ops knob; also used by tests to force
  /// overload deterministically). Already-admitted work is unaffected.
  void set_max_in_flight(size_t cap) {
    max_in_flight_.store(cap, std::memory_order_relaxed);
  }

  /// Lifetime totals, exported as registry callback counters.
  uint64_t admitted_batches() const {
    return admitted_batches_.load(std::memory_order_relaxed);
  }
  uint64_t shed_batches() const {
    return shed_batches_.load(std::memory_order_relaxed);
  }

  /// Controller consulted by VaqIndex/VaqIvfIndex batch entry points.
  static AdmissionController& Global();

  static constexpr size_t kDefaultMaxInFlight = 1 << 16;

 private:
  void Release(size_t n) {
    in_flight_.fetch_sub(n, std::memory_order_acq_rel);
  }

  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> max_in_flight_;
  std::atomic<uint64_t> admitted_batches_{0};
  std::atomic<uint64_t> shed_batches_{0};
};

}  // namespace vaq

#endif  // VAQ_COMMON_THREAD_POOL_H_
