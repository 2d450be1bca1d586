#ifndef VAQ_COMMON_DEADLINE_H_
#define VAQ_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace vaq {

/// Clock source for Deadline, in nanoseconds on an arbitrary monotonic
/// epoch. Reads std::chrono::steady_clock unless a test installed a
/// virtual clock (see SetDeadlineClockForTesting).
int64_t DeadlineNowNanos();

/// Test hook: replaces the deadline clock with `fn` (nullptr restores the
/// steady clock). A test typically points this at a std::atomic<int64_t>
/// it advances by hand, making expiry fully deterministic.
using DeadlineClockFn = int64_t (*)();
void SetDeadlineClockForTesting(DeadlineClockFn fn);

/// Test hook: invoked on every StopController::ShouldStop() evaluation,
/// i.e. at every cooperative check point (block boundary, partition
/// boundary, batch-task start). Lets a test advance a virtual clock by a
/// fixed amount per check — forcing expiry at an exact block boundary —
/// or sleep to emulate a stuck/slow worker. nullptr disables.
using DeadlineCheckHookFn = void (*)();
void SetDeadlineCheckHookForTesting(DeadlineCheckHookFn fn);

/// A wall-clock execution budget, stored as an absolute steady-clock
/// expiry so that copies handed to batch workers all agree on the same
/// instant (per-batch deadline propagation). Default-constructed
/// deadlines never expire.
class Deadline {
 public:
  Deadline() = default;  ///< unbounded

  static Deadline Infinite() { return Deadline(); }

  /// Expires `budget` after now. A zero or negative budget is already
  /// expired: the query still returns, with whatever best-so-far state it
  /// accumulated before the first check point.
  static Deadline After(std::chrono::nanoseconds budget) {
    Deadline d;
    const int64_t now = DeadlineNowNanos();
    const int64_t b = budget.count();
    // Saturate instead of overflowing for huge budgets.
    d.expiry_ns_ = (b >= kNever - now) ? kNever : now + b;
    return d;
  }
  static Deadline AfterMicros(int64_t us) {
    return After(std::chrono::microseconds(us));
  }
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }
  /// An already-expired deadline (the 0-budget query).
  static Deadline Expired() { return After(std::chrono::nanoseconds(0)); }

  bool bounded() const { return expiry_ns_ != kNever; }
  bool IsExpired() const {
    return bounded() && DeadlineNowNanos() >= expiry_ns_;
  }
  /// Remaining budget in nanoseconds; never negative, huge when unbounded.
  int64_t RemainingNanos() const {
    if (!bounded()) return kNever;
    const int64_t left = expiry_ns_ - DeadlineNowNanos();
    return left > 0 ? left : 0;
  }

 private:
  static constexpr int64_t kNever = INT64_MAX;
  int64_t expiry_ns_ = kNever;
};

/// Cooperative cancellation handle. Copies share one flag; a
/// default-constructed token can never be cancelled, so threading tokens
/// through APIs costs nothing for callers that do not use them.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool valid() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Owner side of a cancellation flag: hand token() to queries, call
/// Cancel() from any thread to stop them at their next check point.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }
  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Why a search stopped before finishing its planned work.
enum class StopCause : uint8_t {
  kNone = 0,      ///< ran to completion
  kDeadline = 1,  ///< budget exhausted; partial results are best-so-far
  kCancelled = 2  ///< caller cancelled; results discarded
};

/// Per-query stop signal evaluated at cooperative check points. The hot
/// path only constructs and consults one when a deadline or token is
/// actually set, so unbounded queries pay nothing and stay bit-identical
/// to the pre-deadline behavior. Once stopped it stays stopped
/// (`cause()` records the first trigger) — scans must not resume after a
/// stop even if a racy clock read would momentarily disagree.
class StopController {
 public:
  StopController() = default;
  StopController(const Deadline& deadline, CancellationToken token)
      : deadline_(deadline), token_(std::move(token)) {}

  /// Anything to check at all? When false the driver passes nullptr down
  /// the scan layer and no per-block work happens.
  bool armed() const { return deadline_.bounded() || token_.valid(); }

  /// The cooperative check: cancellation first (one relaxed atomic load),
  /// then the clock. Invokes the test injection hook, if any.
  bool ShouldStop() {
    if (cause_ != StopCause::kNone) return true;
    InvokeCheckHookForTesting();
    if (token_.cancelled()) {
      cause_ = StopCause::kCancelled;
      return true;
    }
    if (deadline_.IsExpired()) {
      cause_ = StopCause::kDeadline;
      return true;
    }
    return false;
  }

  bool stopped() const { return cause_ != StopCause::kNone; }
  StopCause cause() const { return cause_; }

 private:
  static void InvokeCheckHookForTesting();

  Deadline deadline_;
  CancellationToken token_;
  StopCause cause_ = StopCause::kNone;
};

class QueryTrace;  // common/trace.h

/// Execution control of one query: SearchParams (VaqIndex) extends it,
/// and VaqIvfIndex and the batch drivers take it alone.
struct QueryControl {
  /// Wall-clock budget (absolute expiry; a copy handed to every query of a
  /// batch enforces one shared batch deadline). The default never expires
  /// and costs nothing. Checked between 64-row blocks and between
  /// partitions; on expiry the query keeps its best-so-far top-k
  /// (DESIGN.md §9).
  Deadline deadline;
  /// Cooperative cancellation, checked at the same points. A cancelled
  /// query always fails with kCancelled.
  CancellationToken cancel_token;
  /// false (default): an expired deadline returns the best-so-far top-k
  /// with OK status and SearchStats::truncated set. true: the query fails
  /// with kDeadlineExceeded and returns no results.
  bool strict_deadline = false;
  /// Optional phase-timing sink (common/trace.h), consulted only when
  /// process-wide tracing is enabled; nullptr keeps the query free of
  /// clock reads. Not owned; must outlive the query. Batch entry points
  /// ignore it: a trace is not thread-safe.
  QueryTrace* trace = nullptr;
};

}  // namespace vaq

#endif  // VAQ_COMMON_DEADLINE_H_
