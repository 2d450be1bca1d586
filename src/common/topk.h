#ifndef VAQ_COMMON_TOPK_H_
#define VAQ_COMMON_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace vaq {

/// A (distance, id) pair returned by search routines. Sorted ascending by
/// distance; ties broken by id for deterministic output.
struct Neighbor {
  float distance = 0.f;
  int64_t id = -1;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.distance == b.distance && a.id == b.id;
  }
};

/// Bounded max-heap that keeps the k smallest (distance, id) pairs seen.
///
/// This is the best-so-far structure of Algorithm 4: `Threshold()` is the
/// k-th nearest distance once the heap is full and feeds both the triangle
/// inequality and early abandoning filters.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) { VAQ_CHECK(k > 0); }

  /// Reconfigures for a fresh query while keeping the buffer's capacity,
  /// so a heap stored in a reusable scratch performs no allocations once
  /// it has grown to its steady-state size.
  void Reset(size_t k) {
    VAQ_CHECK(k > 0);
    k_ = k;
    heap_.clear();
    heap_.reserve(k);
  }

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Current pruning threshold: the largest kept distance when full,
  /// +infinity otherwise. A candidate at exactly this distance may still
  /// enter on a smaller id.
  float Threshold() const {
    if (!full()) return kInf;
    return heap_.front().distance;
  }

  /// Inserts if the candidate improves the top-k in (distance, id) order,
  /// so an exact distance tie at the k-th place keeps the smaller id
  /// whatever order the candidates arrive in. Returns true if kept.
  bool Push(float distance, int64_t id) {
    const Neighbor candidate{distance, id};
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end());
      return true;
    }
    if (!(candidate < heap_.front())) return false;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end());
    return true;
  }

  /// Extracts results sorted ascending by distance. The heap is consumed.
  /// (distance, id) pairs that compare equal are equal, so a plain sort of
  /// the heap's array, faster than sort_heap, gives the one sorted order.
  std::vector<Neighbor> TakeSorted() {
    std::sort(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

  /// Copies the results, sorted ascending, into `out` (reusing its
  /// capacity) and empties the heap while keeping the internal buffer.
  /// The allocation-free counterpart of TakeSorted for scratch reuse.
  void ExtractSorted(std::vector<Neighbor>* out) {
    std::sort(heap_.begin(), heap_.end());
    out->assign(heap_.begin(), heap_.end());
    heap_.clear();
  }

 private:
  static constexpr float kInf = 3.402823466e+38f;

  size_t k_;
  std::vector<Neighbor> heap_;
};

}  // namespace vaq

#endif  // VAQ_COMMON_TOPK_H_
