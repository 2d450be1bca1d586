#ifndef VAQ_CORE_ALLOCATION_H_
#define VAQ_CORE_ALLOCATION_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace vaq {

struct AllocationOptions {
  /// Total bit budget (C3: allocations sum to exactly this).
  size_t total_bits = 256;
  /// C2 bounds per subspace.
  size_t min_bits = 1;
  size_t max_bits = 13;
};

struct Allocation {
  /// Bits per subspace, aligned with the importance-ordered subspaces.
  std::vector<int> bits;
};

/// Adaptive subspace budget allocation (Section III-C, Algorithm 2).
///
/// Reverse water-filling of y_i = theta + (1/2) log2(V_i) within
/// [min_bits, max_bits], rounded to the exact budget by largest remainder
/// and sorted non-increasing to follow the importance order.
///
/// This point is also the optimum of the paper's MILP, maximize W^T y over
/// integer y subject to C1-C4. C4 caps every y_i at this point's value,
/// and these caps already sum to the budget that C3 demands, so the
/// feasible region is this single point. C1 (the variance-covering prefix
/// gets at least one bit) is implied whenever min_bits >= 1, which
/// VaqEncoder::Train requires.
///
/// Returns kInvalidArgument when the budget cannot satisfy the bounds
/// (B < m*min or B > m*max) or when a variance is negative, non-finite or
/// out of the non-increasing importance order.
Result<Allocation> AllocateBits(const std::vector<double>& subspace_variances,
                                const AllocationOptions& options);

}  // namespace vaq

#endif  // VAQ_CORE_ALLOCATION_H_
