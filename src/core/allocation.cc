#include "core/allocation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"

namespace vaq {
namespace {

Status ValidateInputs(const std::vector<double>& vars,
                      const AllocationOptions& opt) {
  const size_t m = vars.size();
  if (m == 0) return Status::InvalidArgument("no subspaces");
  if (opt.min_bits > opt.max_bits) {
    return Status::InvalidArgument("min_bits > max_bits");
  }
  if (opt.total_bits < m * opt.min_bits) {
    return Status::InvalidArgument(
        "budget too small: " + std::to_string(opt.total_bits) + " bits < " +
        std::to_string(m) + " subspaces * " + std::to_string(opt.min_bits) +
        " min bits");
  }
  if (opt.total_bits > m * opt.max_bits) {
    return Status::InvalidArgument(
        "budget too large: " + std::to_string(opt.total_bits) + " bits > " +
        std::to_string(m) + " subspaces * " + std::to_string(opt.max_bits) +
        " max bits");
  }
  for (size_t i = 0; i < m; ++i) {
    if (!std::isfinite(vars[i])) {
      return Status::InvalidArgument("non-finite subspace variance");
    }
    if (vars[i] < 0.0) {
      return Status::InvalidArgument("negative subspace variance");
    }
    if (i > 0 && vars[i] > vars[i - 1] + 1e-9) {
      return Status::InvalidArgument(
          "subspace variances must be non-increasing (importance order)");
    }
  }
  return Status::OK();
}

std::vector<double> Normalize(const std::vector<double>& vars) {
  double total = std::accumulate(vars.begin(), vars.end(), 0.0);
  std::vector<double> w(vars.size());
  if (total <= 0.0) {
    // Degenerate data: uniform importance.
    std::fill(w.begin(), w.end(), 1.0 / static_cast<double>(vars.size()));
  } else {
    for (size_t i = 0; i < vars.size(); ++i) w[i] = vars[i] / total;
  }
  return w;
}

}  // namespace

Result<Allocation> AllocateBits(const std::vector<double>& subspace_variances,
                                const AllocationOptions& options) {
  VAQ_RETURN_IF_ERROR(ValidateInputs(subspace_variances, options));
  const size_t m = subspace_variances.size();
  const std::vector<double> w = Normalize(subspace_variances);

  // Classic transform-coding rate allocation (reverse water-filling): the
  // distortion of a k-item dictionary on a subspace with variance V decays
  // like V / poly(k), so the distortion-optimal bit split is
  //   y_i = theta + (1/2) log2(V_i),
  // clamped to [min_bits, max_bits], with the water level theta chosen so
  // the budget is met exactly. This realizes C4's "proportional to the
  // contribution of each subspace": bits track log-variance, which both
  // follows the skew and avoids starving the tail.
  std::vector<double> half_log(m);
  double min_positive = 1.0;
  for (size_t i = 0; i < m; ++i) {
    if (w[i] > 0.0) min_positive = std::min(min_positive, w[i]);
  }
  for (size_t i = 0; i < m; ++i) {
    const double v = w[i] > 0.0 ? w[i] : min_positive * 1e-3;
    half_log[i] = 0.5 * std::log2(v);
  }
  auto filled = [&](double theta) {
    double total = 0.0;
    for (size_t i = 0; i < m; ++i) {
      total += std::clamp(theta + half_log[i],
                          static_cast<double>(options.min_bits),
                          static_cast<double>(options.max_bits));
    }
    return total;
  };
  const double budget = static_cast<double>(options.total_bits);
  double lo = static_cast<double>(options.min_bits) - half_log[0];
  double hi = static_cast<double>(options.max_bits) - half_log[m - 1];
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (filled(mid) < budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::vector<double> ideal(m);
  for (size_t i = 0; i < m; ++i) {
    ideal[i] = std::clamp(hi + half_log[i],
                          static_cast<double>(options.min_bits),
                          static_cast<double>(options.max_bits));
  }

  // Largest-remainder rounding to hit the exact budget.
  std::vector<int> bits(m);
  std::vector<std::pair<double, size_t>> fractions;
  long long assigned = 0;
  for (size_t i = 0; i < m; ++i) {
    bits[i] = static_cast<int>(std::floor(ideal[i] + 1e-9));
    bits[i] = std::clamp(bits[i], static_cast<int>(options.min_bits),
                         static_cast<int>(options.max_bits));
    assigned += bits[i];
    fractions.push_back({ideal[i] - std::floor(ideal[i] + 1e-9), i});
  }
  std::sort(fractions.rbegin(), fractions.rend());
  long long leftover = static_cast<long long>(options.total_bits) - assigned;
  for (size_t pass = 0; leftover > 0 && pass < 2 * m; ++pass) {
    const size_t i = fractions[pass % m].second;
    if (bits[i] < static_cast<int>(options.max_bits)) {
      ++bits[i];
      --leftover;
    }
  }
  for (size_t pass = 0; leftover < 0 && pass < 2 * m; ++pass) {
    const size_t i = fractions[m - 1 - (pass % m)].second;
    if (bits[i] > static_cast<int>(options.min_bits)) {
      --bits[i];
      ++leftover;
    }
  }
  // Monotone repair: sorting descending preserves the multiset (and thus
  // the budget and bounds) and matches the importance ordering.
  std::sort(bits.rbegin(), bits.rend());

  Allocation out;
  out.bits = std::move(bits);
  return out;
}

}  // namespace vaq
