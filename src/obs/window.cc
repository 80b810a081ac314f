#include "obs/window.h"

#include <algorithm>

namespace hire {
namespace obs {

double HistogramQuantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.count == 0 || snapshot.upper_bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceiling) in the sorted
  // population; q=0 maps to the first observation.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(snapshot.count) + 0.5));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snapshot.upper_bounds.size(); ++i) {
    const uint64_t in_bucket = snapshot.bucket_counts[i];
    if (cumulative + in_bucket >= target) {
      const double lower = i == 0 ? 0.0 : snapshot.upper_bounds[i - 1];
      const double upper = snapshot.upper_bounds[i];
      const double fraction =
          in_bucket > 0
              ? static_cast<double>(target - cumulative) /
                    static_cast<double>(in_bucket)
              : 1.0;
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  // Target rank sits in the overflow bucket: saturate at the last bound.
  return snapshot.upper_bounds.back();
}

}  // namespace obs
}  // namespace hire
