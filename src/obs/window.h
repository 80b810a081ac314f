#ifndef HIRE_OBS_WINDOW_H_
#define HIRE_OBS_WINDOW_H_

#include "obs/metrics.h"

namespace hire {
namespace obs {

/// Estimates the q-quantile (q in [0, 1]) of the population captured in a
/// histogram snapshot by linear interpolation inside the bucket holding the
/// target rank (bucket 0 interpolates from 0). Values that landed in the
/// overflow bucket are attributed to the last finite bound — the estimate
/// saturates there rather than inventing a tail. Returns 0 for an empty
/// snapshot.
double HistogramQuantile(const HistogramSnapshot& snapshot, double q);

}  // namespace obs
}  // namespace hire

#endif  // HIRE_OBS_WINDOW_H_
