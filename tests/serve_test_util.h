#ifndef HIRE_TESTS_SERVE_TEST_UTIL_H_
#define HIRE_TESTS_SERVE_TEST_UTIL_H_

// Blocking helpers over the callback submit path (SubmitAsync) shared by the
// serving tests. `target` is a MicroBatcher or a ShardRouter.

#include <cstdint>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "serve/batcher.h"

namespace hire {
namespace serve {

/// Submits one request and returns a future for its response. The promise
/// is shared with the callback, so it outlives a resolve that races the
/// caller's get().
template <typename Target>
std::future<RatingResponse> SubmitFuture(Target& target, int64_t user,
                                         std::vector<int64_t> items,
                                         RequestDeadline deadline =
                                             std::nullopt) {
  auto promise = std::make_shared<std::promise<RatingResponse>>();
  std::future<RatingResponse> future = promise->get_future();
  target.SubmitAsync(user, std::move(items), deadline,
                     [promise](RatingResponse response) {
                       promise->set_value(std::move(response));
                     });
  return future;
}

/// Submits one request and blocks until it resolves.
template <typename Target>
RatingResponse SubmitAndWait(Target& target, int64_t user,
                             std::vector<int64_t> items,
                             RequestDeadline deadline = std::nullopt) {
  return SubmitFuture(target, user, std::move(items), deadline).get();
}

}  // namespace serve
}  // namespace hire

#endif  // HIRE_TESTS_SERVE_TEST_UTIL_H_
