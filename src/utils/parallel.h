#ifndef HIRE_UTILS_PARALLEL_H_
#define HIRE_UTILS_PARALLEL_H_

#include <cstdint>

namespace hire {

class Flags;

// ---------------------------------------------------------------------------
// Process-wide parallel runtime.
//
// A persistent-worker fork/join runtime for data-parallel loops. One runtime
// instance is shared by every tensor kernel: N-1 parked worker threads plus
// the calling thread. A loop publishes a single stack-allocated descriptor
// into a lock-free task slot (no per-chunk or per-loop heap allocation),
// chunks are dealt into per-lane queues, and idle lanes steal from the tail
// of other lanes' queues. Chunk boundaries are a pure function of
// (begin, end, grain) — work stealing only changes *which* thread runs a
// chunk, never what the chunk covers — so kernels that keep each output
// element inside one chunk stay bitwise reproducible for any thread count.
//
// This runtime spins briefly before parking and must only run short
// CPU-bound chunks; long-running or blocking jobs (the serve tier's event
// loop, batch workers and reload thread) run on their own std::threads.
// ---------------------------------------------------------------------------

/// Logical parallelism of the process-wide runtime. Resolution order:
/// SetGlobalThreads() > HIRE_NUM_THREADS env var > hardware concurrency.
/// Always >= 1.
int GlobalThreads();

/// Threads that can actually run concurrently: min(GlobalThreads(),
/// hardware concurrency). When GlobalThreads() exceeds this, the runtime is
/// oversubscribed and threaded timings measure time-slicing, not scaling.
int GlobalEffectiveThreads();

/// Sets the process-wide parallelism. `num_threads` == 0 restores the
/// automatic default (env var, then hardware concurrency). Destroys and
/// recreates the shared runtime: must not be called while a ParallelFor is
/// in flight on any thread. This is enforced — an in-flight region counter
/// makes the call abort with a diagnostic instead of corrupting the runtime.
void SetGlobalThreads(int num_threads);

/// Applies the conventional `--threads` flag (0 or absent = automatic).
void InitGlobalThreadsFromFlags(const Flags& flags);

/// True when called from inside a ParallelFor worker; nested parallel
/// regions execute inline to avoid deadlocking the shared runtime.
bool InParallelRegion();

/// Number of ParallelFor regions currently executing across all threads
/// (includes inline regions). Exposed for tests and diagnostics.
int64_t ParallelRegionsInFlight();

/// Measured cost (ns) of one empty fork/join fan-out at the current thread
/// count: publish + worker wake + chunk claims + completion wait. Measured
/// lazily once per runtime (re-measured after SetGlobalThreads) and used by
/// the cost model as the serial-fallback threshold. Returns 0 when
/// GlobalThreads() == 1 (loops run inline, dispatch is free).
double ParallelDispatchOverheadNs();

namespace detail {

using LoopFn = void (*)(void* ctx, int64_t lo, int64_t hi);

/// Type-erased core. `fn(ctx, lo, hi)` is invoked over a deterministic
/// partition of [begin, end) into chunks of `grain` indices (the last chunk
/// may be short). Runs inline when the range fits one chunk, when
/// GlobalThreads() == 1, when called from inside a parallel region, or when
/// another thread's loop already occupies the task slot. An exception from
/// any chunk is rethrown on the calling thread after all chunks finish.
void ParallelForRangeImpl(int64_t begin, int64_t end, int64_t grain,
                          LoopFn fn, void* ctx);

}  // namespace detail

/// Runs `body(chunk_begin, chunk_end)` over a partition of [begin, end)
/// into chunks of at least `grain` indices. `body` must be safe to invoke
/// concurrently on disjoint chunks. Accepts any callable; no std::function
/// is constructed and nothing is heap-allocated on the dispatch path.
template <typename Body>
void ParallelForRange(int64_t begin, int64_t end, int64_t grain,
                      const Body& body) {
  detail::ParallelForRangeImpl(
      begin, end, grain,
      [](void* ctx, int64_t lo, int64_t hi) {
        (*static_cast<const Body*>(ctx))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(&body)));
}

/// Runs `body(i)` for i in [begin, end), sharded with chunks of `grain`.
template <typename Body>
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const Body& body) {
  ParallelForRange(begin, end, grain, [&body](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) body(i);
  });
}

/// Back-compat overload with an automatic grain: at least a few indices per
/// chunk while still letting every lane claim several chunks for balance.
template <typename Body>
void ParallelFor(int64_t begin, int64_t end, const Body& body) {
  const int64_t count = end - begin;
  const int64_t threads = GlobalThreads();
  const int64_t grain = count / (threads * 4) > 0 ? count / (threads * 4) : 1;
  ParallelFor(begin, end, grain, body);
}

}  // namespace hire

#endif  // HIRE_UTILS_PARALLEL_H_
