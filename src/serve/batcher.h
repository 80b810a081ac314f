#ifndef HIRE_SERVE_BATCHER_H_
#define HIRE_SERVE_BATCHER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/hire_config.h"
#include "core/inference_forward.h"
#include "graph/bipartite_graph.h"
#include "graph/samplers.h"
#include "serve/bounded_queue.h"
#include "serve/context_cache.h"
#include "serve/inference_engine.h"

namespace hire {
namespace serve {

/// Absolute per-request deadline (nullopt = none).
using RequestDeadline = std::optional<std::chrono::steady_clock::time_point>;

struct RatingResponse;

/// Completion callback for the async submit path. Invoked exactly once per
/// request — from the submitting thread when the request resolves during
/// admission (bad request, shed, born expired), otherwise from the batch
/// worker thread — so it must be thread-safe and must not block: the batch
/// worker resolving one request is on every co-batched neighbor's critical
/// path.
using PredictCallback = std::function<void(RatingResponse)>;

/// One immutable published generation of the rating graph. Requests are
/// answered against whichever generation is current when their batch runs;
/// the version is part of the context-cache key. The per-user mean ratings
/// (and the global mean) double as the degraded-mode fallback predictor: a
/// bias-table answer that needs no model forward.
struct VersionedGraph {
  VersionedGraph(graph::BipartiteGraph g, int64_t v);
  graph::BipartiteGraph graph;
  int64_t version;
  std::vector<float> user_mean_rating;  // global mean for unrated users
  float global_mean_rating = 0.0f;
};

/// Request-path stages instrumented per request. Each resolved request
/// records one observation per reached stage into the histogram
/// "serve.stage.<stage>_us.<outcome>", so tail latency can be attributed to
/// admission vs queueing vs batch formation vs the forward vs the response
/// path, separately for every outcome class.
enum class RequestStage : int {
  kAdmission = 0,  // transport parse/validate + Submit bookkeeping
  kQueue,          // admitted -> dequeued by the batch worker
  kBatchForm,      // dequeued -> batch closed (grouping only, no wait)
  kForward,        // context assembly + shared model forward
  kSerialize,      // response JSON rendering (transport)
  kWrite,          // socket write of the rendered response (transport)
};
inline constexpr int kNumRequestStages = 6;

/// Stable lower-case stage name ("admission", "queue", ...).
const char* RequestStageName(RequestStage stage);

/// Per-request wall time spent in each stage, in microseconds. A negative
/// value means the request never reached that stage (e.g. a shed request
/// has only an admission time).
struct StageBreakdown {
  std::array<double, kNumRequestStages> micros;
  StageBreakdown() { micros.fill(-1.0); }
  double& at(RequestStage stage) {
    return micros[static_cast<size_t>(stage)];
  }
  double at(RequestStage stage) const {
    return micros[static_cast<size_t>(stage)];
  }
};

/// Answer for one rating request.
struct RatingResponse {
  bool ok = false;
  std::string error;              // set when !ok
  std::vector<float> predictions; // one per requested item, in request order
  bool degraded = false;          // fallback prediction, not a model forward
  bool cache_hit = false;         // this user's context plan was cached
  int64_t batch_users = 0;        // distinct users sharing the forward
  int64_t model_version = 0;
  int64_t graph_version = 0;
  double latency_us = 0.0;        // enqueue -> completion
  uint64_t request_id = 0;        // process-wide monotonic id
  int shard = 0;                  // engine shard that answered
  StageBreakdown stages;          // per-stage latency attribution
};

/// Terminal accounting state of one request. Every request resolves into
/// exactly one of these; the matching "serve.outcome.*" counter moves once
/// per request, so the five counters partition all traffic.
enum class RequestOutcome {
  kServed,    // model forward answered (200)
  kDegraded,  // fallback prediction answered (200, "degraded":true)
  kShed,      // admission control refused it (503 + Retry-After)
  kExpired,   // its deadline passed before the forward (504)
  kFailed,    // bad request or internal error (400/500)
};

/// Classifies a resolved response (used by the transports so early
/// rejections that never reach the batcher are still accounted).
RequestOutcome ClassifyOutcome(const RatingResponse& response);

/// Bumps the "serve.outcome.*" counter for `outcome` (and the
/// serve.deadline_exceeded alias for kExpired).
void RecordOutcome(RequestOutcome outcome);

/// Stable lower-case outcome name ("served", "degraded", ...), used as the
/// suffix of per-outcome metric names.
const char* RequestOutcomeName(RequestOutcome outcome);

/// Next process-wide request id (1, 2, 3, ...). Ids are assigned at
/// admission and correlate the response, the per-stage metrics, sampled
/// trace spans ("req#<id>/<stage>"), and the slow-request log line.
uint64_t NextServeRequestId();

/// Records one stage observation into
/// "serve.stage.<stage>_us.<outcome>". Handles are resolved once and
/// cached, so the per-record cost is a few relaxed atomics.
void RecordStageLatency(RequestOutcome outcome, RequestStage stage,
                        double micros);

/// Records every stage of `stages` that was reached (micros >= 0).
void RecordStageBreakdown(RequestOutcome outcome,
                          const StageBreakdown& stages);

/// Eagerly registers all stage/outcome histograms (and the overall request
/// latency histogram) so every outcome class is visible in /metrics from
/// boot, before any traffic arrives.
void EnsureServeStageMetrics();

struct BatcherConfig {
  /// Max distinct users coalesced into one shared context (bounded by the
  /// context row budget). 1 = no co-batching: every user gets its own
  /// context and forward.
  int64_t max_batch_users = 8;
  /// Prediction-context dimensions (rows x columns).
  int64_t context_users = 16;
  int64_t context_items = 16;
  /// Share of non-target rows' observed ratings kept visible, matching the
  /// training density (paper test protocol).
  double visible_fraction = 0.1;
  /// Seed for context sampling; predictions are deterministic given
  /// (seed, graph, model).
  uint64_t seed = 7;
  /// Bound of the request queue; TryPush failures surface as 503s.
  size_t queue_capacity = 256;
  /// Default per-request deadline applied at admission when the caller
  /// supplies none (0 = requests never expire).
  int64_t request_deadline_ms = 0;
  /// Admitted-but-unresolved cap. Submissions beyond it are shed with an
  /// "overloaded" response before any work is queued (0 = 2x queue
  /// capacity).
  int64_t max_inflight = 0;
  /// Consecutive batch-forward failures before the circuit breaker opens
  /// and requests are answered with fallback predictions (0 = disabled).
  int64_t breaker_threshold = 3;
  /// How long an open breaker waits before letting one trial batch through
  /// (half-open). A successful trial or a new model version closes it.
  int64_t breaker_cooldown_ms = 1000;
  /// Emit request-correlated trace spans ("req#<id>/queue", ".../forward",
  /// ...) for every Nth request when the tracer is running (0 = never).
  /// Sampling bounds the span volume under load; the per-stage histograms
  /// are unconditional.
  int64_t trace_sample_every = 0;
  /// Requests whose total latency exceeds this budget log one structured
  /// warning line with their full stage breakdown (0 = disabled).
  int64_t slow_request_ms = 0;
  /// Which engine shard this batcher belongs to (stamped into every
  /// response so transports and chaos drills can attribute answers).
  int shard_index = 0;
  /// Metric-name prefix for per-shard counters (e.g. "serve.shard.0.").
  /// When set, every resolved request also bumps
  /// "<prefix>outcome.<outcome>" next to the global "serve.outcome.*"
  /// partition; empty = single-shard metrics only.
  std::string metric_prefix;
};

/// Work-conserving micro-batcher: a bounded MPMC queue feeding one inference
/// worker. A worker that becomes free takes whatever is queued, up to
/// max_batch_users distinct users, and runs it at once; requests that arrive
/// during a forward form the next batch. It never waits for peers, so a
/// lone request on an idle server pays no batching delay, while under load
/// the queue that builds up behind a forward is what gets co-batched. k
/// users sharing a context cost one HIM forward instead of k — the HIRE
/// all-in-one property that makes serving batchable. A single worker drives
/// the published model snapshot, so forwards never race while hot-swap
/// (InferenceEngine::Load) proceeds concurrently.
class MicroBatcher {
 public:
  /// `graph_provider` returns the current graph generation (called once per
  /// batch). All pointers must outlive the batcher.
  MicroBatcher(
      const BatcherConfig& config, InferenceEngine* engine,
      ContextCache* cache, const graph::ContextSampler* sampler,
      std::function<std::shared_ptr<const VersionedGraph>()> graph_provider);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  void Start();
  /// Closes the queue and joins the worker. Already-queued requests are
  /// drained and served; only new submissions are rejected.
  void Stop();

  /// Enqueues a request; `done` is invoked exactly once when it resolves
  /// (see PredictCallback for threading). When admission control sheds it
  /// (queue full or in-flight cap), `done` runs before SubmitAsync returns,
  /// with an "overloaded" error (callers map that to 503); a request whose
  /// deadline has already passed resolves "deadline exceeded" (504).
  /// `deadline` overrides the configured default. It never blocks the
  /// caller on batch formation or the forward, which is what lets the event
  /// loop keep thousands of requests in flight on one thread.
  void SubmitAsync(int64_t user, std::vector<int64_t> items,
                   RequestDeadline deadline, PredictCallback done);

  const BatcherConfig& config() const { return config_; }
  size_t queue_depth() const { return queue_.size(); }
  /// Requests admitted but not yet resolved (queued + being processed).
  int64_t inflight() const { return inflight_.load(); }
  /// True while the circuit breaker answers with fallback predictions.
  bool circuit_open() const { return breaker_open_.load(); }

 private:
  struct PendingRequest {
    int64_t user = 0;
    std::vector<int64_t> items;
    PredictCallback done;
    std::chrono::steady_clock::time_point enqueue_time;
    RequestDeadline deadline;
    bool admitted = false;  // counted in inflight_
    uint64_t request_id = 0;
    bool trace_sampled = false;  // emit req#<id> spans at resolution
    // Stage stamps; a default-constructed (epoch) time_point means the
    // request never reached that point. Durations are derived at Resolve.
    std::chrono::steady_clock::time_point dequeue_time{};
    std::chrono::steady_clock::time_point collected_time{};
    std::chrono::steady_clock::time_point forward_start{};
    std::chrono::steady_clock::time_point forward_end{};
    double admission_us = -1.0;  // stamped when admission completes
  };

  void WorkerLoop();
  std::vector<PendingRequest> CollectBatch(PendingRequest first);
  void ProcessBatch(std::vector<PendingRequest> batch);
  /// Runs one shared context + forward for a group of co-batched requests.
  /// Erases every request it resolves from `group`, so after a throw the
  /// caller can still answer whatever is left unresolved.
  void ProcessGroup(std::vector<PendingRequest>* group,
                    const VersionedGraph& versioned_graph,
                    const ModelSnapshot& snapshot);

  /// Resolves one request: invokes its completion callback, releases its
  /// in-flight slot, and bumps exactly one outcome counter. Every request
  /// ends here.
  void Resolve(PendingRequest* request, RatingResponse response);
  /// Fallback (bias-table) answer for one request; always ok + degraded.
  RatingResponse DegradedResponse(const PendingRequest& request,
                                  const VersionedGraph& versioned_graph,
                                  int64_t model_version) const;
  /// Drops expired requests out of `batch`, resolving each with a
  /// deadline-exceeded error.
  void ExpireOverdue(std::vector<PendingRequest>* batch);

  /// Circuit-breaker bookkeeping (worker thread only, except the atomic
  /// mirror read by circuit_open()).
  bool BreakerAllowsForward(int64_t model_version);
  void BreakerRecordSuccess();
  /// Returns true when this failure leaves the breaker open.
  bool BreakerRecordFailure(int64_t model_version);

  BatcherConfig config_;
  InferenceEngine* engine_;
  /// Scratch for the tape-free fused forward. Touched only by the single
  /// batch worker; holds no snapshot pointers, so it safely outlives model
  /// hot-swaps (see InferenceArena's lifetime rule). After warming up on
  /// the configured context shape, forwards allocate zero heap from it.
  core::InferenceArena arena_;
  ContextCache* cache_;
  const graph::ContextSampler* sampler_;
  std::function<std::shared_ptr<const VersionedGraph>()> graph_provider_;

  BoundedQueue<PendingRequest> queue_;
  std::thread worker_;
  bool started_ = false;

  /// Per-shard outcome counters ("<metric_prefix>outcome.<o>"), resolved
  /// once at construction; all nullptr when no prefix is configured.
  std::array<obs::Counter*, 5> shard_outcome_{};

  std::atomic<int64_t> inflight_{0};

  // Breaker state: consecutive failures, and when open, the model version
  // and time at opening (a new version or an elapsed cooldown lets a trial
  // batch through).
  int64_t breaker_failures_ = 0;
  std::atomic<bool> breaker_open_{false};
  std::chrono::steady_clock::time_point breaker_opened_at_;
  int64_t breaker_version_at_open_ = 0;
};

}  // namespace serve
}  // namespace hire

#endif  // HIRE_SERVE_BATCHER_H_
