#ifndef HIRE_SERVE_SERVER_H_
#define HIRE_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/hire_config.h"
#include "data/dataset.h"
#include "graph/bipartite_graph.h"
#include "serve/batcher.h"
#include "serve/bounded_queue.h"
#include "serve/event_loop.h"
#include "serve/shard_router.h"

namespace hire {
namespace serve {

struct ServeConfig {
  /// HTTP listen port; 0 picks an ephemeral port (read back via port()).
  int port = 0;
  /// Engine shards behind this server. Each shard owns its own
  /// InferenceEngine + ContextCache + MicroBatcher; /predict routes by
  /// user-id consistent hashing (see serve/shard_router.h).
  int num_shards = 1;
  /// Upper bound on concurrently open HTTP connections; accepts past the
  /// bound are answered 503 + Retry-After at accept time. 0 = unbounded.
  int max_connections = 0;
  /// Context-plan LRU capacity (total entries, split across shards).
  size_t cache_capacity = 1024;
  /// Initial HIRESNAP checkpoint to publish; also the default for /reload
  /// requests that name no model. Empty = boot with no model and serve
  /// degraded (bias-table) predictions until a /reload publishes one.
  std::string model_path;
  /// Connection hygiene (slow-loris defense); see HttpServerOptions.
  int idle_timeout_ms = 5000;
  int header_timeout_ms = 2000;
  BatcherConfig batcher;
};

/// The assembled serving stack: a ShardRouter (N engine shards, each its own
/// hot-swappable InferenceEngine + ContextCache + MicroBatcher) behind one
/// HttpEventLoop. Every route runs inline on the loop thread except the
/// rolling reload, whose time grows with the model: /reload queues its work
/// on one reload thread, so reloads run one at a time, in arrival order,
/// while the loop keeps serving.
///
/// Endpoints:
///   POST /predict  {"user":u,"items":[i,...]} -> predictions (+"shard")
///   GET  /healthz  liveness + published versions (+"shard_versions")
///   GET  /metrics  full obs::MetricsRegistry snapshot (JSON), including the
///                  per-shard serve.shard.<i>.* series
///   POST /reload   {"model":path}? -> rolling hot-swap, one shard at a time
///   POST /shutdown graceful stop (the CLI main loop watches
///                  WaitForShutdown)
class RatingServer {
 public:
  /// `dataset` must outlive the server. `graph` is the initial rating-graph
  /// generation (version 1).
  RatingServer(const data::Dataset* dataset, core::HireConfig model_config,
               graph::BipartiteGraph graph, const ServeConfig& config);
  ~RatingServer();

  RatingServer(const RatingServer&) = delete;
  RatingServer& operator=(const RatingServer&) = delete;

  /// Loads config.model_path into every shard (when set), then starts the
  /// shard batcher workers, the reload thread and the HTTP listener. Throws
  /// hire::CheckError on load/bind failure.
  void Start();
  /// Stops the listener (answering requests in flight), lets queued reloads
  /// finish and joins the reload thread, then stops the shards.
  void Stop();

  int port() const { return http_.port(); }

  /// Rolling hot-swap to `snapshot_path` (empty = config.model_path), one
  /// shard at a time. Returns the new (min) model version. Throws when any
  /// shard rejected the snapshot (missing file, corrupt HIRESNAP); shards
  /// that already swapped keep the new snapshot, the failed ones keep their
  /// previous one serving.
  int64_t Reload(const std::string& snapshot_path);

  /// Like Reload but never throws: the full per-shard outcome, for the
  /// /reload endpoint's response body.
  RollingReloadResult ReloadDetailed(const std::string& snapshot_path);

  /// Publishes a new rating-graph generation to every shard: bumps the graph
  /// version (so cached context plans can never be served against the old
  /// graph) and eagerly drops each shard's cache.
  void UpdateGraph(graph::BipartiteGraph graph);
  int64_t graph_version() const;

  /// Signals the serving main loop to exit (POST /shutdown does this).
  void RequestShutdown();
  /// Waits up to `timeout_ms` for a shutdown request; true once requested.
  bool WaitForShutdown(int timeout_ms);

  /// The in-process request path (SubmitAsync), same semantics as POST
  /// /predict with no HTTP hop.
  ShardRouter& router() { return router_; }
  int num_shards() const { return router_.num_shards(); }

  /// Seconds since this server was constructed.
  double UptimeSeconds() const;

 private:
  /// One queued /reload: the snapshot to roll ("" = config.model_path) and
  /// the request's completion.
  struct ReloadJob {
    std::string path;
    HttpDone done;
  };

  HttpRoutes Routes();
  /// Runs one rolling reload and renders the /reload reply.
  HttpResponse ReloadReply(const std::string& snapshot_path);
  void ReloadLoop();
  /// Refreshes the point-in-time gauges every snapshot should carry
  /// (uptime, published versions), then returns a registry snapshot.
  obs::MetricsRegistry::Snapshot TakeMetricsSnapshot();

  const ServeConfig config_;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  ShardRouter router_;
  HttpEventLoop http_;

  /// /reload work, fed by the loop thread and drained by reload_thread_.
  /// Recreated by every Start() because a closed queue stays closed.
  std::unique_ptr<BoundedQueue<ReloadJob>> reload_queue_;
  std::thread reload_thread_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;
};

}  // namespace serve
}  // namespace hire

#endif  // HIRE_SERVE_SERVER_H_
