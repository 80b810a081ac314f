#ifndef HIRE_SERVE_SHARD_ROUTER_H_
#define HIRE_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hire_config.h"
#include "data/dataset.h"
#include "graph/bipartite_graph.h"
#include "graph/samplers.h"
#include "serve/batcher.h"
#include "serve/context_cache.h"
#include "serve/inference_engine.h"

namespace hire {
namespace serve {

/// Consistent-hash ring mapping user ids onto engine shards. Each shard owns
/// `vnodes_per_shard` virtual nodes placed deterministically on a 64-bit
/// ring; a key belongs to the first vnode clockwise of its hash. Two
/// properties the tests pin:
///   - stable: the same key maps to the same shard for the lifetime of a
///     ring (and across rings built with the same shard count), and
///   - minimal remap: growing an N-shard ring to N+1 moves keys *only onto
///     the new shard* (never between surviving shards), roughly 1/(N+1) of
///     them.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int num_shards, int vnodes_per_shard = 64);

  int ShardForKey(uint64_t key) const;
  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
  /// (ring position, shard) sorted by position.
  std::vector<std::pair<uint64_t, int>> ring_;
};

/// Outcome of one rolling reload across the fleet.
struct RollingReloadResult {
  bool ok = false;                      // every shard swapped
  int64_t version = 0;                  // min published version afterwards
  std::vector<int64_t> shard_versions;  // per-shard published version
  std::vector<std::string> errors;      // "" for shards that swapped cleanly
  int failed_shards = 0;
};

/// ServeConfig lives in server.h; the router only needs the slice below, so
/// it takes the pieces directly and server.h composes them.
struct ShardRouterConfig {
  int num_shards = 1;
  size_t cache_capacity = 1024;  // total across shards, split evenly
  /// Per-shard template: shard index and metric prefix are stamped.
  BatcherConfig batcher;
};

/// N engine shards behind one process: every shard owns its own
/// InferenceEngine (independently hot-swappable snapshot), ContextCache, and
/// MicroBatcher (its own worker thread + bounded queue), plus its own
/// published graph generation pointer. /predict traffic is routed by
/// user-id consistent hashing — the paper's per-user prediction contexts
/// make rating serving embarrassingly partitionable by user — so a user's
/// context plans, cache entries, and co-batched neighbors all live on one
/// shard.
///
/// Metrics: the global "serve.*" counters stay the merged fleet totals
/// (every shard's batcher records into them), and each shard additionally
/// publishes "serve.shard.<i>.routed", "serve.shard.<i>.outcome.*", and
/// "serve.shard.<i>.model_version". Per shard,
///   routed == sum over outcomes of serve.shard.<i>.outcome.*
/// exactly partitions that shard's traffic, mirroring the global invariant.
class ShardRouter {
 public:
  /// `dataset` must outlive the router. `graph` becomes generation 1 on
  /// every shard (shards share the immutable generation object).
  ShardRouter(const data::Dataset* dataset, core::HireConfig model_config,
              graph::BipartiteGraph graph, const ShardRouterConfig& config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts every shard's batch worker (and stops them). Start does not load
  /// a model; call RollingReload for that.
  void Start();
  void Stop();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardForUser(int64_t user) const;

  /// Validates ids against the owning shard's current graph generation and
  /// submits to that shard's batcher; `done` fires exactly once when the
  /// request resolves (see PredictCallback for threading). Early rejections
  /// are accounted against both the global and the shard's outcome
  /// partition, exactly once, and invoke `done` before SubmitAsync returns.
  void SubmitAsync(int64_t user, std::vector<int64_t> items,
                   RequestDeadline deadline, PredictCallback done);

  /// Rolling hot-swap: loads `snapshot_path` into one shard at a time, in
  /// shard order. Each shard's swap is an atomic snapshot-pointer publish —
  /// batches that already Acquire()d the old snapshot drain on it, so no
  /// request ever fails because of the roll. A shard whose load throws
  /// (missing/corrupt file) keeps its previous snapshot and is reported in
  /// the result; the roll still proceeds to the remaining shards so one sick
  /// shard never blocks the rest of the fleet.
  RollingReloadResult RollingReload(const std::string& snapshot_path);

  /// Publishes a new rating-graph generation, rolling across shards: each
  /// shard's graph pointer is swapped and its context cache dropped before
  /// the next shard is touched. The bumped version keys every cache entry,
  /// so a plan built against an old generation can never be served.
  void UpdateGraph(graph::BipartiteGraph graph);

  /// Fleet-wide views (conservative: min version, any-shard circuit open).
  int64_t min_model_version() const;
  int64_t graph_version() const;
  bool all_loaded() const;
  bool any_circuit_open() const;
  int64_t total_inflight() const;
  int64_t total_queue_depth() const;
  std::vector<int64_t> ShardModelVersions() const;

  /// One shard's context cache (tests check per-shard isolation).
  ContextCache& cache(int shard) { return *shards_[shard]->cache; }

 private:
  struct EngineShard {
    int index = 0;
    std::unique_ptr<InferenceEngine> engine;
    std::unique_ptr<ContextCache> cache;
    std::unique_ptr<MicroBatcher> batcher;
    mutable std::mutex graph_mutex;
    std::shared_ptr<const VersionedGraph> graph;
    obs::Counter* routed = nullptr;       // serve.shard.<i>.routed
    obs::Gauge* model_version = nullptr;  // serve.shard.<i>.model_version
  };

  /// Loads one shard, honoring the shard-scoped corrupt-reload fault (which
  /// corrupts a private copy so other shards still read the intact file).
  void LoadShard(EngineShard& shard, const std::string& snapshot_path);

  const data::Dataset* dataset_;
  core::HireConfig model_config_;
  graph::NeighborhoodSampler sampler_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  bool started_ = false;
};

}  // namespace serve
}  // namespace hire

#endif  // HIRE_SERVE_SHARD_ROUTER_H_
