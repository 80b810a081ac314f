#include "serve/shard_router.h"

#include <algorithm>
#include <filesystem>

#include "obs/metrics.h"
#include "utils/check.h"
#include "utils/fault_injection.h"
#include "utils/logging.h"

namespace hire {
namespace serve {

namespace {

/// SplitMix64 finalizer: the same mix for keys and vnode positions, so the
/// ring layout is deterministic across processes (a user maps to the same
/// shard on every boot with the same shard count).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A shard's vnode positions depend only on (shard, replica) — never on the
/// ring's shard count — which is what makes growing the ring move keys only
/// onto the new shard.
uint64_t VnodePosition(int shard, int replica) {
  return Mix64((static_cast<uint64_t>(shard) << 20) |
               static_cast<uint64_t>(replica));
}

}  // namespace

ConsistentHashRing::ConsistentHashRing(int num_shards, int vnodes_per_shard)
    : num_shards_(num_shards) {
  HIRE_CHECK_GT(num_shards, 0);
  HIRE_CHECK_GT(vnodes_per_shard, 0);
  ring_.reserve(static_cast<size_t>(num_shards) *
                static_cast<size_t>(vnodes_per_shard));
  for (int shard = 0; shard < num_shards; ++shard) {
    for (int replica = 0; replica < vnodes_per_shard; ++replica) {
      ring_.emplace_back(VnodePosition(shard, replica), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ConsistentHashRing::ShardForKey(uint64_t key) const {
  const uint64_t position = Mix64(key);
  // First vnode clockwise of the key's position; wrap to the ring start.
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), position,
      [](uint64_t value, const std::pair<uint64_t, int>& node) {
        return value < node.first;
      });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

ShardRouter::ShardRouter(const data::Dataset* dataset,
                         core::HireConfig model_config,
                         graph::BipartiteGraph graph,
                         const ShardRouterConfig& config)
    : dataset_(dataset),
      model_config_(model_config),
      ring_(config.num_shards) {
  HIRE_CHECK(dataset != nullptr);
  HIRE_CHECK_GT(config.num_shards, 0);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve.shards")
      ->Set(static_cast<double>(config.num_shards));

  // All shards publish the same immutable generation object; per-shard
  // pointers exist so graph updates can roll shard by shard.
  const auto initial = std::make_shared<const VersionedGraph>(
      std::move(graph), /*version=*/1);
  const size_t per_shard_cache = std::max<size_t>(
      1, config.cache_capacity / static_cast<size_t>(config.num_shards));

  shards_.reserve(static_cast<size_t>(config.num_shards));
  for (int i = 0; i < config.num_shards; ++i) {
    auto shard = std::make_unique<EngineShard>();
    shard->index = i;
    shard->graph = initial;
    shard->engine = std::make_unique<InferenceEngine>(dataset_, model_config_);
    shard->cache = std::make_unique<ContextCache>(per_shard_cache);
    const std::string prefix = "serve.shard." + std::to_string(i) + ".";
    BatcherConfig batcher_config = config.batcher;
    batcher_config.shard_index = i;
    batcher_config.metric_prefix = prefix;
    EngineShard* raw = shard.get();
    shard->batcher = std::make_unique<MicroBatcher>(
        batcher_config, shard->engine.get(), shard->cache.get(), &sampler_,
        [raw] {
          std::lock_guard<std::mutex> lock(raw->graph_mutex);
          return raw->graph;
        });
    // Eagerly register the per-shard series so /metrics shows the whole
    // fleet (zeros included) from boot.
    shard->routed = registry.GetCounter(prefix + "routed");
    shard->model_version = registry.GetGauge(prefix + "model_version");
    shard->model_version->Set(0.0);
    shards_.push_back(std::move(shard));
  }
}

ShardRouter::~ShardRouter() { Stop(); }

void ShardRouter::Start() {
  HIRE_CHECK(!started_) << "shard router already started";
  for (auto& shard : shards_) shard->batcher->Start();
  started_ = true;
}

void ShardRouter::Stop() {
  if (!started_) return;
  for (auto& shard : shards_) shard->batcher->Stop();
  started_ = false;
}

int ShardRouter::ShardForUser(int64_t user) const {
  return ring_.ShardForKey(static_cast<uint64_t>(user));
}

void ShardRouter::SubmitAsync(int64_t user, std::vector<int64_t> items,
                              RequestDeadline deadline, PredictCallback done) {
  EngineShard& shard = *shards_[static_cast<size_t>(ShardForUser(user))];
  shard.routed->Increment();

  // Bounds-check against the shard's current entity universe up front: the
  // context assembler indexes attribute tables by id and must never see an
  // out-of-range one.
  int64_t num_users = 0;
  int64_t num_items = 0;
  {
    std::lock_guard<std::mutex> lock(shard.graph_mutex);
    num_users = shard.graph->graph.num_users();
    num_items = shard.graph->graph.num_items();
  }
  std::string error;
  if (user < 0 || user >= num_users) {
    error = "bad request: user " + std::to_string(user) + " outside [0, " +
            std::to_string(num_users) + ")";
  } else {
    for (int64_t item : items) {
      if (item < 0 || item >= num_items) {
        error = "bad request: item " + std::to_string(item) +
                " outside [0, " + std::to_string(num_items) + ")";
        break;
      }
    }
  }
  if (!error.empty()) {
    // Rejected before the shard's batcher ever saw it, so account the
    // outcome here — in both the global partition and the shard's.
    RatingResponse response;
    response.ok = false;
    response.error = std::move(error);
    response.shard = shard.index;
    RecordOutcome(ClassifyOutcome(response));
    obs::MetricsRegistry::Global()
        .GetCounter("serve.shard." + std::to_string(shard.index) +
                    ".outcome.failed")
        ->Increment();
    done(std::move(response));
    return;
  }
  shard.batcher->SubmitAsync(user, std::move(items), deadline,
                             std::move(done));
}

void ShardRouter::LoadShard(EngineShard& shard,
                            const std::string& snapshot_path) {
  if (FaultInjector::Global().ConsumeServeCorruptReloadShard(shard.index)) {
    // Corrupt a private copy so the remaining shards still read the intact
    // snapshot — the fault is scoped to exactly this shard.
    const std::string corrupt_path = snapshot_path + ".shard" +
                                     std::to_string(shard.index) + ".corrupt";
    std::filesystem::copy_file(
        snapshot_path, corrupt_path,
        std::filesystem::copy_options::overwrite_existing);
    FlipFileBit(corrupt_path, FileSize(corrupt_path) / 2, 2);
    try {
      shard.engine->Load(corrupt_path);
    } catch (...) {
      std::error_code ignored;
      std::filesystem::remove(corrupt_path, ignored);
      throw;
    }
    std::error_code ignored;
    std::filesystem::remove(corrupt_path, ignored);
    return;
  }
  shard.engine->Load(snapshot_path);
}

RollingReloadResult ShardRouter::RollingReload(
    const std::string& snapshot_path) {
  HIRE_CHECK(!snapshot_path.empty()) << "no model path to reload";
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("serve.reload.rolls")->Increment();

  RollingReloadResult result;
  result.shard_versions.resize(shards_.size(), 0);
  result.errors.resize(shards_.size());
  // Strictly one shard at a time: shard i+1 is not touched until shard i's
  // swap published. The swap itself is InferenceEngine::Load's atomic
  // pointer publish — in-flight batches that Acquire()d the old snapshot
  // drain on it, so the roll never fails a request. A shard that rejects
  // the snapshot keeps serving its old one (or stays degraded) and the roll
  // continues: one sick shard must not stop the fleet.
  for (size_t i = 0; i < shards_.size(); ++i) {
    EngineShard& shard = *shards_[i];
    try {
      LoadShard(shard, snapshot_path);
    } catch (const std::exception& error) {
      result.errors[i] = error.what();
      ++result.failed_shards;
      registry.GetCounter("serve.reload.shard_failures")->Increment();
      HIRE_LOG(Warning) << "rolling reload: shard " << i
                        << " rejected snapshot '" << snapshot_path
                        << "': " << error.what();
    }
    result.shard_versions[i] = shard.engine->version();
    shard.model_version->Set(static_cast<double>(result.shard_versions[i]));
  }
  result.ok = result.failed_shards == 0;
  result.version = min_model_version();
  HIRE_LOG(Info) << "rolling reload of '" << snapshot_path << "' across "
                 << shards_.size() << " shard(s): "
                 << (shards_.size() - result.failed_shards) << " swapped, "
                 << result.failed_shards << " failed";
  return result;
}

void ShardRouter::UpdateGraph(graph::BipartiteGraph graph) {
  const auto next = std::make_shared<const VersionedGraph>(
      std::move(graph), graph_version() + 1);
  // Rolling publish: each shard's pointer swap + cache drop completes before
  // the next shard is touched. The version is part of every cache key, so a
  // plan built against the old generation can never be served even in the
  // window where shards disagree.
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->graph_mutex);
      shard->graph = next;
    }
    shard->cache->InvalidateAll();
  }
  obs::MetricsRegistry::Global().GetCounter("serve.graph_updates")->Increment();
  HIRE_LOG(Info) << "published graph v" << next->version << " to "
                 << shards_.size() << " shard(s)";
}

int64_t ShardRouter::min_model_version() const {
  int64_t min_version = shards_.front()->engine->version();
  for (const auto& shard : shards_) {
    min_version = std::min(min_version, shard->engine->version());
  }
  return min_version;
}

int64_t ShardRouter::graph_version() const {
  const EngineShard& shard = *shards_.front();
  std::lock_guard<std::mutex> lock(shard.graph_mutex);
  return shard.graph->version;
}

bool ShardRouter::all_loaded() const {
  for (const auto& shard : shards_) {
    if (!shard->engine->loaded()) return false;
  }
  return true;
}

bool ShardRouter::any_circuit_open() const {
  for (const auto& shard : shards_) {
    if (shard->batcher->circuit_open()) return true;
  }
  return false;
}

int64_t ShardRouter::total_inflight() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->batcher->inflight();
  return total;
}

int64_t ShardRouter::total_queue_depth() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += static_cast<int64_t>(shard->batcher->queue_depth());
  }
  return total;
}

std::vector<int64_t> ShardRouter::ShardModelVersions() const {
  std::vector<int64_t> versions;
  versions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    versions.push_back(shard->engine->version());
  }
  return versions;
}

}  // namespace serve
}  // namespace hire
