#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/inference_forward.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/context_builder.h"
#include "nn/serialize.h"
#include "tensor/random.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "graph/samplers.h"
#include "utils/logging.h"
#include "serve/batcher.h"
#include "serve/bounded_queue.h"
#include "serve/context_cache.h"
#include "serve/http_client.h"
#include "serve/inference_engine.h"
#include "serve/server.h"
#include "utils/check.h"
#include "utils/fault_injection.h"

namespace hire {
namespace serve {
namespace {

data::Dataset SmallDataset(uint64_t seed = 1) {
  data::SyntheticConfig config;
  config.num_users = 64;
  config.num_items = 64;
  config.num_ratings = 1200;
  config.user_schema = {{"age", 4}, {"gender", 2}};
  config.item_schema = {{"genre", 5}};
  return data::GenerateSyntheticDataset(config, seed);
}

core::HireConfig SmallConfig() {
  core::HireConfig config;
  config.num_him_blocks = 2;
  config.num_heads = 2;
  config.head_dim = 4;
  config.attr_embed_dim = 4;
  return config;
}

/// Writes an (untrained) model snapshot for the given seed and returns its
/// path. Serving correctness does not depend on training quality.
std::string WriteModelSnapshot(const data::Dataset& dataset, uint64_t seed,
                               const std::string& name) {
  core::HireModel model(&dataset, SmallConfig(), seed);
  const std::string path = testing::TempDir() + "/" + name;
  nn::SaveParameters(model, path);
  return path;
}

ServeConfig SmallServeConfig(const std::string& model_path,
                             int64_t batch_window_us = 2000) {
  ServeConfig config;
  config.port = 0;  // ephemeral
  config.http_threads = 2;
  config.cache_capacity = 64;
  config.model_path = model_path;
  config.batcher.batch_window_us = batch_window_us;
  config.batcher.max_batch_users = 4;
  config.batcher.context_users = 8;
  config.batcher.context_items = 8;
  config.batcher.seed = 11;
  config.batcher.queue_capacity = 128;
  return config;
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrderAndCapacityBound) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3)) << "push beyond capacity must fail";
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(BoundedQueueTest, FailedPushLeavesTheItemIntact) {
  BoundedQueue<std::unique_ptr<int>> queue(1);
  ASSERT_TRUE(queue.TryPush(std::make_unique<int>(1)));
  auto rejected = std::make_unique<int>(2);
  EXPECT_FALSE(queue.TryPush(std::move(rejected)));
  ASSERT_NE(rejected, nullptr)
      << "a push rejected for capacity must not move from the item";
  EXPECT_EQ(*rejected, 2);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(std::move(rejected)));
  EXPECT_NE(rejected, nullptr)
      << "a push rejected after Close must not move from the item";
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsShutdown) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8)) << "pushes after Close must fail";
  EXPECT_EQ(queue.Pop().value(), 7) << "queued items drain after Close";
  EXPECT_FALSE(queue.Pop().has_value()) << "drained+closed pops nullopt";
}

TEST(BoundedQueueTest, PopUntilTimesOutAndCloseWakesBlockedPop) {
  BoundedQueue<int> queue(4);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      queue.PopUntil(start + std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));

  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Close();
  });
  EXPECT_FALSE(queue.Pop().has_value()) << "Close must wake a blocked Pop";
  closer.join();
}

// ---------------------------------------------------------------------------
// ContextCache
// ---------------------------------------------------------------------------

std::shared_ptr<const core::UserContextPlan> FakePlan(int64_t user) {
  auto plan = std::make_shared<core::UserContextPlan>();
  plan->user = user;
  plan->context_users = {user};
  return plan;
}

TEST(ContextCacheTest, HitMissAndLruEviction) {
  ContextCache cache(2);
  EXPECT_EQ(cache.Get(1, 1), nullptr);
  cache.Put(1, 1, FakePlan(1));
  cache.Put(2, 1, FakePlan(2));
  EXPECT_NE(cache.Get(1, 1), nullptr);  // 1 is now most recently used
  cache.Put(3, 1, FakePlan(3));         // evicts 2, the LRU entry
  EXPECT_EQ(cache.Get(2, 1), nullptr);
  EXPECT_NE(cache.Get(1, 1), nullptr);
  EXPECT_NE(cache.Get(3, 1), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ContextCacheTest, GraphVersionIsPartOfTheKey) {
  ContextCache cache(4);
  cache.Put(1, 1, FakePlan(1));
  EXPECT_EQ(cache.Get(1, 2), nullptr)
      << "a plan for graph v1 must not serve graph v2";
  EXPECT_NE(cache.Get(1, 1), nullptr);
}

TEST(ContextCacheTest, InvalidationDropsEntries) {
  ContextCache cache(8);
  cache.Put(1, 1, FakePlan(1));
  cache.Put(1, 2, FakePlan(1));
  cache.Put(2, 1, FakePlan(2));
  cache.InvalidateUser(1);
  EXPECT_EQ(cache.Get(1, 1), nullptr);
  EXPECT_EQ(cache.Get(1, 2), nullptr);
  EXPECT_NE(cache.Get(2, 1), nullptr);
  cache.InvalidateAll();
  EXPECT_EQ(cache.Get(2, 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ContextCacheTest, CountersTrackHitsAndMisses) {
  auto& registry = obs::MetricsRegistry::Global();
  const auto before = registry.Take();
  ContextCache cache(4);
  cache.Get(5, 1);            // miss
  cache.Put(5, 1, FakePlan(5));
  cache.Get(5, 1);            // hit
  cache.Get(6, 1);            // miss
  const auto delta = registry.Take().Delta(before);
  EXPECT_EQ(delta.counters.at("serve.context_cache.hits"), 1u);
  EXPECT_EQ(delta.counters.at("serve.context_cache.misses"), 2u);
}

// ---------------------------------------------------------------------------
// InferenceEngine
// ---------------------------------------------------------------------------

TEST(InferenceEngineTest, LoadPublishesAndVersionsSnapshots) {
  const data::Dataset dataset = SmallDataset(40);
  const std::string path_a = WriteModelSnapshot(dataset, 41, "engine_a.snap");
  const std::string path_b = WriteModelSnapshot(dataset, 42, "engine_b.snap");

  InferenceEngine engine(&dataset, SmallConfig());
  EXPECT_FALSE(engine.loaded());
  EXPECT_EQ(engine.Acquire(), nullptr);

  EXPECT_EQ(engine.Load(path_a), 1);
  auto held = engine.Acquire();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->version, 1);
  EXPECT_EQ(held->source_path, path_a);

  // Hot-swap: the old snapshot stays valid for holders of the old pointer.
  EXPECT_EQ(engine.Load(path_b), 2);
  EXPECT_EQ(held->version, 1) << "an acquired snapshot must stay immutable";
  EXPECT_EQ(engine.Acquire()->version, 2);
  EXPECT_EQ(engine.version(), 2);
}

TEST(InferenceEngineTest, FailedLoadKeepsPublishedSnapshot) {
  const data::Dataset dataset = SmallDataset(43);
  const std::string path = WriteModelSnapshot(dataset, 44, "engine_c.snap");
  InferenceEngine engine(&dataset, SmallConfig());
  ASSERT_EQ(engine.Load(path), 1);
  EXPECT_THROW(engine.Load(testing::TempDir() + "/does_not_exist.snap"),
               CheckError);
  ASSERT_TRUE(engine.loaded());
  EXPECT_EQ(engine.Acquire()->version, 1);
}

// ---------------------------------------------------------------------------
// MicroBatcher
// ---------------------------------------------------------------------------

TEST(MicroBatcherTest, OverloadResolvesTheFutureWithAnOverloadedError) {
  const data::Dataset dataset = SmallDataset(70);
  InferenceEngine engine(&dataset, SmallConfig());  // overload fires first,
                                                    // so no model is needed
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  BatcherConfig config;
  config.batch_window_us = 0;
  config.queue_capacity = 1;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned, released] {
                         released.wait();  // park the worker so the queue
                                           // fills up behind it
                         return versioned;
                       });
  batcher.Start();

  // The worker pops this request, then parks in the graph provider. Once
  // the queue is empty the worker cannot pop again until released.
  std::future<RatingResponse> parked = batcher.Submit(3, {1});
  while (batcher.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Fills the capacity-1 queue.
  std::future<RatingResponse> queued = batcher.Submit(4, {1});
  // Overflows: the future must come back already resolved as overloaded —
  // not broken, and not an internal error.
  std::future<RatingResponse> rejected = batcher.Submit(5, {1});
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const RatingResponse response = rejected.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("overloaded", 0), 0u) << response.error;

  release.set_value();
  // The surviving requests resolve as degraded fallback predictions: with
  // no model published the batcher answers from the graph's bias tables
  // instead of erroring.
  const RatingResponse parked_response = parked.get();
  EXPECT_TRUE(parked_response.ok) << parked_response.error;
  EXPECT_TRUE(parked_response.degraded);
  const RatingResponse queued_response = queued.get();
  EXPECT_TRUE(queued_response.ok) << queued_response.error;
  EXPECT_TRUE(queued_response.degraded);
  batcher.Stop();
}

TEST(MicroBatcherTest, RequestsBornExpiredResolveWithDeadlineExceeded) {
  const data::Dataset dataset = SmallDataset(73);
  InferenceEngine engine(&dataset, SmallConfig());
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);
  BatcherConfig config;
  config.batch_window_us = 0;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned] { return versioned; });
  batcher.Start();

  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(5);
  std::future<RatingResponse> expired = batcher.Submit(3, {1}, past);
  ASSERT_EQ(expired.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "an already-expired request must resolve at admission";
  const RatingResponse response = expired.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("deadline exceeded", 0), 0u)
      << response.error;
  batcher.Stop();
}

TEST(MicroBatcherTest, DeadlinesExpireWhileQueuedBehindASlowBatch) {
  const data::Dataset dataset = SmallDataset(74);
  InferenceEngine engine(&dataset, SmallConfig());
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> parked_once{false};
  BatcherConfig config;
  config.batch_window_us = 0;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned, released, &parked_once] {
                         if (!parked_once.exchange(true)) released.wait();
                         return versioned;
                       });
  batcher.Start();

  // The first request parks the worker; the second waits in the queue until
  // its deadline has passed, so the dequeue-time check must expire it.
  std::future<RatingResponse> parked = batcher.Submit(3, {1});
  while (batcher.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<RatingResponse> queued = batcher.Submit(
      4, {1},
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  release.set_value();

  EXPECT_TRUE(parked.get().ok);
  const RatingResponse expired = queued.get();
  EXPECT_FALSE(expired.ok);
  EXPECT_EQ(expired.error.rfind("deadline exceeded", 0), 0u)
      << expired.error;
  batcher.Stop();
}

TEST(MicroBatcherTest, InflightCapShedsBeforeQueueing) {
  const data::Dataset dataset = SmallDataset(75);
  InferenceEngine engine(&dataset, SmallConfig());
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  BatcherConfig config;
  config.batch_window_us = 0;
  config.max_inflight = 1;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned, released] {
                         released.wait();
                         return versioned;
                       });
  batcher.Start();

  std::future<RatingResponse> admitted = batcher.Submit(3, {1});
  EXPECT_EQ(batcher.inflight(), 1);
  std::future<RatingResponse> shed = batcher.Submit(4, {1});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const RatingResponse response = shed.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("overloaded", 0), 0u) << response.error;

  release.set_value();
  EXPECT_TRUE(admitted.get().ok);
  EXPECT_EQ(batcher.inflight(), 0);
  batcher.Stop();
}

TEST(MicroBatcherTest, NoModelServesUserMeanFallbackAndRecoversOnLoad) {
  const data::Dataset dataset = SmallDataset(76);
  const std::string model = WriteModelSnapshot(dataset, 77, "degrade.snap");
  InferenceEngine engine(&dataset, SmallConfig());  // nothing loaded yet
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  BatcherConfig config;
  config.batch_window_us = 0;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned] { return versioned; });
  batcher.Start();

  const RatingResponse degraded = batcher.Submit(3, {1, 2}).get();
  ASSERT_TRUE(degraded.ok) << degraded.error;
  EXPECT_TRUE(degraded.degraded);
  ASSERT_EQ(degraded.predictions.size(), 2u);
  // The fallback is the user's mean observed rating (or the global mean for
  // unrated users), repeated for every queried item.
  const float expected = versioned->user_mean_rating[3];
  EXPECT_EQ(degraded.predictions[0], expected);
  EXPECT_EQ(degraded.predictions[1], expected);
  EXPECT_GT(versioned->global_mean_rating, 0.0f);

  // Recovery is automatic: publishing a snapshot routes the next batch back
  // through the model.
  engine.Load(model);
  const RatingResponse recovered = batcher.Submit(3, {1, 2}).get();
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.model_version, 1);
  batcher.Stop();
}

TEST(MicroBatcherTest, CircuitBreakerOpensOnRepeatedFailuresAndRecovers) {
  const data::Dataset dataset = SmallDataset(78);
  const std::string model_a = WriteModelSnapshot(dataset, 79, "brk_a.snap");
  const std::string model_b = WriteModelSnapshot(dataset, 80, "brk_b.snap");
  InferenceEngine engine(&dataset, SmallConfig());
  engine.Load(model_a);
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  BatcherConfig config;
  config.batch_window_us = 0;
  config.breaker_threshold = 2;
  config.breaker_cooldown_ms = 60000;  // no half-open trial during the test
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned] { return versioned; });
  batcher.Start();

  FaultInjector::Global().ArmServeFailForward(2);
  // First failure: below the threshold, surfaces as an internal error.
  const RatingResponse first = batcher.Submit(3, {1}).get();
  EXPECT_FALSE(first.ok);
  EXPECT_FALSE(batcher.circuit_open());
  // Second consecutive failure trips the breaker; the failing request is
  // already answered with the fallback instead of a second error.
  const RatingResponse second = batcher.Submit(4, {1}).get();
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.degraded);
  EXPECT_TRUE(batcher.circuit_open());
  // While open, requests never reach the (now healthy) model.
  const RatingResponse third = batcher.Submit(5, {1}).get();
  EXPECT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(third.degraded);

  // A newly published snapshot closes the breaker immediately.
  engine.Load(model_b);
  const RatingResponse recovered = batcher.Submit(6, {1}).get();
  EXPECT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.model_version, 2);
  EXPECT_FALSE(batcher.circuit_open());

  FaultInjector::Global().Reset();
  batcher.Stop();
}

TEST(MicroBatcherTest, OutcomeCountersPartitionAllTraffic) {
  const data::Dataset dataset = SmallDataset(81);
  const std::string model = WriteModelSnapshot(dataset, 82, "acct.snap");
  InferenceEngine engine(&dataset, SmallConfig());
  engine.Load(model);
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);
  BatcherConfig config;
  config.batch_window_us = 0;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned] { return versioned; });
  batcher.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  batcher.Submit(3, {1, 2}).get();                       // served
  batcher.Submit(4, {}).get();                           // failed (bad req)
  batcher.Submit(5, {1},                                 // expired
                 std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1)).get();
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  auto counter = [&delta](const std::string& name) -> uint64_t {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("serve.outcome.served"), 1u);
  EXPECT_EQ(counter("serve.outcome.failed"), 1u);
  EXPECT_EQ(counter("serve.outcome.expired"), 1u);
  EXPECT_EQ(counter("serve.outcome.shed"), 0u);
  EXPECT_EQ(counter("serve.outcome.degraded"), 0u);
  EXPECT_EQ(counter("serve.deadline_exceeded"), 1u)
      << "the 504 alias counter must track expired requests";
  batcher.Stop();
}

TEST(InferenceEngineTest, FusedSnapshotMatchesTapeModelOnBatchShapes) {
  const data::Dataset dataset = SmallDataset(31);
  InferenceEngine engine(&dataset, SmallConfig());
  engine.Load(WriteModelSnapshot(dataset, 33, "fused_eq.snap"));
  const auto snapshot = engine.Acquire();
  ASSERT_NE(snapshot->inference, nullptr)
      << "Load must pack the fused inference weights";

  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  core::InferenceArena arena;
  // Shapes the micro-batcher actually runs, including the default
  // BatcherConfig context (16 x 16) used by /predict.
  for (const auto& [n, m] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 8}, {4, 8}, {16, 16}, {16, 32}}) {
    Rng rng(200 + n + m);
    graph::PredictionContext context =
        graph::BuildTrainingContext(graph, sampler, n, m, 0.3, &rng);
    const Tensor tape = snapshot->model->Predict(context);
    const Tensor& fused = snapshot->inference->Predict(context, &arena);
    ASSERT_TRUE(fused.SameShape(tape));
    for (int64_t i = 0; i < fused.size(); ++i) {
      ASSERT_NEAR(fused.flat(i), tape.flat(i), 1e-5f)
          << "n=" << n << " m=" << m << " flat index " << i;
    }
  }
}

TEST(InferenceEngineTest, PacksOncePerLoadNeverPerRequest) {
  const data::Dataset dataset = SmallDataset(35);
  const std::string model_a = WriteModelSnapshot(dataset, 36, "pack_a.snap");
  const std::string model_b = WriteModelSnapshot(dataset, 37, "pack_b.snap");
  InferenceEngine engine(&dataset, SmallConfig());
  ContextCache cache(8);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  const auto before = obs::MetricsRegistry::Global().Take();
  engine.Load(model_a);
  engine.Load(model_b);  // hot-swap: second pack

  BatcherConfig config;
  config.batch_window_us = 0;
  config.context_users = 8;
  config.context_items = 8;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned] { return versioned; });
  batcher.Start();
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    const RatingResponse response =
        batcher.Submit(1 + i % 5, {1, 2, 3}).get();
    ASSERT_TRUE(response.ok) << response.error;
  }
  batcher.Stop();

  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  auto histogram_count = [&delta](const std::string& name) -> uint64_t {
    const auto it = delta.histograms.find(name);
    return it == delta.histograms.end() ? 0 : it->second.count;
  };
  // Packing happened exactly once per Load while the forward-stage
  // histogram shows every request ran a model forward — i.e. no request
  // ever paid for weight packing.
  EXPECT_EQ(histogram_count("serve.snapshot.pack_us"), 2u);
  EXPECT_EQ(histogram_count("serve.stage.forward_us.served"),
            static_cast<uint64_t>(kRequests));
}

TEST(MicroBatcherTest, BatchRevalidatesIdsAgainstTheGraphItRunsOn) {
  const data::Dataset dataset = SmallDataset(71);
  const std::string model = WriteModelSnapshot(dataset, 72, "batcher_a.snap");
  InferenceEngine engine(&dataset, SmallConfig());
  engine.Load(model);
  ContextCache cache(4);
  graph::NeighborhoodSampler sampler;
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  auto versioned =
      std::make_shared<const VersionedGraph>(std::move(graph), /*version=*/1);

  BatcherConfig config;
  config.batch_window_us = 0;
  config.context_users = 8;
  config.context_items = 8;
  MicroBatcher batcher(config, &engine, &cache, &sampler,
                       [versioned] { return versioned; });
  batcher.Start();

  // The transport validates against the graph current at submit time; the
  // batcher must re-check against the generation the batch actually runs
  // on (it may have shrunk in between) and fail the request as a bad
  // request, not crash the group.
  const RatingResponse bad_user =
      batcher.Submit(dataset.num_users(), {1}).get();
  EXPECT_FALSE(bad_user.ok);
  EXPECT_EQ(bad_user.error.rfind("bad request", 0), 0u) << bad_user.error;
  const RatingResponse bad_item =
      batcher.Submit(3, {dataset.num_items()}).get();
  EXPECT_FALSE(bad_item.ok);
  EXPECT_EQ(bad_item.error.rfind("bad request", 0), 0u) << bad_item.error;
  // An in-range request on the same batcher still succeeds.
  const RatingResponse good = batcher.Submit(3, {1, 2}).get();
  EXPECT_TRUE(good.ok) << good.error;
  batcher.Stop();
}

// ---------------------------------------------------------------------------
// RatingServer: in-process path
// ---------------------------------------------------------------------------

TEST(RatingServerTest, PredictReturnsOnePredictionPerItemInRange) {
  const data::Dataset dataset = SmallDataset(50);
  const std::string model = WriteModelSnapshot(dataset, 51, "server_a.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();

  const std::vector<int64_t> items{3, 9, 27};
  const RatingResponse response = server.Predict(5, items);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.predictions.size(), items.size());
  for (float p : response.predictions) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, dataset.max_rating());
  }
  EXPECT_EQ(response.model_version, 1);
  EXPECT_EQ(response.graph_version, 1);
  server.Stop();
}

TEST(RatingServerTest, RejectsMalformedAndOutOfRangeRequests) {
  const data::Dataset dataset = SmallDataset(52);
  const std::string model = WriteModelSnapshot(dataset, 53, "server_b.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();

  EXPECT_FALSE(server.Predict(5, {}).ok) << "empty item list must fail";
  EXPECT_FALSE(server.Predict(-1, {1}).ok);
  EXPECT_FALSE(server.Predict(dataset.num_users(), {1}).ok);
  EXPECT_FALSE(server.Predict(5, {dataset.num_items()}).ok);
  EXPECT_FALSE(server.Predict(5, std::vector<int64_t>(64, 1)).ok)
      << "more items than the context budget must fail";
  // And a valid request still succeeds afterwards.
  EXPECT_TRUE(server.Predict(5, {1, 2}).ok);
  server.Stop();
}

TEST(RatingServerTest, ConcurrentRequestsCoalesceIntoSharedForwards) {
  const data::Dataset dataset = SmallDataset(54);
  const std::string model = WriteModelSnapshot(dataset, 55, "server_c.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  // Long window so every concurrently submitted request lands in one batch.
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model, /*batch_window_us=*/200000));
  server.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  std::vector<std::future<RatingResponse>> futures;
  for (int64_t user = 0; user < 4; ++user) {
    futures.push_back(server.PredictAsync(user, {1, 2}));
  }
  int64_t max_batch_users = 0;
  for (auto& future : futures) {
    const RatingResponse response = future.get();
    ASSERT_TRUE(response.ok) << response.error;
    max_batch_users = std::max(max_batch_users, response.batch_users);
  }
  EXPECT_GT(max_batch_users, 1)
      << "concurrent requests inside the window must share a forward";
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  EXPECT_EQ(delta.counters.at("serve.requests"), 4u);
  EXPECT_LT(delta.counters.at("serve.batches"), 4u);
  server.Stop();
}

TEST(RatingServerTest, CoBatchedUsersAllReadComputedRows) {
  // The shared forward computes only the batch users' rows (rows >= k are
  // NaN), so every co-batched user must still get finite predictions.
  const data::Dataset dataset = SmallDataset(58);
  const std::string model = WriteModelSnapshot(dataset, 59, "server_q.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model, /*batch_window_us=*/200000));
  server.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  std::vector<std::future<RatingResponse>> futures;
  for (const int64_t user : {9, 3, 6}) {
    futures.push_back(server.PredictAsync(user, {1, 2, 5}));
  }
  for (auto& future : futures) {
    const RatingResponse response = future.get();
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.batch_users, 3);
    ASSERT_EQ(response.predictions.size(), 3u);
    for (const float p : response.predictions) {
      EXPECT_TRUE(std::isfinite(p)) << p;
    }
  }
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  EXPECT_EQ(delta.counters.at("serve.batches"), 1u);
  EXPECT_EQ(delta.counters.at("serve.batched_users"), 3u)
      << "the three users must share one forward";
  server.Stop();
}

TEST(RatingServerTest, CacheHitOnRepeatAndInvalidationOnGraphUpdate) {
  const data::Dataset dataset = SmallDataset(56);
  const std::string model = WriteModelSnapshot(dataset, 57, "server_d.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();

  const RatingResponse cold = server.Predict(7, {1, 2});
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const RatingResponse warm = server.Predict(7, {3, 4});
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit) << "second request for a user must hit the "
                                 "context cache";
  // Deterministic serving: an identical request replays bit-identically.
  const RatingResponse replay = server.Predict(7, {1, 2});
  ASSERT_TRUE(replay.ok);
  ASSERT_EQ(replay.predictions.size(), cold.predictions.size());
  for (size_t i = 0; i < cold.predictions.size(); ++i) {
    EXPECT_EQ(replay.predictions[i], cold.predictions[i]);
  }

  // Publishing a new graph generation invalidates every cached plan.
  graph::BipartiteGraph updated(dataset.num_users(), dataset.num_items(),
                                dataset.ratings());
  server.UpdateGraph(std::move(updated));
  EXPECT_EQ(server.graph_version(), 2);
  const RatingResponse after = server.Predict(7, {1, 2});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.graph_version, 2);
  server.Stop();
}

TEST(RatingServerTest, ContextCacheInvalidatesAcrossReloadWithNewGraph) {
  const data::Dataset dataset = SmallDataset(66);
  const std::string model_a = WriteModelSnapshot(dataset, 67, "inv_a.snap");
  const std::string model_b = WriteModelSnapshot(dataset, 68, "inv_b.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model_a));
  server.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  // Warm the cache for one user: one miss, then one hit.
  ASSERT_TRUE(server.Predict(9, {1, 2}).ok);
  const RatingResponse warm = server.Predict(9, {3});
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);

  // Hot-swap the model AND publish a new graph generation, as a production
  // refresh would. No cached plan from generation 1 may answer.
  server.Reload(model_b);
  graph::BipartiteGraph updated(dataset.num_users(), dataset.num_items(),
                                dataset.ratings());
  server.UpdateGraph(std::move(updated));

  const RatingResponse after = server.Predict(9, {1, 2});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.cache_hit)
      << "a plan cached for graph v1 must not serve graph v2";
  EXPECT_EQ(after.graph_version, 2);
  EXPECT_EQ(after.model_version, 2);

  // Hit/miss accounting stays consistent: 2 misses (cold, post-update) and
  // 1 hit, and the invalidation counter moved.
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  EXPECT_EQ(delta.counters.at("serve.context_cache.misses"), 2u);
  EXPECT_EQ(delta.counters.at("serve.context_cache.hits"), 1u);
  EXPECT_GE(delta.counters.at("serve.context_cache.invalidations"), 1u);
  server.Stop();
}

TEST(RatingServerTest, HotSwapUnderLoadNeverFailsARequest) {
  const data::Dataset dataset = SmallDataset(58);
  const std::string model_a = WriteModelSnapshot(dataset, 59, "swap_a.snap");
  const std::string model_b = WriteModelSnapshot(dataset, 60, "swap_b.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model_a));
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> served{0};
  int64_t max_version_seen = 0;
  std::thread driver([&] {
    int64_t user = 0;
    while (!stop.load()) {
      const RatingResponse response =
          server.Predict(user % dataset.num_users(), {1, 2, 3});
      if (!response.ok) {
        failures.fetch_add(1);
      } else {
        served.fetch_add(1);
        if (response.model_version > max_version_seen) {
          max_version_seen = response.model_version;
        }
      }
      ++user;
    }
  });
  for (int swap = 0; swap < 4; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.Reload(swap % 2 == 0 ? model_b : model_a);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  driver.join();

  EXPECT_EQ(failures.load(), 0)
      << "hot-swap must never fail an in-flight request";
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(max_version_seen, 5) << "requests must observe the new model";
  server.Stop();
}

// ---------------------------------------------------------------------------
// Transport hygiene: server read deadlines, client timeouts
// ---------------------------------------------------------------------------

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

TEST(HttpServerTest, StalledRequestGets408AndIdleConnectionIsClosed) {
  HttpServer http(0, 2, HttpServerOptions{/*idle_timeout_ms=*/300,
                                          /*header_timeout_ms=*/200});
  http.AddRoute("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "application/json", "{}"};
  });
  http.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  {
    // Slow-loris: send half a request head and stall. The header-read
    // deadline must answer 408 and close instead of pinning the thread.
    const int fd = ConnectLoopback(http.port());
    const std::string partial = "GET /ping HTTP/1.1\r\n";
    ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    std::string response;
    char chunk[1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    EXPECT_NE(response.find("408 Request Timeout"), std::string::npos)
        << response;
    ::close(fd);
  }
  {
    // A connection that never sends anything is closed after the idle
    // budget (EOF on our side), with no response bytes.
    const int fd = ConnectLoopback(http.port());
    char chunk[64];
    EXPECT_EQ(::recv(fd, chunk, sizeof(chunk), 0), 0)
        << "the server must close an idle connection";
    ::close(fd);
  }
  // Healthy clients are unaffected while the stalled ones are cut off.
  HttpClient client(http.port());
  EXPECT_EQ(client.Get("/ping").status, 200);

  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  EXPECT_EQ(delta.counters.at("serve.http.request_read_timeouts"), 1u);
  EXPECT_EQ(delta.counters.at("serve.http.idle_closed"), 1u);
  http.Stop();
}

TEST(HttpClientTest, TimeoutIsDistinctFromConnectionRefused) {
  HttpServer http(0, 1);
  http.AddRoute("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return HttpResponse{200, "application/json", "{}"};
  });
  http.Start();

  // Nobody listens on the discard port: a hard connection-refused error,
  // not a timeout.
  HttpClient refused(9, "127.0.0.1", /*timeout_ms=*/200);
  const HttpClient::Result no_listener = refused.Get("/x");
  EXPECT_FALSE(no_listener.ok);
  EXPECT_FALSE(no_listener.timed_out);
  EXPECT_NE(no_listener.error.find("connect("), std::string::npos)
      << no_listener.error;

  // A live but slow server surfaces as a distinct timeout.
  HttpClient impatient(http.port(), "127.0.0.1", /*timeout_ms=*/100);
  const HttpClient::Result slow = impatient.Get("/slow");
  EXPECT_FALSE(slow.ok);
  EXPECT_TRUE(slow.timed_out) << slow.error;
  EXPECT_EQ(slow.error.rfind("timeout:", 0), 0u) << slow.error;
  http.Stop();
}

// ---------------------------------------------------------------------------
// HTTP end-to-end
// ---------------------------------------------------------------------------

TEST(HttpEndToEndTest, PredictHealthzMetricsAndErrors) {
  const data::Dataset dataset = SmallDataset(62);
  const std::string model = WriteModelSnapshot(dataset, 63, "http_a.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();
  ASSERT_GT(server.port(), 0) << "ephemeral port must be bound";

  HttpClient client(server.port());

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  double version = 0.0;
  EXPECT_TRUE(obs::FindJsonNumberField(health.body, "model_version", &version));
  EXPECT_EQ(version, 1.0);

  auto predict = client.Post("/predict", "{\"user\":3,\"items\":[1,2,5]}");
  ASSERT_TRUE(predict.ok) << predict.error;
  EXPECT_EQ(predict.status, 200) << predict.body;
  std::string json_error;
  EXPECT_TRUE(obs::JsonValidate(predict.body, &json_error)) << json_error;
  EXPECT_NE(predict.body.find("\"predictions\":["), std::string::npos);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_EQ(metrics.status, 200);
  EXPECT_TRUE(obs::JsonValidate(metrics.body, &json_error)) << json_error;
  EXPECT_NE(metrics.body.find("serve.requests"), std::string::npos);

  EXPECT_EQ(client.Post("/predict", "{not json").status, 400);
  EXPECT_EQ(client.Post("/predict", "{\"user\":3}").status, 400);
  EXPECT_EQ(client.Post("/predict", "{\"user\":-5,\"items\":[1]}").status,
            400);
  EXPECT_EQ(client.Get("/nope").status, 404);
  EXPECT_EQ(client.Get("/predict").status, 405);

  auto reload = client.Post("/reload", "");
  ASSERT_TRUE(reload.ok) << reload.error;
  EXPECT_EQ(reload.status, 200) << reload.body;
  EXPECT_TRUE(obs::FindJsonNumberField(reload.body, "model_version",
                                       &version));
  EXPECT_EQ(version, 2.0);

  auto missing = client.Post("/reload",
                             "{\"model\":\"/does/not/exist.snap\"}");
  EXPECT_EQ(missing.status, 500);
  double after = 0.0;
  auto health2 = client.Get("/healthz");
  EXPECT_TRUE(obs::FindJsonNumberField(health2.body, "model_version",
                                       &after));
  EXPECT_EQ(after, 2.0) << "failed reload must keep the published model";

  server.Stop();
}

TEST(HttpEndToEndTest, DeadlineHeaderYields504OnASlowBatch) {
  const data::Dataset dataset = SmallDataset(83);
  const std::string model = WriteModelSnapshot(dataset, 84, "http_c.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();
  HttpClient client(server.port());
  const std::string body = "{\"user\":3,\"items\":[1,2]}";

  FaultInjector::Global().ArmServeSlowHandler(150);
  const HttpClient::Result late =
      client.Request("POST", "/predict", body, {{"X-Deadline-Ms", "30"}});
  FaultInjector::Global().Reset();
  ASSERT_TRUE(late.ok) << late.error;
  EXPECT_EQ(late.status, 504) << late.body;
  EXPECT_NE(late.body.find("deadline exceeded"), std::string::npos)
      << late.body;

  const HttpClient::Result bad =
      client.Request("POST", "/predict", body, {{"X-Deadline-Ms", "nope"}});
  EXPECT_EQ(bad.status, 400) << bad.body;
  const HttpClient::Result roomy =
      client.Request("POST", "/predict", body, {{"X-Deadline-Ms", "30000"}});
  EXPECT_EQ(roomy.status, 200) << roomy.body;
  server.Stop();
}

TEST(HttpEndToEndTest, ShedRequestsGet503WithRetryAfter) {
  const data::Dataset dataset = SmallDataset(85);
  const std::string model = WriteModelSnapshot(dataset, 86, "http_d.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  ServeConfig config = SmallServeConfig(model, /*batch_window_us=*/0);
  config.batcher.max_inflight = 1;
  RatingServer server(&dataset, SmallConfig(), std::move(graph), config);
  server.Start();

  // Occupy the single in-flight slot with a slow batch, then hit the
  // admission cap with a second request.
  FaultInjector::Global().ArmServeSlowHandler(300);
  std::thread occupier([&] {
    HttpClient slow_client(server.port());
    const HttpClient::Result r =
        slow_client.Post("/predict", "{\"user\":3,\"items\":[1]}");
    EXPECT_EQ(r.status, 200) << r.body;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  HttpClient client(server.port());
  const HttpClient::Result shed =
      client.Post("/predict", "{\"user\":4,\"items\":[1]}");
  occupier.join();
  FaultInjector::Global().Reset();

  ASSERT_TRUE(shed.ok) << shed.error;
  EXPECT_EQ(shed.status, 503) << shed.body;
  ASSERT_NE(shed.headers.find("retry-after"), shed.headers.end())
      << "a shed response must tell the client when to retry";
  EXPECT_EQ(shed.headers.at("retry-after"), "1");
  server.Stop();
}

TEST(HttpEndToEndTest, BootsWithoutModelServesDegradedAndRecoversOnReload) {
  const data::Dataset dataset = SmallDataset(87);
  const std::string model = WriteModelSnapshot(dataset, 88, "http_e.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(/*model_path=*/""));
  server.Start();
  HttpClient client(server.port());

  // Liveness stays 200 while degraded — the server is answering, just not
  // from the model.
  const HttpClient::Result health = client.Get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos)
      << health.body;

  const HttpClient::Result degraded =
      client.Post("/predict", "{\"user\":3,\"items\":[1,2]}");
  ASSERT_TRUE(degraded.ok) << degraded.error;
  EXPECT_EQ(degraded.status, 200) << degraded.body;
  EXPECT_NE(degraded.body.find("\"degraded\":true"), std::string::npos)
      << degraded.body;

  const HttpClient::Result reload =
      client.Post("/reload", "{\"model\":\"" + model + "\"}");
  ASSERT_EQ(reload.status, 200) << reload.body;
  const HttpClient::Result recovered =
      client.Post("/predict", "{\"user\":3,\"items\":[1,2]}");
  EXPECT_EQ(recovered.status, 200) << recovered.body;
  EXPECT_NE(recovered.body.find("\"degraded\":false"), std::string::npos)
      << recovered.body;
  const HttpClient::Result health2 = client.Get("/healthz");
  EXPECT_NE(health2.body.find("\"status\":\"ok\""), std::string::npos)
      << health2.body;
  server.Stop();
}

TEST(HttpEndToEndTest, ShutdownEndpointSignalsTheServeLoop) {
  const data::Dataset dataset = SmallDataset(64);
  const std::string model = WriteModelSnapshot(dataset, 65, "http_b.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();

  EXPECT_FALSE(server.WaitForShutdown(/*timeout_ms=*/1));
  HttpClient client(server.port());
  EXPECT_EQ(client.Post("/shutdown", "").status, 200);
  EXPECT_TRUE(server.WaitForShutdown(/*timeout_ms=*/2000));
  server.Stop();
}

// ---------------------------------------------------------------------------
// Serving observability: stage latency attribution, request ids, exposition
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, StageHistogramsCoverEveryOutcomeFromBoot) {
  const data::Dataset dataset = SmallDataset(90);
  const std::string model = WriteModelSnapshot(dataset, 91, "obs_a.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));

  // Constructing the server eagerly registers the full 5x6 partition, so a
  // scrape taken before any traffic already shows every outcome class.
  const obs::MetricsRegistry::Snapshot boot =
      obs::MetricsRegistry::Global().Take();
  const char* outcomes[] = {"served", "degraded", "shed", "expired", "failed"};
  const char* stages[] = {"admission", "queue",     "batch_form",
                          "forward",   "serialize", "write"};
  for (const char* outcome : outcomes) {
    for (const char* stage : stages) {
      const std::string name = std::string("serve.stage.") + stage + "_us." +
                               outcome;
      EXPECT_TRUE(boot.histograms.count(name)) << name << " not registered";
    }
  }

  server.Start();
  const RatingResponse response = server.Predict(5, {1, 2});
  ASSERT_TRUE(response.ok) << response.error;
  const obs::MetricsRegistry::Snapshot after =
      obs::MetricsRegistry::Global().Take();
  const obs::MetricsRegistry::Snapshot delta = after.Delta(boot);
  // A served request reaches admission, queue, batch formation, and the
  // forward (serialize/write are transport stages, absent on the in-process
  // path).
  for (const char* stage :
       {"admission", "queue", "batch_form", "forward"}) {
    const std::string name =
        std::string("serve.stage.") + stage + "_us.served";
    const auto it = delta.histograms.find(name);
    ASSERT_NE(it, delta.histograms.end()) << name;
    EXPECT_GE(it->second.count, 1u) << name << " recorded nothing";
  }
  server.Stop();
}

TEST(ObservabilityTest, RequestIdsAreMonotonicAndStagesAttributed) {
  const data::Dataset dataset = SmallDataset(92);
  const std::string model = WriteModelSnapshot(dataset, 93, "obs_b.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();

  uint64_t previous_id = 0;
  for (int i = 0; i < 4; ++i) {
    const RatingResponse response = server.Predict(i, {1, 2});
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_GT(response.request_id, previous_id)
        << "request ids must be assigned in monotonically increasing order";
    previous_id = response.request_id;
    // Batcher-path stages are all attributed, and none can exceed the total.
    for (const RequestStage stage :
         {RequestStage::kAdmission, RequestStage::kQueue,
          RequestStage::kBatchForm, RequestStage::kForward}) {
      EXPECT_GE(response.stages.at(stage), 0.0)
          << RequestStageName(stage) << " not attributed";
      EXPECT_LE(response.stages.at(stage), response.latency_us + 1.0)
          << RequestStageName(stage) << " exceeds the total latency";
    }
  }
  server.Stop();
}

TEST(ObservabilityTest, SlowRequestsAreCountedAndLogged) {
  const data::Dataset dataset = SmallDataset(94);
  const std::string model = WriteModelSnapshot(dataset, 95, "obs_c.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  ServeConfig config = SmallServeConfig(model);
  config.batcher.slow_request_ms = 50;
  RatingServer server(&dataset, SmallConfig(), std::move(graph), config);
  server.Start();

  const obs::MetricsRegistry::Snapshot before =
      obs::MetricsRegistry::Global().Take();
  FaultInjector::Global().ArmServeSlowHandler(120);
  const RatingResponse slow = server.Predict(3, {1});
  FaultInjector::Global().Reset();
  ASSERT_TRUE(slow.ok) << slow.error;
  EXPECT_GT(slow.latency_us, 50.0 * 1000.0);
  const obs::MetricsRegistry::Snapshot delta =
      obs::MetricsRegistry::Global().Take().Delta(before);
  const auto counter = delta.counters.find("serve.slow_requests");
  ASSERT_NE(counter, delta.counters.end());
  EXPECT_GE(counter->second, 1u);
  server.Stop();
}

TEST(ObservabilityTest, MetricsEndpointsExposeJsonAndPrometheus) {
  const data::Dataset dataset = SmallDataset(96);
  const std::string model = WriteModelSnapshot(dataset, 97, "obs_d.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();
  HttpClient client(server.port());
  ASSERT_EQ(client.Post("/predict", "{\"user\":3,\"items\":[1,2]}").status,
            200);

  // JSON view: still a valid single object, with the snapshot timestamp and
  // uptime spliced in ahead of the registry content.
  const HttpClient::Result json = client.Get("/metrics");
  ASSERT_TRUE(json.ok) << json.error;
  EXPECT_EQ(json.status, 200);
  std::string json_error;
  EXPECT_TRUE(obs::JsonValidate(json.body, &json_error)) << json_error;
  double ts_ms = 0.0;
  double uptime = 0.0;
  EXPECT_TRUE(obs::FindJsonNumberField(json.body, "ts_unix_ms", &ts_ms));
  EXPECT_GT(ts_ms, 1e12) << "ts_unix_ms must be a unix epoch in ms";
  EXPECT_TRUE(obs::FindJsonNumberField(json.body, "uptime_seconds", &uptime));
  EXPECT_GE(uptime, 0.0);

  // Prometheus view, via both the query string and the path alias.
  for (const char* path : {"/metrics?format=prometheus",
                           "/metrics/prometheus"}) {
    const HttpClient::Result prom = client.Get(path);
    ASSERT_TRUE(prom.ok) << prom.error;
    EXPECT_EQ(prom.status, 200) << path;
    const auto content_type = prom.headers.find("content-type");
    ASSERT_NE(content_type, prom.headers.end());
    EXPECT_NE(content_type->second.find("version=0.0.4"), std::string::npos);
    EXPECT_NE(
        prom.body.find("# TYPE serve_request_latency_us histogram"),
        std::string::npos)
        << path;
    EXPECT_NE(prom.body.find(
                  "serve_stage_forward_us_served_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << path;
    EXPECT_NE(prom.body.find("serve_uptime_seconds "), std::string::npos)
        << path;
    EXPECT_NE(prom.body.find("serve_model_version "), std::string::npos)
        << path;
  }
  server.Stop();
}

TEST(ObservabilityTest, DebugLogEmitsOneLinePerResolvedRequest) {
  const data::Dataset dataset = SmallDataset(98);
  const std::string model = WriteModelSnapshot(dataset, 99, "obs_e.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  RatingServer server(&dataset, SmallConfig(), std::move(graph),
                      SmallServeConfig(model));
  server.Start();

  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  const RatingResponse response = server.Predict(7, {1, 2});
  // Resolve runs on the batcher worker; the future resolving
  // happens-after the log write, so the capture below is race-free.
  const std::string log = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_NE(log.find("request id=" + std::to_string(response.request_id)),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("outcome=served"), std::string::npos) << log;
  EXPECT_NE(log.find("forward_us="), std::string::npos) << log;
  server.Stop();
}

TEST(ObservabilityTest, DisabledPathBookkeepingStaysCheap) {
  // The per-request accounting that runs with tracing disabled — the stage
  // clock stamps plus the histogram records — must stay far below the 2%
  // budget of a ~1ms request. 10µs/request would already be visible in
  // serve_bench; assert an order of magnitude under that.
  EnsureServeStageMetrics();
  StageBreakdown stages;
  for (int s = 0; s < kNumRequestStages; ++s) {
    stages.micros[static_cast<size_t>(s)] = 12.5;
  }
  constexpr int kIterations = 20000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    // One request's worth of bookkeeping: the stamps CollectBatch /
    // ProcessBatch / ProcessGroup take, plus Resolve's records.
    const auto t0 = std::chrono::steady_clock::now();
    const auto t1 = std::chrono::steady_clock::now();
    const auto t2 = std::chrono::steady_clock::now();
    const auto t3 = std::chrono::steady_clock::now();
    stages.at(RequestStage::kQueue) =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    stages.at(RequestStage::kForward) =
        std::chrono::duration<double, std::micro>(t3 - t2).count();
    RecordStageBreakdown(RequestOutcome::kServed, stages);
    RecordStageLatency(RequestOutcome::kServed, RequestStage::kAdmission,
                       1.0);
  }
  const double micros_per_request =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count() /
      kIterations;
  EXPECT_LT(micros_per_request, 5.0)
      << "per-request observability bookkeeping became heavyweight";
}

TEST(ObservabilityTest, SampledRequestsEmitCorrelatedSpans) {
  const data::Dataset dataset = SmallDataset(100);
  const std::string model = WriteModelSnapshot(dataset, 101, "obs_f.snap");
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  ServeConfig config = SmallServeConfig(model);
  config.batcher.trace_sample_every = 1;  // sample every request
  RatingServer server(&dataset, SmallConfig(), std::move(graph), config);
  server.Start();

  obs::Tracer::Start();
  const RatingResponse response = server.Predict(2, {1, 2});
  ASSERT_TRUE(response.ok) << response.error;
  server.Stop();  // joins the worker, so all spans are emitted
  obs::Tracer::Stop();

  const std::string trace = obs::Tracer::ToChromeTraceJson();
  obs::Tracer::Clear();
  const std::string id = "req#" + std::to_string(response.request_id);
  for (const char* stage : {"/total", "/queue", "/forward"}) {
    EXPECT_NE(trace.find(id + stage), std::string::npos)
        << "missing span " << id << stage;
  }
}

}  // namespace
}  // namespace serve
}  // namespace hire
