#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "serve/shard_router.h"
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

std::string WriteModelSnapshot(const data::Dataset& dataset, uint64_t seed,
                               const std::string& name) {
  core::HireModel model(&dataset, SmallConfig(), seed);
  const std::string path = testing::TempDir() + "/" + name;
  nn::SaveParameters(model, path);
  return path;
}

graph::BipartiteGraph GraphOf(const data::Dataset& dataset) {
  return graph::BipartiteGraph(dataset.num_users(), dataset.num_items(),
                               dataset.ratings());
}

ShardRouterConfig SmallRouterConfig(int num_shards) {
  ShardRouterConfig config;
  config.num_shards = num_shards;
  config.cache_capacity = 64;
  config.batcher.max_batch_users = 4;
  config.batcher.context_users = 8;
  config.batcher.context_items = 8;
  config.batcher.seed = 11;
  config.batcher.queue_capacity = 128;
  return config;
}

ServeConfig SmallServeConfig(const std::string& model_path, int num_shards) {
  ServeConfig config;
  config.port = 0;  // ephemeral
  config.cache_capacity = 64;
  config.model_path = model_path;
  config.num_shards = num_shards;
  config.batcher.max_batch_users = 4;
  config.batcher.context_users = 8;
  config.batcher.context_items = 8;
  config.batcher.seed = 11;
  config.batcher.queue_capacity = 128;
  return config;
}

uint64_t CounterDelta(const obs::MetricsRegistry::Snapshot& delta,
                      const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

/// Sum of one shard's outcome partition in a snapshot delta.
uint64_t ShardOutcomeSum(const obs::MetricsRegistry::Snapshot& delta,
                         int shard) {
  const std::string prefix =
      "serve.shard." + std::to_string(shard) + ".outcome.";
  uint64_t sum = 0;
  for (const char* name : {"served", "degraded", "shed", "expired", "failed"}) {
    sum += CounterDelta(delta, prefix + name);
  }
  return sum;
}

uint64_t GlobalOutcomeSum(const obs::MetricsRegistry::Snapshot& delta) {
  uint64_t sum = 0;
  for (const char* name : {"served", "degraded", "shed", "expired", "failed"}) {
    sum += CounterDelta(delta, std::string("serve.outcome.") + name);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// ConsistentHashRing
// ---------------------------------------------------------------------------

TEST(ConsistentHashRingTest, StableAcrossRingInstances) {
  const ConsistentHashRing a(4);
  const ConsistentHashRing b(4);
  for (uint64_t key = 0; key < 10000; ++key) {
    ASSERT_EQ(a.ShardForKey(key), b.ShardForKey(key))
        << "two rings with the same shard count must agree on key " << key;
  }
}

TEST(ConsistentHashRingTest, EveryShardOwnsAReasonableKeyShare) {
  constexpr int kShards = 8;
  constexpr uint64_t kKeys = 20000;
  const ConsistentHashRing ring(kShards);
  std::vector<uint64_t> counts(kShards, 0);
  for (uint64_t key = 0; key < kKeys; ++key) {
    const int shard = ring.ShardForKey(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    ++counts[static_cast<size_t>(shard)];
  }
  const double uniform = static_cast<double>(kKeys) / kShards;
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(counts[static_cast<size_t>(shard)], 0u)
        << "shard " << shard << " owns no keys";
    EXPECT_LT(static_cast<double>(counts[static_cast<size_t>(shard)]),
              2.0 * uniform)
        << "shard " << shard << " is more than 2x hotter than uniform";
  }
}

TEST(ConsistentHashRingTest, GrowingTheRingMovesKeysOnlyOntoTheNewShard) {
  constexpr int kShards = 4;
  constexpr uint64_t kKeys = 20000;
  const ConsistentHashRing before(kShards);
  const ConsistentHashRing after(kShards + 1);
  uint64_t moved = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    const int old_shard = before.ShardForKey(key);
    const int new_shard = after.ShardForKey(key);
    if (new_shard != old_shard) {
      ASSERT_EQ(new_shard, kShards)
          << "key " << key << " moved between surviving shards ("
          << old_shard << " -> " << new_shard
          << ") instead of onto the new shard";
      ++moved;
    }
  }
  // The new shard should take roughly 1/(N+1) of the keyspace; allow a wide
  // band since vnode placement is hash-random.
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.05) << "growing the ring moved almost nothing";
  EXPECT_LT(fraction, 0.45) << "growing the ring reshuffled too many keys";
}

// ---------------------------------------------------------------------------
// ShardRouter: routing + accounting invariants
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, SameUserAlwaysLandsOnTheSameShard) {
  const data::Dataset dataset = SmallDataset(80);
  const std::string model = WriteModelSnapshot(dataset, 81, "shard_a.snap");
  ShardRouter router(&dataset, SmallConfig(), GraphOf(dataset),
                     SmallRouterConfig(4));
  ASSERT_TRUE(router.RollingReload(model).ok);
  router.Start();

  std::set<int> shards_seen;
  for (int64_t user = 0; user < dataset.num_users(); ++user) {
    const int expected = router.ShardForUser(user);
    for (int repeat = 0; repeat < 2; ++repeat) {
      const RatingResponse response = SubmitAndWait(router, user, {1, 2});
      ASSERT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response.shard, expected)
          << "user " << user << " answered by a shard it does not hash to";
    }
    shards_seen.insert(expected);
  }
  EXPECT_GT(shards_seen.size(), 1u)
      << "64 users should spread over more than one of 4 shards";
  router.Stop();
}

TEST(ShardRouterTest, PerShardOutcomesExactlyPartitionRoutedTraffic) {
  const data::Dataset dataset = SmallDataset(82);
  const std::string model = WriteModelSnapshot(dataset, 83, "shard_b.snap");
  ShardRouter router(&dataset, SmallConfig(), GraphOf(dataset),
                     SmallRouterConfig(4));
  ASSERT_TRUE(router.RollingReload(model).ok);
  router.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  uint64_t total = 0;
  // A mix of served requests and early rejections (out-of-range item) so
  // more than one outcome class moves.
  for (int64_t user = 0; user < 32; ++user) {
    EXPECT_TRUE(SubmitAndWait(router, user, {1, 2}).ok);
    ++total;
    if (user % 4 == 0) {
      EXPECT_FALSE(SubmitAndWait(router, user, {dataset.num_items()}).ok);
      ++total;
    }
  }
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);

  uint64_t routed_total = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const std::string prefix = "serve.shard." + std::to_string(shard) + ".";
    const uint64_t routed = CounterDelta(delta, prefix + "routed");
    EXPECT_EQ(routed, ShardOutcomeSum(delta, shard))
        << "shard " << shard
        << ": routed must equal the sum of its outcome partition";
    routed_total += routed;
  }
  EXPECT_EQ(routed_total, total) << "every request routes to exactly one shard";
  EXPECT_EQ(GlobalOutcomeSum(delta), total)
      << "the global outcome partition must cover all traffic exactly once";
  router.Stop();
}

TEST(ShardRouterTest, CachesAreIsolatedPerShardAndPerGraphGeneration) {
  const data::Dataset dataset = SmallDataset(84);
  const std::string model = WriteModelSnapshot(dataset, 85, "shard_c.snap");
  ShardRouter router(&dataset, SmallConfig(), GraphOf(dataset),
                     SmallRouterConfig(4));
  ASSERT_TRUE(router.RollingReload(model).ok);
  router.Start();

  // Pick one user; only its owning shard's cache may ever hold its plan.
  const int64_t user = 5;
  const int home = router.ShardForUser(user);

  const RatingResponse first = SubmitAndWait(router, user, {1, 2});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.graph_version, 1);

  const RatingResponse second = SubmitAndWait(router, user, {1, 2});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit) << "repeat request must hit the shard cache";
  EXPECT_GT(router.cache(home).size(), 0u);
  for (int shard = 0; shard < 4; ++shard) {
    if (shard == home) continue;
    EXPECT_EQ(router.cache(shard).size(), 0u)
        << "shard " << shard << " cached a plan for a user it does not own";
  }

  // Publishing a new graph generation must invalidate every shard's cache;
  // the next request is a miss answered against the new version, so a plan
  // from the old generation can never be served.
  router.UpdateGraph(GraphOf(dataset));
  EXPECT_EQ(router.graph_version(), 2);
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(router.cache(shard).size(), 0u)
        << "graph update must drop shard " << shard << "'s cache";
  }
  const RatingResponse third = SubmitAndWait(router, user, {1, 2});
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.cache_hit)
      << "a plan built against the old graph generation was served";
  EXPECT_EQ(third.graph_version, 2);
  router.Stop();
}

TEST(ShardRouterTest, RollingReloadUnderSustainedLoadNeverFailsARequest) {
  const data::Dataset dataset = SmallDataset(86);
  const std::string model_a = WriteModelSnapshot(dataset, 87, "shard_d1.snap");
  const std::string model_b = WriteModelSnapshot(dataset, 88, "shard_d2.snap");
  ShardRouter router(&dataset, SmallConfig(), GraphOf(dataset),
                     SmallRouterConfig(4));
  ASSERT_TRUE(router.RollingReload(model_a).ok);
  router.Start();

  const auto before = obs::MetricsRegistry::Global().Take();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> failed{0};
  // Closed-loop senders: each waits for its answer, so the offered load is
  // bounded and nothing is shed — any non-ok answer is a real roll failure.
  std::vector<std::thread> senders;
  for (int t = 0; t < 3; ++t) {
    senders.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load()) {
        const int64_t user = (t * 19 + static_cast<int64_t>(i++) * 7) %
                             dataset.num_users();
        const RatingResponse response = SubmitAndWait(router, user, {1, 2});
        sent.fetch_add(1);
        if (!response.ok || response.degraded) failed.fetch_add(1);
      }
    });
  }

  int rolls = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < deadline) {
    const RollingReloadResult result =
        router.RollingReload(rolls % 2 == 0 ? model_b : model_a);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.failed_shards, 0);
    ++rolls;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& thread : senders) thread.join();

  EXPECT_GE(rolls, 4) << "the roll loop barely ran";
  EXPECT_EQ(failed.load(), 0u)
      << "rolling reloads must never fail or degrade a request";
  EXPECT_EQ(router.min_model_version(), 1 + rolls);
  for (int64_t version : router.ShardModelVersions()) {
    EXPECT_EQ(version, 1 + rolls);
  }

  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  EXPECT_EQ(CounterDelta(delta, "serve.outcome.served"), sent.load());
  EXPECT_EQ(GlobalOutcomeSum(delta), sent.load())
      << "outcome counters must exactly partition the load";
  EXPECT_EQ(CounterDelta(delta, "serve.reload.rolls"),
            static_cast<uint64_t>(rolls));
  uint64_t routed_total = 0;
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(CounterDelta(delta,
                           "serve.shard." + std::to_string(shard) + ".routed"),
              ShardOutcomeSum(delta, shard));
    routed_total += CounterDelta(
        delta, "serve.shard." + std::to_string(shard) + ".routed");
  }
  EXPECT_EQ(routed_total, sent.load());
  router.Stop();
}

TEST(ShardRouterTest, CorruptReloadScopedToOneShardLeavesTheRestServing) {
  FaultInjector::Global().Reset();
  const data::Dataset dataset = SmallDataset(90);
  const std::string model = WriteModelSnapshot(dataset, 91, "shard_e.snap");
  // Boot unloaded so the sick shard has no previous snapshot to fall back
  // on — it must answer degraded, the strongest isolation claim.
  ShardRouter router(&dataset, SmallConfig(), GraphOf(dataset),
                     SmallRouterConfig(4));
  router.Start();

  FaultInjector::Global().ArmServeCorruptReloadShard(1);
  const RollingReloadResult sick = router.RollingReload(model);
  EXPECT_FALSE(sick.ok);
  EXPECT_EQ(sick.failed_shards, 1);
  ASSERT_EQ(sick.shard_versions.size(), 4u);
  EXPECT_EQ(sick.shard_versions[1], 0) << "the sick shard must not publish";
  EXPECT_FALSE(sick.errors[1].empty());
  for (int shard : {0, 2, 3}) {
    EXPECT_EQ(sick.shard_versions[static_cast<size_t>(shard)], 1)
        << "healthy shard " << shard << " must still swap";
    EXPECT_TRUE(sick.errors[static_cast<size_t>(shard)].empty());
  }
  EXPECT_FALSE(router.all_loaded());
  EXPECT_EQ(sick.version, 0) << "fleet version is the conservative minimum";

  // Users owned by the sick shard degrade to the bias-table fallback; users
  // on every other shard get real model answers.
  int sick_users = 0;
  int healthy_users = 0;
  for (int64_t user = 0; user < dataset.num_users(); ++user) {
    const RatingResponse response = SubmitAndWait(router, user, {1, 2});
    ASSERT_TRUE(response.ok) << response.error;
    if (router.ShardForUser(user) == 1) {
      EXPECT_TRUE(response.degraded)
          << "user " << user << " on the unloaded shard must degrade";
      ++sick_users;
    } else {
      EXPECT_FALSE(response.degraded)
          << "user " << user << " is on a healthy shard";
      ++healthy_users;
    }
  }
  EXPECT_GT(sick_users, 0);
  EXPECT_GT(healthy_users, 0);

  // The fault is one-shot: the next roll heals the sick shard.
  const RollingReloadResult healed = router.RollingReload(model);
  EXPECT_TRUE(healed.ok);
  EXPECT_EQ(healed.shard_versions, (std::vector<int64_t>{2, 1, 2, 2}));
  EXPECT_TRUE(router.all_loaded());
  for (int64_t user = 0; user < dataset.num_users(); ++user) {
    if (router.ShardForUser(user) != 1) continue;
    const RatingResponse response = SubmitAndWait(router, user, {1, 2});
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_FALSE(response.degraded) << "healed shard must serve normally";
    break;
  }
  router.Stop();
  FaultInjector::Global().Reset();
}

// ---------------------------------------------------------------------------
// Sharded RatingServer over HTTP (event-loop front-end)
// ---------------------------------------------------------------------------

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ShardedServerTest, MaxConnectionsRejectsExcessAcceptsWith503) {
  const data::Dataset dataset = SmallDataset(92);
  const std::string model = WriteModelSnapshot(dataset, 93, "shard_f.snap");
  ServeConfig config = SmallServeConfig(model, 2);
  config.max_connections = 2;
  RatingServer server(&dataset, SmallConfig(), GraphOf(dataset), config);
  server.Start();

  // Fill the connection budget with idle raw sockets (accepted, never
  // written to), then prove the next connection is turned away at accept
  // time with a retryable 503 instead of growing the fd table.
  const int idle_a = RawConnect(server.port());
  const int idle_b = RawConnect(server.port());
  ASSERT_GE(idle_a, 0);
  ASSERT_GE(idle_b, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  {
    HttpClient client(server.port());
    const HttpClient::Result result = client.Get("/healthz");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, 503);
    const auto retry_after = result.headers.find("retry-after");
    ASSERT_NE(retry_after, result.headers.end());
    EXPECT_EQ(retry_after->second, "1");
  }

  ::close(idle_a);
  ::close(idle_b);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    HttpClient client(server.port());
    const HttpClient::Result result = client.Get("/healthz");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, 200)
        << "freed connection slots must be usable again";
  }
  server.Stop();
}

TEST(ShardedServerTest, PollBackendServesShardTaggedPredictions) {
  ::setenv("HIRE_SERVE_EVENT_BACKEND", "poll", 1);
  const data::Dataset dataset = SmallDataset(94);
  const std::string model = WriteModelSnapshot(dataset, 95, "shard_g.snap");
  RatingServer server(&dataset, SmallConfig(), GraphOf(dataset),
                      SmallServeConfig(model, 4));
  server.Start();

  HttpClient client(server.port());
  const HttpClient::Result health = client.Get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"shards\":4"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"shard_versions\":[1,1,1,1]"),
            std::string::npos)
      << health.body;

  const HttpClient::Result predict =
      client.Post("/predict", "{\"user\":5,\"items\":[1,2]}");
  ASSERT_TRUE(predict.ok) << predict.error;
  EXPECT_EQ(predict.status, 200) << predict.body;
  const std::string expected_shard =
      "\"shard\":" + std::to_string(server.router().ShardForUser(5));
  EXPECT_NE(predict.body.find(expected_shard), std::string::npos)
      << predict.body;

  const HttpClient::Result metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  for (int shard = 0; shard < 4; ++shard) {
    const std::string series =
        "serve.shard." + std::to_string(shard) + ".routed";
    EXPECT_NE(metrics.body.find(series), std::string::npos)
        << "/metrics must expose " << series << " from boot";
  }
  server.Stop();
  ::unsetenv("HIRE_SERVE_EVENT_BACKEND");
}

TEST(ShardedServerTest, HttpReloadRollsAllShardsUnderConcurrentTraffic) {
  const data::Dataset dataset = SmallDataset(96);
  const std::string model_a = WriteModelSnapshot(dataset, 97, "shard_h1.snap");
  const std::string model_b = WriteModelSnapshot(dataset, 98, "shard_h2.snap");
  RatingServer server(&dataset, SmallConfig(), GraphOf(dataset),
                      SmallServeConfig(model_a, 4));
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client(server.port());
      uint64_t i = 0;
      while (!stop.load()) {
        const int64_t user =
            (t * 31 + static_cast<int64_t>(i++) * 7) % dataset.num_users();
        const HttpClient::Result result = client.Post(
            "/predict",
            "{\"user\":" + std::to_string(user) + ",\"items\":[1,2]}");
        sent.fetch_add(1);
        if (!result.ok || result.status != 200) bad.fetch_add(1);
      }
    });
  }

  HttpClient admin(server.port());
  int rolls = 0;
  for (; rolls < 3; ++rolls) {
    const std::string body =
        "{\"model\":\"" + (rolls % 2 == 0 ? model_b : model_a) + "\"}";
    const HttpClient::Result result = admin.Post("/reload", body);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, 200) << result.body;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  stop.store(true);
  for (auto& thread : clients) thread.join();

  EXPECT_GT(sent.load(), 0u);
  EXPECT_EQ(bad.load(), 0u)
      << "rolling /reload must not fail a single in-flight request";
  HttpClient check(server.port());
  const HttpClient::Result health = check.Get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  const std::string version = "\"model_version\":" + std::to_string(1 + rolls);
  EXPECT_NE(health.body.find(version), std::string::npos) << health.body;
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace hire
