// Cross-module property tests: randomized sweeps over seeds and shapes that
// assert structural invariants rather than specific values.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/context_builder.h"
#include "graph/samplers.h"
#include "optim/adam.h"
#include "optim/lamb.h"
#include "optim/lookahead.h"
#include "optim/sgd.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "utils/check.h"
#include "utils/flags.h"

namespace hire {
namespace {

// ---------------------------------------------------------------------------
// Autograd: random op-chain gradients match finite differences.
// ---------------------------------------------------------------------------

class RandomChainGradTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainGradTest, RandomOpChainsHaveCorrectGradients) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const int64_t rows = 2 + rng.UniformInt(3);
  const int64_t cols = 2 + rng.UniformInt(3);

  // Chain spec drawn up front so the function is pure.
  std::vector<int> chain;
  const int length = 2 + static_cast<int>(rng.UniformInt(3));
  for (int i = 0; i < length; ++i) {
    chain.push_back(static_cast<int>(rng.UniformInt(5)));
  }

  auto fn = [chain](const std::vector<ag::Variable>& inputs) {
    ag::Variable x = inputs[0];
    for (int op : chain) {
      switch (op) {
        case 0:
          x = ag::Sigmoid(x);
          break;
        case 1:
          x = ag::Tanh(x);
          break;
        case 2:
          x = ag::MulScalar(x, 1.3f);
          break;
        case 3:
          x = ag::Square(x);
          break;
        case 4:
          x = ag::AddScalar(x, -0.2f);
          break;
      }
    }
    return ag::MeanAll(x);
  };

  Rng init(seed + 100);
  ag::Variable input(RandomUniform({rows, cols}, -0.9f, 0.9f, &init), true);
  const ag::GradCheckResult result = ag::CheckGradients(fn, {input});
  EXPECT_TRUE(result.passed) << result.worst_coordinate;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainGradTest,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Optimizers: every optimizer reduces a random convex quadratic.
// ---------------------------------------------------------------------------

enum class OptimizerKind { kSgd, kMomentum, kAdam, kLamb, kLookaheadSgd };

class OptimizerSweepTest
    : public ::testing::TestWithParam<std::tuple<OptimizerKind, int>> {};

TEST_P(OptimizerSweepTest, ReducesRandomQuadratic) {
  const auto [kind, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const int64_t dim = 4 + rng.UniformInt(5);
  Tensor target = RandomUniform({dim}, -2, 2, &rng);
  ag::Variable x(RandomUniform({dim}, -3, 3, &rng), true);

  std::unique_ptr<optim::Optimizer> optimizer;
  switch (kind) {
    case OptimizerKind::kSgd:
      optimizer = std::make_unique<optim::Sgd>(
          std::vector<ag::Variable>{x}, 0.1f);
      break;
    case OptimizerKind::kMomentum:
      optimizer = std::make_unique<optim::Sgd>(
          std::vector<ag::Variable>{x}, 0.05f, 0.9f);
      break;
    case OptimizerKind::kAdam: {
      optim::AdamConfig config;
      config.learning_rate = 0.1f;
      optimizer = std::make_unique<optim::Adam>(
          std::vector<ag::Variable>{x}, config);
      break;
    }
    case OptimizerKind::kLamb: {
      optim::LambConfig config;
      config.learning_rate = 0.05f;
      optimizer = std::make_unique<optim::Lamb>(
          std::vector<ag::Variable>{x}, config);
      break;
    }
    case OptimizerKind::kLookaheadSgd:
      optimizer = std::make_unique<optim::Lookahead>(
          std::make_unique<optim::Sgd>(std::vector<ag::Variable>{x}, 0.2f));
      break;
  }

  auto loss_value = [&]() {
    ag::Variable loss = ag::MSE(x, target);
    return loss.value().flat(0);
  };
  const float before = loss_value();
  for (int step = 0; step < 150; ++step) {
    optimizer->ZeroGrad();
    ag::Variable loss = ag::MSE(x, target);
    loss.Backward();
    optimizer->Step();
  }
  EXPECT_LT(loss_value(), 0.05f * before + 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizerSweepTest,
    ::testing::Combine(::testing::Values(OptimizerKind::kSgd,
                                         OptimizerKind::kMomentum,
                                         OptimizerKind::kAdam,
                                         OptimizerKind::kLamb,
                                         OptimizerKind::kLookaheadSgd),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Cold-start splits: leakage-freedom across scenarios and seeds.
// ---------------------------------------------------------------------------

class SplitSweepTest
    : public ::testing::TestWithParam<std::tuple<data::ColdStartScenario,
                                                 int>> {};

TEST_P(SplitSweepTest, ColdEntitiesNeverLeakIntoTraining) {
  const auto [scenario, seed] = GetParam();
  data::SyntheticConfig config;
  config.num_users = 70;
  config.num_items = 60;
  config.num_ratings = 1200;
  config.user_schema = {{"a", 3}};
  config.item_schema = {{"b", 3}};
  const data::Dataset dataset =
      data::GenerateSyntheticDataset(config, static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) + 5);
  const data::ColdStartSplit split =
      data::MakeColdStartSplit(dataset, scenario, 0.75, &rng);

  std::unordered_set<int64_t> cold_users(split.test_users.begin(),
                                         split.test_users.end());
  std::unordered_set<int64_t> cold_items(split.test_items.begin(),
                                         split.test_items.end());
  for (const data::Rating& rating : split.train_ratings) {
    ASSERT_EQ(cold_users.count(rating.user), 0u);
    ASSERT_EQ(cold_items.count(rating.item), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitSweepTest,
    ::testing::Combine(
        ::testing::Values(data::ColdStartScenario::kUserCold,
                          data::ColdStartScenario::kItemCold,
                          data::ColdStartScenario::kUserItemCold),
        ::testing::Values(11, 22, 33, 44)));

// ---------------------------------------------------------------------------
// Context masking: observed and target cells partition the observations.
// ---------------------------------------------------------------------------

class MaskSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(MaskSweepTest, MaskingPartitionsObservations) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  data::SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 40;
  config.num_ratings = 900;
  config.user_schema = {{"a", 3}};
  config.item_schema = {{"b", 3}};
  const data::Dataset dataset = data::GenerateSyntheticDataset(config, seed);
  const graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                                    dataset.ratings());
  graph::NeighborhoodSampler sampler;
  Rng rng(seed + 1);

  const graph::PredictionContext reference = [&] {
    Rng ref_rng(seed + 1);
    graph::ContextSelection selection =
        sampler.Sample(graph, {0}, {0}, 10, 10, &ref_rng);
    return graph::AssembleContext(graph, std::move(selection));
  }();
  graph::ContextSelection selection =
      sampler.Sample(graph, {0}, {0}, 10, 10, &rng);
  graph::PredictionContext masked =
      graph::AssembleContext(graph, std::move(selection));
  graph::PredictionContext unmasked = masked;
  Rng mask_rng(seed + 2);
  graph::MaskForTraining(&masked, 0.1, &mask_rng);

  for (int64_t flat = 0; flat < masked.observed_mask.size(); ++flat) {
    const bool was_observed = unmasked.observed_mask.flat(flat) > 0;
    const bool now_observed = masked.observed_mask.flat(flat) > 0;
    const bool now_target = masked.target_mask.flat(flat) > 0;
    ASSERT_EQ(was_observed, now_observed || now_target);
    ASSERT_FALSE(now_observed && now_target);
    if (now_target) {
      ASSERT_EQ(masked.target_ratings.flat(flat),
                unmasked.observed_ratings.flat(flat));
    }
  }
  (void)reference;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskSweepTest, ::testing::Range(50, 58));

// ---------------------------------------------------------------------------
// Flags parser.
// ---------------------------------------------------------------------------

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=0.5", "--steps=300", "--verbose",
                        "positional"};
  const Flags flags = Flags::Parse(5, argv);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("steps", 0), 300);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, TypedGetterValidation) {
  const char* argv[] = {"prog", "--count=abc"};
  const Flags flags = Flags::Parse(2, argv);
  EXPECT_THROW(flags.GetInt("count", 0), CheckError);
  EXPECT_EQ(flags.GetString("count", ""), "abc");
}

TEST(FlagsTest, BooleanValues) {
  const char* argv[] = {"prog", "--a=true", "--b=false", "--c=1", "--d=0"};
  const Flags flags = Flags::Parse(5, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  const char* bad[] = {"prog", "--e=maybe"};
  const Flags bad_flags = Flags::Parse(2, bad);
  EXPECT_THROW(bad_flags.GetBool("e", false), CheckError);
}

TEST(FlagsTest, HasReportsPresenceAndCountsAsARead) {
  const char* argv[] = {"prog", "--one=1", "--two"};
  const Flags flags = Flags::Parse(3, argv);
  EXPECT_EQ(flags.UnreadNames().size(), 2u);
  EXPECT_TRUE(flags.Has("one"));
  EXPECT_TRUE(flags.Has("two"));
  EXPECT_FALSE(flags.Has("three"));
  EXPECT_TRUE(flags.UnreadNames().empty());
}

}  // namespace
}  // namespace hire
