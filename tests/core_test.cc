#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "core/attention_analysis.h"
#include "core/context_encoder.h"
#include "core/evaluation.h"
#include "core/him_block.h"
#include "core/hire_config.h"
#include "core/hire_model.h"
#include "core/inference_forward.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "graph/context_builder.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace hire {
namespace core {
namespace {

// Small test fixtures: tiny dataset + tiny model configuration so every
// test runs in milliseconds.

data::Dataset SmallDataset(uint64_t seed = 1) {
  data::SyntheticConfig config;
  config.num_users = 64;
  config.num_items = 64;
  config.num_ratings = 1200;
  config.user_schema = {{"age", 4}, {"gender", 2}};
  config.item_schema = {{"genre", 5}};
  return data::GenerateSyntheticDataset(config, seed);
}

HireConfig SmallConfig() {
  HireConfig config;
  config.num_him_blocks = 2;
  config.num_heads = 2;
  config.head_dim = 4;
  config.attr_embed_dim = 4;
  return config;
}

graph::PredictionContext SmallContext(const data::Dataset& dataset,
                                      uint64_t seed = 3, int64_t n = 6,
                                      int64_t m = 5) {
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  Rng rng(seed);
  return graph::BuildTrainingContext(graph, sampler, n, m, 0.3, &rng);
}

TEST(ContextEncoderTest, ShapeIsNMByE) {
  data::Dataset dataset = SmallDataset();
  Rng rng(2);
  ContextEncoder encoder(&dataset, /*attr_embed_dim=*/4, &rng);
  // h = 2 user attrs + 1 item attr + 1 rating = 4; e = 16.
  EXPECT_EQ(encoder.num_attribute_slots(), 4);
  EXPECT_EQ(encoder.cell_embed_dim(), 16);

  graph::PredictionContext context = SmallContext(dataset);
  ag::Variable h = encoder.Encode(context);
  EXPECT_EQ(h.shape(),
            (std::vector<int64_t>{context.num_users(), context.num_items(),
                                  16}));
}

TEST(ContextEncoderTest, MaskedRatingSlotIsZero) {
  data::Dataset dataset = SmallDataset();
  Rng rng(4);
  ContextEncoder encoder(&dataset, 4, &rng);
  graph::PredictionContext context = SmallContext(dataset);
  Tensor h = encoder.Encode(context).value();

  const int64_t f = 4;
  const int64_t e = encoder.cell_embed_dim();
  for (int64_t k = 0; k < context.num_users(); ++k) {
    for (int64_t j = 0; j < context.num_items(); ++j) {
      if (context.observed_mask.at(k, j) > 0) continue;
      // The last f entries of the cell (the rating slot) must be zero.
      for (int64_t c = e - f; c < e; ++c) {
        ASSERT_EQ(h.at(k, j, c), 0.0f)
            << "masked rating leaked an embedding at (" << k << "," << j
            << "," << c << ")";
      }
    }
  }
}

TEST(ContextEncoderTest, UserSlotSharedAcrossItems) {
  data::Dataset dataset = SmallDataset();
  Rng rng(5);
  ContextEncoder encoder(&dataset, 4, &rng);
  graph::PredictionContext context = SmallContext(dataset);
  Tensor h = encoder.Encode(context).value();
  // The user block (first h_u * f entries) is identical across the item
  // axis.
  const int64_t user_block = 2 * 4;
  for (int64_t k = 0; k < context.num_users(); ++k) {
    for (int64_t j = 1; j < context.num_items(); ++j) {
      for (int64_t c = 0; c < user_block; ++c) {
        ASSERT_EQ(h.at(k, j, c), h.at(k, 0, c));
      }
    }
  }
}

TEST(ContextEncoderTest, ContinuousRatingScaleIsSupported) {
  // Paper §IV-B extension: continuous ratings encoded by a linear map.
  data::Dataset dataset("cont", {{"age", 3}}, {{"genre", 4}}, 30, 25, 0.0f,
                        1.0f, /*continuous_ratings=*/true);
  Rng data_rng(40);
  for (int64_t u = 0; u < 30; ++u) {
    for (int r = 0; r < 4; ++r) {
      dataset.AddRating(u, data_rng.UniformInt(25),
                        static_cast<float>(data_rng.Uniform()));
    }
  }

  Rng rng(41);
  ContextEncoder encoder(&dataset, 4, &rng);
  graph::BipartiteGraph graph(30, 25, dataset.ratings());
  graph::NeighborhoodSampler sampler;
  Rng ctx_rng(42);
  graph::PredictionContext context =
      graph::BuildTrainingContext(graph, sampler, 6, 6, 0.3, &ctx_rng);
  Tensor h = encoder.Encode(context).value();
  EXPECT_EQ(h.shape(), (std::vector<int64_t>{6, 6, encoder.cell_embed_dim()}));

  // Masked cells still contribute a zero rating slot.
  const int64_t e = encoder.cell_embed_dim();
  for (int64_t k = 0; k < 6; ++k) {
    for (int64_t j = 0; j < 6; ++j) {
      if (context.observed_mask.at(k, j) > 0) continue;
      for (int64_t c = e - 4; c < e; ++c) {
        ASSERT_EQ(h.at(k, j, c), 0.0f);
      }
    }
  }

  // The full model trains end-to-end on the continuous scale.
  HireModel model(&dataset, SmallConfig(), 43);
  graph::PredictionContext train_context =
      graph::BuildTrainingContext(graph, sampler, 6, 6, 0.3, &ctx_rng);
  ag::Variable loss =
      ag::MaskedMSE(model.Forward(train_context),
                    train_context.target_ratings, train_context.target_mask);
  EXPECT_NO_THROW(loss.Backward());
}

TEST(HimBlockTest, PreservesShape) {
  data::Dataset dataset = SmallDataset();
  Rng rng(6);
  HireConfig config = SmallConfig();
  HimBlock him(config, /*cell_embed_dim=*/16, /*num_attribute_slots=*/4,
               &rng);
  ag::Variable h(RandomNormal({5, 4, 16}, 0, 1, &rng), false);
  Rng dropout_rng(7);
  EXPECT_EQ(him.Forward(h, &dropout_rng).shape(),
            (std::vector<int64_t>{5, 4, 16}));
}

TEST(HimBlockTest, AblationTogglesRemoveLayers) {
  Rng rng(8);
  HireConfig full = SmallConfig();
  HimBlock all(full, 16, 4, &rng);

  HireConfig no_user = SmallConfig();
  no_user.use_user_attention = false;
  HimBlock without_user(no_user, 16, 4, &rng);
  EXPECT_LT(without_user.NumParameters(), all.NumParameters());

  HireConfig only_user = SmallConfig();
  only_user.use_item_attention = false;
  only_user.use_attr_attention = false;
  HimBlock user_only(only_user, 16, 4, &rng);
  EXPECT_LT(user_only.NumParameters(), without_user.NumParameters());

  // A fully ablated HIM is the identity.
  HireConfig none = SmallConfig();
  none.use_user_attention = false;
  none.use_item_attention = false;
  none.use_attr_attention = false;
  HimBlock identity(none, 16, 4, &rng);
  ag::Variable h(RandomNormal({3, 3, 16}, 0, 1, &rng), false);
  Rng dropout_rng(9);
  EXPECT_TRUE(ops::AllClose(identity.Forward(h, &dropout_rng).value(),
                            h.value()));
}

TEST(HimBlockTest, MismatchedDimensionsThrow) {
  Rng rng(10);
  HireConfig config = SmallConfig();
  EXPECT_THROW(HimBlock(config, 17, 4, &rng), CheckError);  // 17 != 4*4
}

TEST(HireModelTest, ForwardProducesRatingMatrixInRange) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), /*seed=*/11);
  graph::PredictionContext context = SmallContext(dataset);
  Tensor predicted = model.Predict(context);
  EXPECT_EQ(predicted.shape(),
            (std::vector<int64_t>{context.num_users(), context.num_items()}));
  for (int64_t i = 0; i < predicted.size(); ++i) {
    EXPECT_GE(predicted.flat(i), 0.0f);
    EXPECT_LE(predicted.flat(i), dataset.max_rating());
  }
}

TEST(HireModelTest, PredictionIsDeterministicInEval) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), 12);
  graph::PredictionContext context = SmallContext(dataset);
  Tensor a = model.Predict(context);
  Tensor b = model.Predict(context);
  EXPECT_TRUE(ops::AllClose(a, b));
}

TEST(HireModelTest, SameSeedSameModel) {
  data::Dataset dataset = SmallDataset();
  HireModel a(&dataset, SmallConfig(), 13);
  HireModel b(&dataset, SmallConfig(), 13);
  graph::PredictionContext context = SmallContext(dataset);
  EXPECT_TRUE(ops::AllClose(a.Predict(context), b.Predict(context)));
}

TEST(HireModelTest, FlexibleContextSizesAtTest) {
  // The paper stresses that the context size is flexible at test time.
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), 14);
  for (const auto& [n, m] : {std::pair<int64_t, int64_t>{3, 7},
                            std::pair<int64_t, int64_t>{9, 2},
                            std::pair<int64_t, int64_t>{1, 1}}) {
    graph::PredictionContext context = SmallContext(dataset, 15, n, m);
    EXPECT_EQ(model.Predict(context).shape(),
              (std::vector<int64_t>{n, m}));
  }
}

// Property 5.1: the predicted rating matrix is equivariant to permutations
// of the users and the items in the context.
class PermutationEquivarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(PermutationEquivarianceTest, Property51Holds) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  data::Dataset dataset = SmallDataset(seed);
  HireConfig config = SmallConfig();
  config.dropout = 0.0f;
  HireModel model(&dataset, config, seed + 100);
  graph::PredictionContext context = SmallContext(dataset, seed + 200, 6, 5);
  const int64_t n = context.num_users();
  const int64_t m = context.num_items();
  Tensor base = model.Predict(context);

  Rng rng(seed + 300);
  std::vector<int64_t> user_perm(static_cast<size_t>(n));
  std::iota(user_perm.begin(), user_perm.end(), 0);
  rng.Shuffle(&user_perm);
  std::vector<int64_t> item_perm(static_cast<size_t>(m));
  std::iota(item_perm.begin(), item_perm.end(), 0);
  rng.Shuffle(&item_perm);

  // Permute the context's users, items and every [n, m] tensor.
  graph::PredictionContext permuted;
  permuted.users.resize(static_cast<size_t>(n));
  permuted.items.resize(static_cast<size_t>(m));
  permuted.observed_ratings = Tensor::Zeros({n, m});
  permuted.observed_mask = Tensor::Zeros({n, m});
  permuted.target_ratings = Tensor::Zeros({n, m});
  permuted.target_mask = Tensor::Zeros({n, m});
  for (int64_t k = 0; k < n; ++k) {
    permuted.users[static_cast<size_t>(k)] =
        context.users[static_cast<size_t>(user_perm[static_cast<size_t>(k)])];
  }
  for (int64_t j = 0; j < m; ++j) {
    permuted.items[static_cast<size_t>(j)] =
        context.items[static_cast<size_t>(item_perm[static_cast<size_t>(j)])];
  }
  for (int64_t k = 0; k < n; ++k) {
    for (int64_t j = 0; j < m; ++j) {
      const int64_t pk = user_perm[static_cast<size_t>(k)];
      const int64_t pj = item_perm[static_cast<size_t>(j)];
      permuted.observed_ratings.at(k, j) = context.observed_ratings.at(pk, pj);
      permuted.observed_mask.at(k, j) = context.observed_mask.at(pk, pj);
      permuted.target_ratings.at(k, j) = context.target_ratings.at(pk, pj);
      permuted.target_mask.at(k, j) = context.target_mask.at(pk, pj);
    }
  }

  Tensor permuted_prediction = model.Predict(permuted);
  for (int64_t k = 0; k < n; ++k) {
    for (int64_t j = 0; j < m; ++j) {
      const int64_t pk = user_perm[static_cast<size_t>(k)];
      const int64_t pj = item_perm[static_cast<size_t>(j)];
      ASSERT_NEAR(permuted_prediction.at(k, j), base.at(pk, pj), 2e-3f)
          << "Property 5.1 violated at (" << k << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationEquivarianceTest,
                         ::testing::Range(1, 7));

// Masking property: predictions must not depend on the *values* stored in
// masked target cells — only visible cells may influence the model.
TEST(HireModelTest, MaskedCellValuesCannotLeak) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), 16);
  graph::PredictionContext context = SmallContext(dataset);
  Tensor base = model.Predict(context);

  graph::PredictionContext tampered = context;
  tampered.target_ratings.Fill(dataset.max_rating());
  Tensor prediction = model.Predict(tampered);
  EXPECT_TRUE(ops::AllClose(base, prediction))
      << "target cell values leaked into the prediction";
}

TEST(HireModelTest, VisibleRatingsDoInfluencePrediction) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), 17);
  graph::PredictionContext context = SmallContext(dataset);

  // Find a visible cell and flip its value.
  int64_t cell = -1;
  for (int64_t flat = 0; flat < context.observed_mask.size(); ++flat) {
    if (context.observed_mask.flat(flat) > 0) {
      cell = flat;
      break;
    }
  }
  ASSERT_GE(cell, 0);
  Tensor base = model.Predict(context);
  graph::PredictionContext modified = context;
  const float old_value = modified.observed_ratings.flat(cell);
  modified.observed_ratings.flat(cell) =
      old_value > 2.5f ? 1.0f : dataset.max_rating();
  Tensor prediction = model.Predict(modified);
  EXPECT_FALSE(ops::AllClose(base, prediction))
      << "visible ratings appear to be ignored";
}

TEST(HireModelTest, AttentionCaptureProducesAllThreeMatrices) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), 18);
  model.EnableAttentionCapture(true);
  graph::PredictionContext context = SmallContext(dataset, 19, 6, 5);
  model.Predict(context);
  const HimBlock& him = model.him_block(0);
  // MBU: [m, l, n, n]; MBI: [n, l, m, m]; MBA: [n*m, l, h, h].
  EXPECT_EQ(him.captured_user_attention().shape(),
            (std::vector<int64_t>{5, 2, 6, 6}));
  EXPECT_EQ(him.captured_item_attention().shape(),
            (std::vector<int64_t>{6, 2, 5, 5}));
  EXPECT_EQ(him.captured_attribute_attention().shape(),
            (std::vector<int64_t>{30, 2, 4, 4}));
}

TEST(AttentionAnalysisTest, AverageHeadsMatchesHandComputed) {
  Tensor captured({1, 2, 2, 2});
  // Head 0: [[1, 0], [0, 1]]; head 1: [[0, 1], [1, 0]].
  captured.at(0, 0, 0, 0) = 1.0f;
  captured.at(0, 0, 1, 1) = 1.0f;
  captured.at(0, 1, 0, 1) = 1.0f;
  captured.at(0, 1, 1, 0) = 1.0f;
  Tensor averaged = AverageHeads(captured, 0);
  EXPECT_FLOAT_EQ(averaged.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(averaged.at(0, 1), 0.5f);
  EXPECT_THROW(AverageHeads(captured, 1), CheckError);
  EXPECT_THROW(AverageHeads(Tensor({2, 2}), 0), CheckError);
}

TEST(AttentionAnalysisTest, TopEdgesSortedAndOffDiagonal) {
  Tensor attention({3, 3}, {0.9f, 0.05f, 0.05f,  //
                            0.2f, 0.5f, 0.3f,    //
                            0.6f, 0.1f, 0.3f});
  const auto edges = TopAttentionEdges(attention, 3);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].from, 2);
  EXPECT_EQ(edges[0].to, 0);
  EXPECT_FLOAT_EQ(edges[0].weight, 0.6f);
  for (const auto& edge : edges) {
    EXPECT_NE(edge.from, edge.to);
  }
  EXPECT_GE(edges[0].weight, edges[1].weight);
  EXPECT_GE(edges[1].weight, edges[2].weight);
}

TEST(AttentionAnalysisTest, RowSumDeviationAndHeatmap) {
  Tensor stochastic({2, 2}, {0.5f, 0.5f, 0.1f, 0.9f});
  EXPECT_LT(MaxRowSumDeviation(stochastic), 1e-6f);
  Tensor broken({2, 2}, {0.5f, 0.6f, 0.1f, 0.9f});
  EXPECT_NEAR(MaxRowSumDeviation(broken), 0.1f, 1e-6f);
  const std::string heatmap = RenderHeatmap(stochastic);
  EXPECT_EQ(std::count(heatmap.begin(), heatmap.end(), '\n'), 2);
}

TEST(AttentionAnalysisTest, CapturedModelAttentionIsRowStochastic) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), 55);
  model.EnableAttentionCapture(true);
  graph::PredictionContext context = SmallContext(dataset, 56, 6, 5);
  model.Predict(context);
  const HimBlock& him = model.him_block(0);
  for (int64_t view = 0; view < 5; ++view) {
    Tensor averaged = AverageHeads(him.captured_user_attention(), view);
    EXPECT_LT(MaxRowSumDeviation(averaged), 1e-4f);
  }
}

TEST(HireModelTest, SerializationRoundTripReproducesPredictions) {
  data::Dataset dataset = SmallDataset();
  HireModel original(&dataset, SmallConfig(), 20);
  HireModel restored(&dataset, SmallConfig(), 999);  // different init

  const std::string path = testing::TempDir() + "/hire_model_test.bin";
  nn::SaveParameters(original, path);
  nn::LoadParameters(&restored, path);

  graph::PredictionContext context = SmallContext(dataset);
  EXPECT_TRUE(ops::AllClose(original.Predict(context),
                            restored.Predict(context)));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Training (Algorithm 1).
// ---------------------------------------------------------------------------

TEST(TrainerTest, LossDecreasesOnSmallDataset) {
  data::Dataset dataset = SmallDataset(23);
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  HireModel model(&dataset, SmallConfig(), 24);
  graph::NeighborhoodSampler sampler;

  TrainerConfig config;
  config.num_steps = 40;
  config.batch_size = 2;
  config.context_users = 8;
  config.context_items = 8;
  config.seed = 25;
  const TrainStats stats = TrainHire(&model, graph, sampler, config);

  ASSERT_EQ(stats.step_losses.size(), 40u);
  const float early = (stats.step_losses[0] + stats.step_losses[1] +
                       stats.step_losses[2]) /
                      3.0f;
  const float late =
      (stats.step_losses[37] + stats.step_losses[38] + stats.step_losses[39]) /
      3.0f;
  EXPECT_LT(late, early) << "training did not reduce the masked MSE";
  EXPECT_GT(stats.train_seconds, 0.0);
}

TEST(TrainerTest, TrainingIsDeterministicUnderSeeds) {
  data::Dataset dataset = SmallDataset(26);
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  TrainerConfig config;
  config.num_steps = 10;
  config.batch_size = 1;
  config.context_users = 6;
  config.context_items = 6;
  config.seed = 27;

  HireModel model_a(&dataset, SmallConfig(), 28);
  HireModel model_b(&dataset, SmallConfig(), 28);
  const TrainStats stats_a = TrainHire(&model_a, graph, sampler, config);
  const TrainStats stats_b = TrainHire(&model_b, graph, sampler, config);
  for (size_t s = 0; s < stats_a.step_losses.size(); ++s) {
    EXPECT_FLOAT_EQ(stats_a.step_losses[s], stats_b.step_losses[s]);
  }
}

// ---------------------------------------------------------------------------
// Evaluation protocol.
// ---------------------------------------------------------------------------

TEST(EvaluationTest, ColdStartProtocolProducesBoundedMetrics) {
  data::Dataset dataset = SmallDataset(29);
  Rng split_rng(30);
  data::ColdStartSplit split = data::MakeColdStartSplit(
      dataset, data::ColdStartScenario::kUserCold, 0.7, &split_rng);

  HireModel model(&dataset, SmallConfig(), 31);
  graph::NeighborhoodSampler sampler;
  HirePredictor predictor(&model, &sampler, 8, 8, 32);

  EvalConfig config;
  config.top_ks = {3, 5};
  config.min_query_items = 3;
  config.max_eval_users = 10;
  config.seed = 33;
  const EvalResult result =
      EvaluateColdStart(&predictor, dataset, split, config);

  EXPECT_GT(result.num_lists, 0);
  ASSERT_EQ(result.by_k.size(), 2u);
  for (const auto& [k, m] : result.by_k) {
    EXPECT_GE(m.precision, 0.0);
    EXPECT_LE(m.precision, 1.0);
    EXPECT_GE(m.ndcg, 0.0);
    EXPECT_LE(m.ndcg, 1.0 + 1e-9);
    EXPECT_GE(m.map, 0.0);
    EXPECT_LE(m.map, 1.0);
  }
  EXPECT_GT(result.predict_seconds, 0.0);
}

TEST(EvaluationTest, HirePredictorUsesSupportEvidence) {
  // The target user's visible (support) ratings must reach the model: the
  // same query under different support graphs should differ.
  data::Dataset dataset = SmallDataset(60);
  graph::BipartiteGraph full(dataset.num_users(), dataset.num_items(),
                             dataset.ratings());
  HireModel model(&dataset, SmallConfig(), 61);
  graph::NeighborhoodSampler sampler;

  const int64_t user = 0;
  std::vector<data::Rating> no_user_ratings;
  for (const data::Rating& rating : dataset.ratings()) {
    if (rating.user != user) no_user_ratings.push_back(rating);
  }
  graph::BipartiteGraph without_support(dataset.num_users(),
                                        dataset.num_items(), no_user_ratings);

  const std::vector<int64_t> query{1, 2, 3};
  HirePredictor predictor_a(&model, &sampler, 8, 8, 62);
  HirePredictor predictor_b(&model, &sampler, 8, 8, 62);
  const std::vector<float> with = predictor_a.PredictForUser(user, query, full);
  const std::vector<float> without =
      predictor_b.PredictForUser(user, query, without_support);
  bool any_difference = false;
  for (size_t j = 0; j < query.size(); ++j) {
    if (with[j] != without[j]) any_difference = true;
  }
  EXPECT_TRUE(any_difference)
      << "support ratings do not influence HIRE's predictions";
}

TEST(HireModelTest, PredictAllocatesNoTapeNodes) {
  data::Dataset dataset = SmallDataset(70);
  HireModel model(&dataset, SmallConfig(), 71);
  graph::PredictionContext context = SmallContext(dataset, 72);

  // Sanity: a training-mode Forward does build a tape.
  model.SetTraining(true);
  const uint64_t before_forward = ag::TapeNodesCreated();
  ag::Variable out = model.Forward(context);
  EXPECT_GT(ag::TapeNodesCreated(), before_forward)
      << "the tape counter is not seeing training forwards";
  EXPECT_TRUE(out.requires_grad());

  // The serving path: Predict must allocate zero autograd tape nodes.
  const uint64_t before_predict = ag::TapeNodesCreated();
  const Tensor predicted = model.Predict(context);
  EXPECT_EQ(ag::TapeNodesCreated(), before_predict)
      << "Predict leaked autograd tape allocations";
  EXPECT_EQ(predicted.shape(0), static_cast<int64_t>(context.users.size()));
  EXPECT_TRUE(model.training())
      << "Predict must restore the caller's training mode";

  // And the guard is scoped: gradients work again afterwards.
  const uint64_t after = ag::TapeNodesCreated();
  ag::Variable again = model.Forward(context);
  EXPECT_GT(ag::TapeNodesCreated(), after);
  EXPECT_TRUE(again.requires_grad());
}

TEST(EvaluationTest, HirePredictorIsDeterministicAcrossCalls) {
  // Prediction is stateless: repeating a query — even interleaved with
  // queries for other users — must reproduce bitwise-identical results.
  data::Dataset dataset = SmallDataset(73);
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  HireModel model(&dataset, SmallConfig(), 74);
  graph::NeighborhoodSampler sampler;
  HirePredictor predictor(&model, &sampler, 8, 8, 75);

  const std::vector<int64_t> items{1, 2, 3, 4, 5};
  const std::vector<float> first = predictor.PredictForUser(0, items, graph);
  predictor.PredictForUser(7, {2, 3}, graph);  // unrelated interleaved call
  predictor.PredictForUser(0, {9}, graph);     // same user, different query
  const std::vector<float> second = predictor.PredictForUser(0, items, graph);
  ASSERT_EQ(first.size(), second.size());
  for (size_t j = 0; j < first.size(); ++j) {
    EXPECT_EQ(first[j], second[j]) << "prediction drifted at item " << j;
  }
}

TEST(EvaluationTest, HirePredictorChunkedCallMatchesPerChunkCalls) {
  // A long query is answered chunk by chunk against one shared context
  // plan. Each chunk's computation is a pure function of (graph, seed,
  // user, chunk contents), so the chunked call must equal the concatenation
  // of direct calls issued chunk by chunk.
  data::Dataset dataset = SmallDataset(76);
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  HireModel model(&dataset, SmallConfig(), 77);
  graph::NeighborhoodSampler sampler;
  const int64_t context_items = 4;
  const uint64_t seed = 78;
  const int64_t user = 0;
  HirePredictor predictor(&model, &sampler, 8, context_items, seed);

  // Recover the predictor's chunk capacity from the (identical) plan.
  const UserContextPlan plan =
      BuildUserContextPlan(graph, sampler, user, 8, context_items, seed);
  const int64_t capacity =
      std::max<int64_t>(1, context_items - plan.num_support_items);

  const std::vector<int64_t> items{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<float> chunked =
      predictor.PredictForUser(user, items, graph);
  ASSERT_EQ(chunked.size(), items.size());

  for (size_t begin = 0; begin < items.size();
       begin += static_cast<size_t>(capacity)) {
    const size_t end =
        std::min(items.size(), begin + static_cast<size_t>(capacity));
    const std::vector<int64_t> chunk(items.begin() + begin,
                                     items.begin() + end);
    const std::vector<float> direct =
        predictor.PredictForUser(user, chunk, graph);
    ASSERT_EQ(direct.size(), chunk.size());
    for (size_t j = 0; j < chunk.size(); ++j) {
      EXPECT_EQ(chunked[begin + j], direct[j])
          << "chunk [" << begin << ", " << end << ") diverged at offset "
          << j;
    }
  }
}

TEST(EvaluationTest, HirePredictorReturnsOnePredictionPerItem) {
  data::Dataset dataset = SmallDataset(34);
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  HireModel model(&dataset, SmallConfig(), 35);
  graph::NeighborhoodSampler sampler;
  HirePredictor predictor(&model, &sampler, 8, 4, 36);

  // 9 query items > context budget 4 forces chunking.
  std::vector<int64_t> items{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<float> predictions =
      predictor.PredictForUser(0, items, graph);
  ASSERT_EQ(predictions.size(), items.size());
  for (float p : predictions) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, dataset.max_rating());
  }
}

// ---------------------------------------------------------------------------
// Tape-free fused inference path (core/inference_forward.h).
// ---------------------------------------------------------------------------

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  float max_abs = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(a.flat(i) - b.flat(i)));
  }
  return max_abs;
}

TEST(InferenceForwardTest, MatchesTapePredictAcrossShapesAndHeadCounts) {
  data::Dataset dataset = SmallDataset();
  // e = 16, so every head count divides it with head_dim defaulted; an
  // explicit head_dim covers inner != embed_dim.
  const std::vector<std::pair<int64_t, int64_t>> head_configs = {
      {1, 0}, {2, 4}, {4, 0}, {8, 0}, {2, 3}};
  for (const auto& [heads, head_dim] : head_configs) {
    HireConfig config = SmallConfig();
    config.num_heads = heads;
    config.head_dim = head_dim;
    HireModel model(&dataset, config, /*seed=*/17);
    model.SetTraining(false);
    const InferenceModel fused(model);
    InferenceArena arena;
    for (const int64_t n : {1, 4, 16}) {
      for (const int64_t m : {8, 32}) {
        graph::PredictionContext context =
            SmallContext(dataset, /*seed=*/100 + n + m, n, m);
        const Tensor tape = model.Predict(context);
        const Tensor& out = fused.Predict(context, &arena);
        EXPECT_LE(MaxAbsDiff(out, tape), 1e-5f)
            << "heads=" << heads << " head_dim=" << head_dim << " n=" << n
            << " m=" << m;
      }
    }
  }
}

TEST(InferenceForwardTest, MatchesTapeUnderAblationToggles) {
  data::Dataset dataset = SmallDataset();
  const auto variant = [](auto mutate) {
    HireConfig config;
    config.num_him_blocks = 2;
    config.num_heads = 2;
    config.head_dim = 4;
    config.attr_embed_dim = 4;
    mutate(&config);
    return config;
  };
  const std::vector<HireConfig> variants = {
      variant([](HireConfig* c) { c->use_residual = false; }),
      variant([](HireConfig* c) { c->use_layer_norm = false; }),
      variant([](HireConfig* c) { c->use_user_attention = false; }),
      variant([](HireConfig* c) { c->use_item_attention = false; }),
      variant([](HireConfig* c) { c->use_attr_attention = false; }),
      variant([](HireConfig* c) {
        c->use_residual = false;
        c->use_layer_norm = false;
      }),
  };
  graph::PredictionContext context = SmallContext(dataset, /*seed=*/9, 6, 8);
  for (size_t i = 0; i < variants.size(); ++i) {
    HireModel model(&dataset, variants[i], /*seed=*/23);
    model.SetTraining(false);
    const InferenceModel fused(model);
    InferenceArena arena;
    EXPECT_LE(MaxAbsDiff(fused.Predict(context, &arena),
                         model.Predict(context)),
              1e-5f)
        << "ablation variant " << i;
  }
}

TEST(InferenceForwardTest, BitwiseEqualWhenAttentionDisabled) {
  // With all three attention branches off, the whole forward is encoder +
  // residual/norm + decoder: every stage shares the tape's rounding chain,
  // so the fused path must agree bit-for-bit, not just within tolerance.
  data::Dataset dataset = SmallDataset();
  HireConfig config = SmallConfig();
  config.use_user_attention = false;
  config.use_item_attention = false;
  config.use_attr_attention = false;
  HireModel model(&dataset, config, /*seed=*/29);
  model.SetTraining(false);
  const InferenceModel fused(model);
  InferenceArena arena;
  graph::PredictionContext context = SmallContext(dataset, /*seed=*/13, 5, 7);
  const Tensor tape = model.Predict(context);
  const Tensor& out = fused.Predict(context, &arena);
  ASSERT_TRUE(out.SameShape(tape));
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.flat(i), tape.flat(i)) << "flat index " << i;
  }
}

TEST(InferenceForwardTest, QueryRowsAreBitwiseTheFullForwardsLeadingRows) {
  // Pruning the last HIM block to rows [0, q) must not move a bit of those
  // rows, and every row >= q must read as NaN.
  data::Dataset dataset = SmallDataset();
  const auto variant = [](auto mutate) {
    HireConfig config = SmallConfig();
    mutate(&config);
    return config;
  };
  const std::vector<HireConfig> variants = {
      SmallConfig(),
      variant([](HireConfig* c) { c->use_user_attention = false; }),
      variant([](HireConfig* c) { c->use_layer_norm = false; }),
      variant([](HireConfig* c) { c->use_residual = false; }),
      variant([](HireConfig* c) { c->num_him_blocks = 1; }),
      variant([](HireConfig* c) { c->num_him_blocks = 3; }),
      variant([](HireConfig* c) { c->head_dim = 3; }),  // generic kernel
  };
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 8}, {4, 8}, {16, 16}, {16, 32}};
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    for (size_t v = 0; v < variants.size(); ++v) {
      HireModel model(&dataset, variants[v], /*seed=*/41);
      model.SetTraining(false);
      const InferenceModel fused(model);
      InferenceArena full_arena;
      InferenceArena pruned_arena;
      for (const auto& [n, m] : shapes) {
        graph::PredictionContext context =
            SmallContext(dataset, /*seed=*/200 + n + m, n, m);
        const Tensor& full = fused.Predict(context, &full_arena);
        for (const int64_t q : {int64_t{1}, int64_t{2}, n}) {
          if (q > n) continue;
          const Tensor& pruned = fused.Predict(context, &pruned_arena, q);
          ASSERT_TRUE(pruned.SameShape(full));
          for (int64_t k = 0; k < n; ++k) {
            for (int64_t j = 0; j < m; ++j) {
              if (k < q) {
                EXPECT_EQ(pruned.at(k, j), full.at(k, j))
                    << "variant " << v << " threads " << threads << " n=" << n
                    << " m=" << m << " q=" << q << " cell (" << k << ", "
                    << j << ")";
              } else {
                EXPECT_TRUE(std::isnan(pruned.at(k, j)))
                    << "skipped row " << k << " of q=" << q << " is "
                    << pruned.at(k, j);
              }
            }
          }
        }
      }
    }
  }
  SetGlobalThreads(0);
}

TEST(InferenceForwardTest, RejectsQueryRowsOutsideTheContext) {
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), /*seed=*/43);
  model.SetTraining(false);
  const InferenceModel fused(model);
  InferenceArena arena;
  graph::PredictionContext context = SmallContext(dataset, /*seed=*/5, 4, 8);
  EXPECT_THROW(fused.Predict(context, &arena, 0), CheckError);
  EXPECT_THROW(fused.Predict(context, &arena, 5), CheckError);
}

TEST(InferenceForwardTest, ArenaReusesBlocksAndRewindsMarks) {
  InferenceArena arena;
  EXPECT_EQ(arena.growth_count(), 0);
  float* a = arena.Alloc(100);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.growth_count(), 1);

  const InferenceArena::Mark mark = arena.CurrentMark();
  float* b = arena.Alloc(200);
  arena.Rewind(mark);
  float* c = arena.Alloc(200);
  EXPECT_EQ(b, c) << "Rewind must hand back the same storage";

  arena.Reset();
  float* d = arena.Alloc(100);
  EXPECT_EQ(a, d) << "Reset must hand back the same storage";
  EXPECT_EQ(arena.growth_count(), 1) << "no growth after warm-up";
  const int64_t capacity = arena.capacity_floats();
  arena.Reset();
  EXPECT_EQ(arena.capacity_floats(), capacity);
}

}  // namespace
}  // namespace core
}  // namespace hire

// ---------------------------------------------------------------------------
// Zero-heap forward. Global operator new/delete are replaced (at global
// scope, affecting this whole test binary) with counting versions so the
// test below can assert that a warmed-up fused forward performs no heap
// allocation at all — the acceptance criterion for the arena-backed serve
// path. Counting is a single relaxed atomic per allocation, far too small
// to perturb the other tests. Under AddressSanitizer the replacement is
// compiled out — ASan's own new/delete interceptors flag a malloc-backed
// operator new as an alloc-dealloc mismatch — and the test falls back to
// the arena growth counter, which ASan does not perturb.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
#define HIRE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HIRE_TEST_ASAN 1
#endif
#endif

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

#if !defined(HIRE_TEST_ASAN)

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !HIRE_TEST_ASAN

namespace hire {
namespace core {
namespace {

TEST(InferenceForwardTest, WarmForwardAllocatesZeroHeap) {
  // Run single-threaded so every kernel executes inline; the parallel
  // runtime's task submission is the one legitimate allocator on the hot
  // path and the serve tier sizes it at startup, not per request.
  SetGlobalThreads(1);
  data::Dataset dataset = SmallDataset();
  HireModel model(&dataset, SmallConfig(), /*seed=*/31);
  model.SetTraining(false);
  const InferenceModel fused(model);
  InferenceArena arena;
  // Default serve batch shape (BatcherConfig{}.context_users/items).
  graph::PredictionContext context =
      SmallContext(dataset, /*seed=*/19, 16, 16);

  // Warm-up at q = n: grows the arena, faults in thread-local GEMM pack
  // buffers, and sizes the output tensor. Pruned forwards allocate no more
  // than the full one, so they must fit in what it warmed.
  fused.Predict(context, &arena);
  fused.Predict(context, &arena);

  for (const int64_t q : {int64_t{1}, int64_t{3}, int64_t{16}}) {
    const int64_t growth_before = arena.growth_count();
    const uint64_t allocs_before =
        g_heap_allocations.load(std::memory_order_relaxed);
    const Tensor& out = fused.Predict(context, &arena, q);
    const uint64_t allocs_after =
        g_heap_allocations.load(std::memory_order_relaxed);
#if !defined(HIRE_TEST_ASAN)
    EXPECT_EQ(allocs_after, allocs_before)
        << "a warmed-up fused forward must not touch the heap (q=" << q
        << ")";
#else
    // ASan owns operator new here; the counter stays at zero by design.
    EXPECT_EQ(allocs_after, allocs_before);
#endif
    EXPECT_EQ(arena.growth_count(), growth_before) << "q=" << q;
    EXPECT_EQ(out.shape(0), 16);
    EXPECT_EQ(out.shape(1), 16);
  }
  SetGlobalThreads(0);
}

}  // namespace
}  // namespace core
}  // namespace hire
