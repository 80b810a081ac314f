// Reproduces Fig. 9 (case study): trains HIRE on the MovieLens-1M profile,
// captures the attention weights of the last HIM block on one prediction
// context, and renders the three attention matrices as ASCII heatmaps:
//   (a) MBU — attention among users, for one item view;
//   (b) MBI — attention among items, for one user view;
//   (c/d) MBA — attention among attribute slots for a high-rated and a
//         low-rated user-item pair.
// It also reports the rating-consistency check the paper performs: the
// strongest user-user attention pairs should have closer ground-truth
// ratings on the shared item than average pairs.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/attention_analysis.h"
#include "core/hire_model.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/context_builder.h"
#include "graph/samplers.h"
#include "tensor/tensor.h"
#include "utils/string_utils.h"

namespace {

using namespace hire;
using core::AverageHeads;

void PrintHeatmap(const std::string& title, const Tensor& attention) {
  float max_value = 0.0f;
  for (int64_t i = 0; i < attention.size(); ++i) {
    max_value = std::max(max_value, attention.flat(i));
  }
  std::cout << "\n" << title << " (max weight " << FormatDouble(max_value, 3)
            << ")\n" << core::RenderHeatmap(attention);
}

}  // namespace

int main() {
  bench::BenchOptions options = bench::BenchOptions::FromEnv();
  const data::Dataset dataset = data::GenerateSyntheticDataset(
      data::MovieLens1MProfile(options.dataset_scale), 20240601);
  std::cout << "Fig. 9 reproduction — attention case study on MovieLens-1M "
               "profile\n";

  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  core::HireModel model(&dataset, options.hire_config, 1234);
  graph::NeighborhoodSampler sampler;
  core::TrainerConfig trainer;
  trainer.num_steps = options.hire_steps / 2;
  trainer.batch_size = options.hire_batch_size;
  trainer.context_users = options.context_users;
  trainer.context_items = options.context_items;
  trainer.seed = 77;
  core::TrainHire(&model, graph, sampler, trainer);

  // Build one context of 16 users x 16 items and capture attention.
  Rng rng(99);
  graph::PredictionContext context =
      graph::BuildTrainingContext(graph, sampler, 16, 16, 0.3, &rng);
  model.EnableAttentionCapture(true);
  const Tensor predicted = model.Predict(context);
  const core::HimBlock& last_him =
      model.him_block(options.hire_config.num_him_blocks - 1);

  // (a) MBU for the first item view.
  const Tensor mbu = AverageHeads(last_him.captured_user_attention(), 0);
  PrintHeatmap("(a) MBU: attention among 16 users, view of item " +
                   std::to_string(context.items[0]),
               mbu);

  // (b) MBI for the first user view.
  const Tensor mbi = AverageHeads(last_him.captured_item_attention(), 0);
  PrintHeatmap("(b) MBI: attention among 16 items, view of user " +
                   std::to_string(context.users[0]),
               mbi);

  // (c)/(d) MBA for a high-rated and a low-rated observed pair.
  int64_t high_cell = -1;
  int64_t low_cell = -1;
  for (int64_t flat = 0; flat < context.observed_mask.size(); ++flat) {
    if (context.observed_mask.flat(flat) == 0.0f) continue;
    const float value = context.observed_ratings.flat(flat);
    if (value >= dataset.RelevanceThreshold() && high_cell < 0) {
      high_cell = flat;
    }
    if (value <= 2.0f && low_cell < 0) low_cell = flat;
  }
  if (high_cell >= 0) {
    const Tensor mba =
        AverageHeads(last_him.captured_attribute_attention(), high_cell);
    PrintHeatmap("(c) MBA: attribute attention for a HIGH-rated pair (rating " +
                     FormatDouble(context.observed_ratings.flat(high_cell), 0) +
                     ")",
                 mba);
  }
  if (low_cell >= 0) {
    const Tensor mba =
        AverageHeads(last_him.captured_attribute_attention(), low_cell);
    PrintHeatmap("(d) MBA: attribute attention for a LOW-rated pair (rating " +
                     FormatDouble(context.observed_ratings.flat(low_cell), 0) +
                     ")",
                 mba);
  }

  // Rating-consistency analysis: for the strongest off-diagonal user-user
  // attention entries, compare the two users' ground-truth ratings on the
  // viewed item against the average disagreement.
  const std::vector<core::AttentionEdge> edges =
      core::TopAttentionEdges(mbu, 16 * 15);

  std::cout << "\nRating consistency for item " << context.items[0]
            << " (top user-user attention pairs):\n";
  int shown = 0;
  for (const core::AttentionEdge& edge : edges) {
    const auto r_from =
        graph.GetRating(context.users[static_cast<size_t>(edge.from)],
                        context.items[0]);
    const auto r_to = graph.GetRating(
        context.users[static_cast<size_t>(edge.to)], context.items[0]);
    if (!r_from.has_value() || !r_to.has_value()) continue;
    std::cout << "  user " << context.users[static_cast<size_t>(edge.from)]
              << " attends to user "
              << context.users[static_cast<size_t>(edge.to)] << " (weight "
              << FormatDouble(edge.weight, 3) << "): actual ratings "
              << FormatDouble(*r_from, 0) << " vs " << FormatDouble(*r_to, 0)
              << ", predicted "
              << FormatDouble(predicted.at(edge.from, 0), 2) << " vs "
              << FormatDouble(predicted.at(edge.to, 0), 2) << "\n";
    if (++shown >= 5) break;
  }
  if (shown == 0) {
    std::cout << "  (no attended pair with two observed ratings on this "
                 "item)\n";
  }
  return 0;
}
