#include "core/evaluation.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/context_builder.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "utils/check.h"
#include "utils/stopwatch.h"
#include "utils/parallel.h"

namespace hire {
namespace core {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ SplitMix64(b));
}

// Uniform double in [0, 1) derived from the hash of `x`.
double Hash01(uint64_t x) {
  return static_cast<double>(SplitMix64(x) >> 11) * 0x1.0p-53;
}

}  // namespace

UserContextPlan BuildUserContextPlan(const graph::BipartiteGraph& graph,
                                     const graph::ContextSampler& sampler,
                                     int64_t user, int64_t context_users,
                                     int64_t context_items, uint64_t seed) {
  ScopedKernelTimer timer(KernelCategory::kSampling);
  HIRE_TRACE_SCOPE("context_sampling");
  HIRE_CHECK_GT(context_users, 0);
  HIRE_CHECK_GT(context_items, 0);

  // Reserve part of the item budget for the user's own visible (support)
  // items: they carry the collaborative evidence HIRE's user row needs. The
  // rest of the pool is filled by the sampler's neighborhood walk.
  const std::vector<int64_t>& support_items = graph.ItemsOfUser(user);
  const int64_t support_reserve = std::min<int64_t>(
      static_cast<int64_t>(support_items.size()), context_items / 2);
  const std::vector<int64_t> seed_items(
      support_items.begin(), support_items.begin() + support_reserve);

  // The rng is a pure function of (seed, user): the plan never depends on
  // caller rng state or call history, which is what makes predictions
  // deterministic and the plan cacheable across serving requests.
  Rng rng(MixSeed(seed, static_cast<uint64_t>(user)));
  graph::ContextSelection selection = sampler.Sample(
      graph, {user}, seed_items, context_users, context_items, &rng);

  UserContextPlan plan;
  plan.user = user;
  plan.context_users = std::move(selection.users);
  plan.base_items = std::move(selection.items);
  plan.num_support_items = support_reserve;
  HIRE_CHECK(!plan.context_users.empty());
  HIRE_CHECK_EQ(plan.context_users[0], user);
  return plan;
}

void ThinObservedCells(graph::PredictionContext* context, int64_t keep_rows,
                       double visible_fraction, uint64_t seed) {
  HIRE_CHECK(context != nullptr);
  if (visible_fraction >= 1.0) return;
  const int64_t n = context->num_users();
  const int64_t m = context->num_items();
  for (int64_t r = keep_rows; r < n; ++r) {
    const uint64_t row_hash =
        MixSeed(seed, static_cast<uint64_t>(context->users[r]));
    for (int64_t c = 0; c < m; ++c) {
      if (context->observed_mask.at(r, c) <= 0.0f) continue;
      const uint64_t cell =
          MixSeed(row_hash, static_cast<uint64_t>(context->items[c]));
      if (Hash01(cell) >= visible_fraction) {
        context->observed_mask.at(r, c) = 0.0f;
        context->observed_ratings.at(r, c) = 0.0f;
      }
    }
  }
}

HirePredictor::HirePredictor(HireModel* model,
                             const graph::ContextSampler* sampler,
                             int64_t context_users, int64_t context_items,
                             uint64_t seed, double context_visible_fraction)
    : model_(model),
      sampler_(sampler),
      context_users_(context_users),
      context_items_(context_items),
      context_visible_fraction_(context_visible_fraction),
      seed_(seed) {
  HIRE_CHECK(model_ != nullptr);
  HIRE_CHECK(sampler_ != nullptr);
  HIRE_CHECK_GT(context_users_, 0);
  HIRE_CHECK_GT(context_items_, 0);
  HIRE_CHECK(context_visible_fraction_ > 0.0 &&
             context_visible_fraction_ <= 1.0);
}

std::vector<float> HirePredictor::PredictForUser(
    int64_t user, const std::vector<int64_t>& items,
    const graph::BipartiteGraph& visible_graph) {
  HIRE_TRACE_SCOPE("predict_user");
  std::vector<float> predictions;
  predictions.reserve(items.size());

  // One sampler walk per call: the context rows and the base item pool
  // (support first, then neighborhood fill) are shared by every chunk.
  const UserContextPlan plan = BuildUserContextPlan(
      visible_graph, *sampler_, user, context_users_, context_items_, seed_);
  const int64_t chunk_capacity =
      std::max<int64_t>(1, context_items_ - plan.num_support_items);

  for (size_t begin = 0; begin < items.size();
       begin += static_cast<size_t>(chunk_capacity)) {
    const size_t end =
        std::min(items.size(), begin + static_cast<size_t>(chunk_capacity));
    const std::vector<int64_t> chunk(items.begin() + begin,
                                     items.begin() + end);

    // Columns: the query chunk first (so predictions line up with the
    // leading columns), then base-pool items (support first) until the item
    // budget is reached. The column set depends only on the chunk contents,
    // never on other chunks.
    std::vector<int64_t> columns = chunk;
    std::unordered_set<int64_t> in_columns(chunk.begin(), chunk.end());
    for (int64_t base : plan.base_items) {
      if (static_cast<int64_t>(columns.size()) >= context_items_) break;
      if (in_columns.insert(base).second) columns.push_back(base);
    }

    graph::ContextSelection selection;
    selection.users = plan.context_users;
    selection.items = std::move(columns);
    graph::PredictionContext context =
        graph::AssembleContext(visible_graph, std::move(selection));

    // Thin the context's observed ratings to the training density (the
    // paper keeps 10% visible at test time as well). The target user's
    // support row is always preserved, and the per-cell hash keeps the
    // visible set independent of the chunk partition.
    ThinObservedCells(&context, /*keep_rows=*/1, context_visible_fraction_,
                      seed_);

    // Fused tape-free forward (packed once, first call). Falls within 1e-5
    // of model_->Predict — see the equivalence tests in tests/core_test.cc.
    // Only the target user's row is read, so only row 0 is computed.
    if (inference_ == nullptr) {
      inference_ = std::make_unique<InferenceModel>(*model_);
    }
    const Tensor& predicted =
        inference_->Predict(context, &arena_, /*query_rows=*/1);

    // The seed user is the first row; seed items are the first columns
    // (samplers preserve seed order).
    HIRE_CHECK_EQ(context.users[0], user);
    for (size_t j = 0; j < chunk.size(); ++j) {
      HIRE_CHECK_EQ(context.items[j], chunk[j]);
      predictions.push_back(predicted.at(0, static_cast<int64_t>(j)));
    }
  }
  return predictions;
}

EvalResult EvaluateColdStart(RatingPredictor* predictor,
                             const data::Dataset& dataset,
                             const data::ColdStartSplit& split,
                             const EvalConfig& config) {
  HIRE_CHECK(predictor != nullptr);
  HIRE_CHECK(config.support_fraction >= 0.0 && config.support_fraction < 1.0);
  if (config.num_threads > 0) SetGlobalThreads(config.num_threads);
  Rng rng(config.seed);

  // Reveal support_fraction of the test ratings as context input; the rest
  // are prediction queries.
  std::vector<data::Rating> shuffled = split.test_ratings;
  rng.Shuffle(&shuffled);
  const size_t support_count = static_cast<size_t>(
      config.support_fraction * static_cast<double>(shuffled.size()));

  std::vector<data::Rating> visible_ratings = split.train_ratings;
  visible_ratings.insert(visible_ratings.end(), shuffled.begin(),
                         shuffled.begin() + static_cast<int64_t>(support_count));
  const graph::BipartiteGraph visible_graph(
      dataset.num_users(), dataset.num_items(), visible_ratings);

  // Group query ratings by user.
  std::unordered_map<int64_t, std::vector<data::Rating>> queries_by_user;
  for (size_t r = support_count; r < shuffled.size(); ++r) {
    queries_by_user[shuffled[r].user].push_back(shuffled[r]);
  }

  std::vector<int64_t> eval_users;
  for (const auto& [user, ratings] : queries_by_user) {
    if (static_cast<int>(ratings.size()) >= config.min_query_items) {
      eval_users.push_back(user);
    }
  }
  std::sort(eval_users.begin(), eval_users.end());
  rng.Shuffle(&eval_users);
  if (config.max_eval_users > 0 &&
      static_cast<int64_t>(eval_users.size()) > config.max_eval_users) {
    eval_users.resize(static_cast<size_t>(config.max_eval_users));
  }
  HIRE_CHECK(!eval_users.empty())
      << "no user has >= " << config.min_query_items
      << " query ratings; shrink min_query_items or enlarge the dataset";

  const float threshold = dataset.RelevanceThreshold();
  std::map<int, std::vector<metrics::RankingMetrics>> per_user;
  EvalResult result;
  Stopwatch stopwatch;

  for (int64_t user : eval_users) {
    const auto& ratings = queries_by_user[user];
    std::vector<int64_t> items;
    std::vector<float> actual;
    items.reserve(ratings.size());
    actual.reserve(ratings.size());
    for (const data::Rating& rating : ratings) {
      items.push_back(rating.item);
      actual.push_back(rating.value);
    }

    stopwatch.Reset();
    const std::vector<float> predicted =
        predictor->PredictForUser(user, items, visible_graph);
    result.predict_seconds += stopwatch.ElapsedSeconds();
    HIRE_CHECK_EQ(predicted.size(), items.size());

    for (int k : config.top_ks) {
      per_user[k].push_back(
          metrics::ComputeRankingMetrics(predicted, actual, k, threshold));
    }
    ++result.num_lists;
  }

  for (const auto& [k, metrics_list] : per_user) {
    result.by_k[k] = metrics::AverageMetrics(metrics_list);
  }
  obs::TelemetrySink::Global().WriteEvent(
      "eval_complete", /*step=*/0,
      {{"num_lists", std::to_string(result.num_lists)},
       {"predict_seconds", obs::JsonNumber(result.predict_seconds)}});
  return result;
}

}  // namespace core
}  // namespace hire
