#ifndef HIRE_CORE_EVALUATION_H_
#define HIRE_CORE_EVALUATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hire_model.h"
#include "core/inference_forward.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "graph/bipartite_graph.h"
#include "graph/samplers.h"
#include "metrics/ranking_metrics.h"

namespace hire {
namespace core {

/// Uniform prediction interface shared by HIRE and every baseline, so all
/// models run through the identical cold-start evaluation protocol.
class RatingPredictor {
 public:
  virtual ~RatingPredictor() = default;

  virtual std::string name() const = 0;

  /// Predicts `user`'s ratings on `items`. `visible_graph` holds every
  /// rating the model may legitimately see at test time (training ratings
  /// plus the 10% support ratings of cold entities); query ratings are never
  /// in it.
  virtual std::vector<float> PredictForUser(
      int64_t user, const std::vector<int64_t>& items,
      const graph::BipartiteGraph& visible_graph) = 0;
};

/// The reusable half of a user's prediction context: the sampled context
/// user rows and a base item pool (the user's own support items first, then
/// neighborhood fill). Sampled once per (user, graph) and reused across
/// query chunks by HirePredictor, and across requests by the serving
/// context cache — a pure function of (graph, sampler, user, seed), so two
/// plans built from the same inputs are identical.
struct UserContextPlan {
  int64_t user = 0;
  /// Context rows, target user first. Size <= the row budget.
  std::vector<int64_t> context_users;
  /// Column pool: support items first (up to the reserve), then sampled
  /// neighborhood items. Size <= the item budget.
  std::vector<int64_t> base_items;
  /// How many leading base_items are the user's own support items.
  int64_t num_support_items = 0;

  /// Rough heap footprint, used by the serving cache for accounting.
  size_t ApproxBytes() const {
    return sizeof(UserContextPlan) +
           (context_users.capacity() + base_items.capacity()) *
               sizeof(int64_t);
  }
};

/// Samples a user's context plan: rows seeded with the user, columns seeded
/// with the user's visible (support) items. Deterministic given `seed`
/// (independent of any caller rng state or call history).
UserContextPlan BuildUserContextPlan(const graph::BipartiteGraph& graph,
                                     const graph::ContextSampler& sampler,
                                     int64_t user, int64_t context_users,
                                     int64_t context_items, uint64_t seed);

/// Thins `context`'s observed ratings to approximately `visible_fraction`
/// via a per-cell hash of (seed, row entity, column entity): whether a cell
/// stays visible depends only on its own identity, never on which other
/// cells share the context. The first `keep_rows` rows (the target users)
/// are always fully preserved.
void ThinObservedCells(graph::PredictionContext* context, int64_t keep_rows,
                       double visible_fraction, uint64_t seed);

/// Adapter exposing a trained HireModel through RatingPredictor: builds a
/// prediction context seeded with (user, query items), assembles visible
/// ratings, and reads the predicted cells off the decoded rating matrix —
/// of which only the target user's row 0 is computed. Query lists longer
/// than the item budget are processed in chunks.
///
/// Prediction is stateless: the context rows are sampled once per user from
/// a seed derived from (seed, user) and reused across every chunk, and the
/// visibility thinning is per-cell deterministic. Consequently the
/// predictions for a chunk depend only on (graph, seed, user, chunk
/// contents) — not on preceding chunks, other users, or call history.
class HirePredictor : public RatingPredictor {
 public:
  /// `context_visible_fraction` matches the paper's test protocol: only this
  /// share of the context's observed ratings stays visible (the target
  /// user's own support ratings are always kept), so test contexts follow
  /// the same density distribution the model was trained on.
  HirePredictor(HireModel* model, const graph::ContextSampler* sampler,
                int64_t context_users, int64_t context_items, uint64_t seed,
                double context_visible_fraction = 0.1);

  std::string name() const override { return "HIRE"; }

  std::vector<float> PredictForUser(
      int64_t user, const std::vector<int64_t>& items,
      const graph::BipartiteGraph& visible_graph) override;

 private:
  HireModel* model_;
  const graph::ContextSampler* sampler_;
  int64_t context_users_;
  int64_t context_items_;
  double context_visible_fraction_;
  uint64_t seed_;
  /// Tape-free fused forward, packed lazily on the first prediction (the
  /// model is trained by then) and reused for every subsequent call; the
  /// arena makes repeat predictions allocation-free. The tape model stays
  /// around as `model_` for attention capture and as the autograd
  /// reference.
  std::unique_ptr<InferenceModel> inference_;
  InferenceArena arena_;
};

/// Cold-start evaluation configuration (paper §VI-A).
struct EvalConfig {
  /// Fraction of test ratings revealed as support context; the rest are the
  /// prediction queries (paper: 10% / 90%).
  double support_fraction = 0.1;
  /// Ranking cut-offs reported (paper: 5, 7, 10).
  std::vector<int> top_ks = {5, 7, 10};
  /// Minimum query items a user needs to be scored.
  int min_query_items = 5;
  /// Cap on ranked lists (users) per evaluation for bounded runtime;
  /// <= 0 means no cap.
  int64_t max_eval_users = 60;
  /// Worker threads for the tensor kernels during prediction: > 0 resizes
  /// the process-wide pool, 0 keeps the current setting.
  int num_threads = 0;
  uint64_t seed = 99;
};

/// Aggregated evaluation outcome.
struct EvalResult {
  /// Mean Precision/NDCG/MAP per cut-off k.
  std::map<int, metrics::RankingMetrics> by_k;
  /// Wall-clock seconds spent inside the predictor (Fig. 6).
  double predict_seconds = 0.0;
  /// Number of ranked lists scored.
  int64_t num_lists = 0;
};

/// Runs the full cold-start protocol: reveals `support_fraction` of the test
/// ratings, builds the visible graph (train + support), groups the remaining
/// query ratings by user, asks the predictor to rank each user's query items
/// and scores the ranking against the actual ratings.
EvalResult EvaluateColdStart(RatingPredictor* predictor,
                             const data::Dataset& dataset,
                             const data::ColdStartSplit& split,
                             const EvalConfig& config);

}  // namespace core
}  // namespace hire

#endif  // HIRE_CORE_EVALUATION_H_
