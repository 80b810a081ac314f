#ifndef HIRE_BENCH_BENCH_COMMON_H_
#define HIRE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/hire_config.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "metrics/ranking_metrics.h"

namespace hire {
namespace bench {

/// Shared configuration for the experiment harness. Values are CPU-scale
/// defaults; the environment variables HIRE_BENCH_SCALE, HIRE_BENCH_SEEDS,
/// HIRE_BENCH_STEPS and HIRE_BENCH_EVAL_USERS override them so the full
/// paper-scale run is one shell variable away.
struct BenchOptions {
  /// Multiplier on entity/rating counts of the dataset profiles.
  double dataset_scale = 1.0;
  /// Independent runs (split + init seeds); tables report mean(std).
  int num_seeds = 2;

  /// HIRE training budget (Algorithm 1 steps). ~600 steps is where HIRE
  /// overtakes the CF baselines on the CPU-scale profiles.
  int64_t hire_steps = 600;
  int64_t hire_batch_size = 2;
  int64_t context_users = 16;
  int64_t context_items = 16;

  /// Pointwise baseline training budget.
  int64_t baseline_steps = 500;
  /// MeLU meta-iterations.
  int64_t melu_iterations = 150;

  /// Evaluation protocol.
  int64_t max_eval_users = 40;
  int min_query_items = 5;
  std::vector<int> top_ks = {5, 7, 10};

  /// Warm fraction of entities (paper: 0.8 ML-1M, 0.7 others).
  double train_fraction = 0.8;

  /// CPU-scale HIRE model (paper-scale: 8 heads x 16, f = 16).
  core::HireConfig hire_config;

  /// Builds the defaults and applies environment overrides.
  static BenchOptions FromEnv();
};

/// One method's aggregated results on one scenario.
struct MethodResult {
  std::string method;
  /// Per-seed metric samples keyed by cut-off k.
  std::map<int, std::vector<double>> precision;
  std::map<int, std::vector<double>> ndcg;
  std::map<int, std::vector<double>> map;
  /// Prediction time of the evaluation, summed over seeds. Each seed's
  /// evaluation is timed kTestTimingPasses times on the one trained
  /// predictor: total_test_seconds adds the median pass, the min and max
  /// fields the fastest and slowest.
  double total_test_seconds = 0.0;
  double total_test_seconds_min = 0.0;
  double total_test_seconds_max = 0.0;
  double total_train_seconds = 0.0;
};

/// Timed evaluation passes per method and seed in RunMethodOnce. One pass
/// of a method's test time moves by tens of percent between runs on a
/// shared host; the median of five does not.
constexpr int kTestTimingPasses = 5;

/// Trains the named method on `split` and evaluates it through the shared
/// cold-start protocol. Known methods: "HIRE", "NeuMF", "Wide&Deep",
/// "DeepFM", "AFN", "GraphRec", "MeLU-FO", "ItemKNN", "Popularity".
/// Appends one sample per metric into `result`.
void RunMethodOnce(const std::string& method, const data::Dataset& dataset,
                   const data::ColdStartSplit& split,
                   const BenchOptions& options, uint64_t seed,
                   MethodResult* result);

/// Runs every method over every scenario with `options.num_seeds` seeds and
/// prints a paper-style table per scenario (rows = methods, columns =
/// Precision/NDCG/MAP @ {5,7,10} as mean(std)).
void RunOverallComparison(const data::SyntheticConfig& profile,
                          const std::vector<std::string>& methods,
                          const BenchOptions& options, std::ostream& out);

/// Trains one HIRE variant and evaluates it on one scenario; returns the
/// metrics at k = 5 (the cut-off the paper uses for its sensitivity and
/// ablation plots). `sampler` drives both training-context construction and
/// test-context construction.
metrics::RankingMetrics RunHireVariant(const data::Dataset& dataset,
                                       data::ColdStartScenario scenario,
                                       const core::HireConfig& hire_config,
                                       const graph::ContextSampler& sampler,
                                       int64_t steps, int64_t context_users,
                                       int64_t context_items,
                                       const BenchOptions& options,
                                       uint64_t seed);

/// Formats "0.1234(.0056)" like the paper's cells.
std::string FormatMeanStd(const metrics::MeanStd& stats);

/// Renders one scenario's results as a table.
void PrintScenarioTable(const std::string& title,
                        const std::vector<MethodResult>& results,
                        const std::vector<int>& top_ks, std::ostream& out);

}  // namespace bench
}  // namespace hire

#endif  // HIRE_BENCH_BENCH_COMMON_H_
