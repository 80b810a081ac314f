#include "bench/bench_common.h"

#include <cstdlib>
#include <memory>

#include "baselines/afn.h"
#include "baselines/deepfm.h"
#include "baselines/graphrec_lite.h"
#include "baselines/matrix_factorization.h"
#include "baselines/melu_fo.h"
#include "baselines/neumf.h"
#include "baselines/tanp_lite.h"
#include "baselines/pointwise_trainer.h"
#include "baselines/simple_baselines.h"
#include "baselines/wide_deep.h"
#include "core/hire_model.h"
#include "graph/bipartite_graph.h"
#include "graph/samplers.h"
#include "utils/check.h"
#include "utils/logging.h"
#include "obs/stopwatch.h"
#include "utils/string_utils.h"
#include "utils/table_printer.h"

namespace hire {
namespace bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? ParseDouble(raw) : fallback;
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? ParseInt64(raw) : fallback;
}

}  // namespace

BenchOptions BenchOptions::FromEnv() {
  BenchOptions options;
  // CPU-scale HIRE width; set HIRE_BENCH_PAPER_WIDTH=1 for the paper's
  // 8 heads x 16 with f = 16.
  options.hire_config.num_him_blocks = 3;
  options.hire_config.num_heads = 4;
  options.hire_config.head_dim = 8;
  options.hire_config.attr_embed_dim = 8;

  options.dataset_scale = EnvDouble("HIRE_BENCH_SCALE", options.dataset_scale);
  options.num_seeds = static_cast<int>(
      EnvInt("HIRE_BENCH_SEEDS", options.num_seeds));
  options.hire_steps = EnvInt("HIRE_BENCH_STEPS", options.hire_steps);
  options.baseline_steps =
      EnvInt("HIRE_BENCH_BASELINE_STEPS", options.baseline_steps);
  options.melu_iterations =
      EnvInt("HIRE_BENCH_MELU_ITERS", options.melu_iterations);
  options.max_eval_users =
      EnvInt("HIRE_BENCH_EVAL_USERS", options.max_eval_users);
  if (EnvInt("HIRE_BENCH_PAPER_WIDTH", 0) != 0) {
    options.hire_config.num_heads = 8;
    options.hire_config.head_dim = 16;
    options.hire_config.attr_embed_dim = 16;
    options.context_users = 32;
    options.context_items = 32;
  }
  return options;
}

void RunMethodOnce(const std::string& method, const data::Dataset& dataset,
                   const data::ColdStartSplit& split,
                   const BenchOptions& options, uint64_t seed,
                   MethodResult* result) {
  HIRE_CHECK(result != nullptr);
  result->method = method;

  const graph::BipartiteGraph train_graph(
      dataset.num_users(), dataset.num_items(), split.train_ratings);
  graph::NeighborhoodSampler sampler;

  core::EvalConfig eval_config;
  eval_config.top_ks = options.top_ks;
  eval_config.min_query_items = options.min_query_items;
  eval_config.max_eval_users = options.max_eval_users;
  eval_config.seed = seed ^ 0xE7A1u;

  Stopwatch train_watch;
  std::unique_ptr<core::RatingPredictor> predictor;
  // Keep trained models alive for the predictor's lifetime.
  std::unique_ptr<core::HireModel> hire_model;
  std::unique_ptr<baselines::PointwiseModel> pointwise_model;
  std::unique_ptr<baselines::MeLUFO> melu_model;
  std::unique_ptr<baselines::TaNPLite> tanp_model;

  if (method == "HIRE") {
    hire_model = std::make_unique<core::HireModel>(
        &dataset, options.hire_config, seed);
    core::TrainerConfig trainer;
    trainer.num_steps = options.hire_steps;
    trainer.batch_size = options.hire_batch_size;
    trainer.context_users = options.context_users;
    trainer.context_items = options.context_items;
    trainer.seed = seed + 1;
    core::TrainHire(hire_model.get(), train_graph, sampler, trainer);
    predictor = std::make_unique<core::HirePredictor>(
        hire_model.get(), &sampler, options.context_users,
        options.context_items, seed + 2);
  } else if (method == "MeLU-FO") {
    baselines::MeLUConfig config;
    config.meta_iterations = options.melu_iterations;
    config.seed = seed;
    melu_model = std::make_unique<baselines::MeLUFO>(&dataset, 8, config);
    melu_model->MetaTrain(split.train_ratings);
    // MeLUFO is its own predictor.
  } else if (method == "TaNP-lite") {
    baselines::TaNPConfig config;
    config.meta_iterations = options.melu_iterations * 2;
    config.seed = seed;
    tanp_model = std::make_unique<baselines::TaNPLite>(&dataset, 8, config);
    tanp_model->MetaTrain(split.train_ratings);
    // TaNPLite is its own predictor.
  } else if (method == "MF") {
    baselines::MfConfig config;
    config.seed = seed;
    auto mf = std::make_unique<baselines::MatrixFactorization>(&dataset,
                                                               config);
    mf->Fit(split.train_ratings);
    predictor = std::move(mf);
  } else if (method == "ItemKNN") {
    predictor = std::make_unique<baselines::ItemKnnBaseline>(
        &dataset, split.train_ratings);
  } else if (method == "Popularity") {
    predictor = std::make_unique<baselines::PopularityBaseline>(
        &dataset, split.train_ratings);
  } else {
    if (method == "NeuMF") {
      pointwise_model = std::make_unique<baselines::NeuMF>(&dataset, 8, seed);
    } else if (method == "Wide&Deep") {
      pointwise_model =
          std::make_unique<baselines::WideDeep>(&dataset, 8, seed);
    } else if (method == "DeepFM") {
      pointwise_model = std::make_unique<baselines::DeepFM>(&dataset, 8, seed);
    } else if (method == "AFN") {
      pointwise_model =
          std::make_unique<baselines::AFN>(&dataset, 8, /*log_neurons=*/8,
                                           seed);
    } else if (method == "GraphRec") {
      HIRE_CHECK(dataset.has_social_network())
          << "GraphRec needs a social network (Douban profile)";
      pointwise_model = std::make_unique<baselines::GraphRecLite>(
          &dataset, 8, /*max_neighbors=*/12, seed);
    } else {
      HIRE_CHECK(false) << "unknown method '" << method << "'";
    }
    baselines::PointwiseTrainConfig trainer;
    trainer.num_steps = options.baseline_steps;
    trainer.seed = seed + 1;
    baselines::FitPointwise(pointwise_model.get(), split.train_ratings,
                            &train_graph, trainer);
    predictor = std::make_unique<baselines::PointwisePredictor>(
        pointwise_model.get());
  }
  result->total_train_seconds += train_watch.ElapsedSeconds();

  core::RatingPredictor* active =
      melu_model != nullptr
          ? static_cast<core::RatingPredictor*>(melu_model.get())
      : tanp_model != nullptr
          ? static_cast<core::RatingPredictor*>(tanp_model.get())
          : predictor.get();
  const core::EvalResult eval =
      core::EvaluateColdStart(active, dataset, split, eval_config);

  for (const auto& [k, m] : eval.by_k) {
    result->precision[k].push_back(m.precision);
    result->ndcg[k].push_back(m.ndcg);
    result->map[k].push_back(m.map);
  }
  result->total_test_seconds += eval.predict_seconds;
}

metrics::RankingMetrics RunHireVariant(const data::Dataset& dataset,
                                       data::ColdStartScenario scenario,
                                       const core::HireConfig& hire_config,
                                       const graph::ContextSampler& sampler,
                                       int64_t steps, int64_t context_users,
                                       int64_t context_items,
                                       const BenchOptions& options,
                                       uint64_t seed) {
  Rng split_rng(seed);
  const data::ColdStartSplit split = data::MakeColdStartSplit(
      dataset, scenario, options.train_fraction, &split_rng);
  const graph::BipartiteGraph train_graph(
      dataset.num_users(), dataset.num_items(), split.train_ratings);

  core::HireModel model(&dataset, hire_config, seed + 1);
  core::TrainerConfig trainer;
  trainer.num_steps = steps;
  trainer.batch_size = options.hire_batch_size;
  trainer.context_users = context_users;
  trainer.context_items = context_items;
  trainer.seed = seed + 2;
  core::TrainHire(&model, train_graph, sampler, trainer);

  core::HirePredictor predictor(&model, &sampler, context_users,
                                context_items, seed + 3);
  core::EvalConfig eval_config;
  eval_config.top_ks = {5};
  eval_config.min_query_items = options.min_query_items;
  eval_config.max_eval_users = options.max_eval_users;
  eval_config.seed = seed + 4;
  const core::EvalResult result =
      core::EvaluateColdStart(&predictor, dataset, split, eval_config);
  return result.by_k.at(5);
}

std::string FormatMeanStd(const metrics::MeanStd& stats) {
  std::string std_digits = FormatDouble(stats.stddev, 4);
  // "0.0123" -> "(.0123)" like the paper's subscripts.
  return FormatDouble(stats.mean, 4) + "(" + std_digits.substr(1) + ")";
}

void PrintScenarioTable(const std::string& title,
                        const std::vector<MethodResult>& results,
                        const std::vector<int>& top_ks, std::ostream& out) {
  std::vector<std::string> headers{"Method"};
  for (int k : top_ks) {
    headers.push_back("Pre@" + std::to_string(k));
    headers.push_back("NDCG@" + std::to_string(k));
    headers.push_back("MAP@" + std::to_string(k));
  }
  TablePrinter table(headers);
  for (const MethodResult& result : results) {
    std::vector<std::string> row{result.method};
    for (int k : top_ks) {
      row.push_back(FormatMeanStd(metrics::Aggregate(result.precision.at(k))));
      row.push_back(FormatMeanStd(metrics::Aggregate(result.ndcg.at(k))));
      row.push_back(FormatMeanStd(metrics::Aggregate(result.map.at(k))));
    }
    table.AddRow(std::move(row));
  }
  out << "\n== " << title << " ==\n";
  table.Print(out);
}

void RunOverallComparison(const data::SyntheticConfig& profile,
                          const std::vector<std::string>& methods,
                          const BenchOptions& options, std::ostream& out) {
  const data::Dataset dataset =
      data::GenerateSyntheticDataset(profile, /*seed=*/20240601);
  out << "dataset: " << dataset.Summary() << "\n";
  out << "config: seeds=" << options.num_seeds
      << " hire_steps=" << options.hire_steps
      << " context=" << options.context_users << "x" << options.context_items
      << " eval_users=" << options.max_eval_users << "\n";

  const data::ColdStartScenario scenarios[] = {
      data::ColdStartScenario::kUserCold,
      data::ColdStartScenario::kItemCold,
      data::ColdStartScenario::kUserItemCold,
  };

  for (const data::ColdStartScenario scenario : scenarios) {
    std::vector<MethodResult> results;
    for (const std::string& method : methods) {
      MethodResult result;
      for (int s = 0; s < options.num_seeds; ++s) {
        const uint64_t seed = 1000 + static_cast<uint64_t>(s) * 7919;
        Rng split_rng(seed);
        const data::ColdStartSplit split = data::MakeColdStartSplit(
            dataset, scenario, options.train_fraction, &split_rng);
        HIRE_LOG(Info) << data::ScenarioName(scenario) << " / " << method
                       << " seed " << s;
        RunMethodOnce(method, dataset, split, options, seed + 13, &result);
      }
      results.push_back(std::move(result));
    }
    PrintScenarioTable(data::ScenarioName(scenario), results, options.top_ks,
                       out);
  }
}

}  // namespace bench
}  // namespace hire
