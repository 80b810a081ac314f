#include "baselines/pointwise_trainer.h"

#include "autograd/ops.h"
#include "obs/stopwatch.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "tensor/random.h"
#include "utils/check.h"
#include "utils/logging.h"

namespace hire {
namespace baselines {

float FitPointwise(PointwiseModel* model,
                   const std::vector<data::Rating>& train_ratings,
                   const graph::BipartiteGraph* graph,
                   const PointwiseTrainConfig& config) {
  HIRE_CHECK(model != nullptr);
  HIRE_CHECK(!train_ratings.empty());
  Rng rng(config.seed);
  model->SetTraining(true);

  optim::AdamConfig adam_config;
  adam_config.learning_rate = config.learning_rate;
  adam_config.weight_decay = config.weight_decay;
  optim::Adam optimizer(model->Parameters(), adam_config);

  obs::TelemetrySink& telemetry = obs::TelemetrySink::Global();
  const int64_t telemetry_every =
      config.telemetry_every > 0 ? config.telemetry_every : 1;

  float last_loss = 0.0f;
  const int64_t pool = static_cast<int64_t>(train_ratings.size());
  for (int64_t step = 0; step < config.num_steps; ++step) {
    HIRE_TRACE_SCOPE("baseline_step");
    Stopwatch step_watch;
    std::vector<std::pair<int64_t, int64_t>> pairs;
    std::vector<float> targets;
    pairs.reserve(static_cast<size_t>(config.batch_size));
    targets.reserve(static_cast<size_t>(config.batch_size));
    for (int64_t b = 0; b < config.batch_size; ++b) {
      const data::Rating& rating =
          train_ratings[static_cast<size_t>(rng.UniformInt(pool))];
      pairs.emplace_back(rating.user, rating.item);
      targets.push_back(rating.value);
    }

    optimizer.ZeroGrad();
    ag::Variable predicted = model->ScoreBatch(pairs, graph);
    HIRE_CHECK_EQ(predicted.size(), config.batch_size);
    ag::Variable loss =
        ag::MSE(predicted, Tensor::FromVector(std::move(targets)));
    loss.Backward();
    optimizer.Step();

    last_loss = loss.value().flat(0);
    if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
      HIRE_LOG(Info) << model->name() << " step " << (step + 1) << "/"
                     << config.num_steps << " loss " << last_loss;
    }
    if (telemetry.enabled() && (step + 1) % telemetry_every == 0) {
      obs::StepTelemetry record;
      record.source = model->name();
      record.step = step + 1;
      record.total_steps = config.num_steps;
      record.loss = last_loss;
      record.lr = config.learning_rate;
      record.wall_seconds = step_watch.ElapsedSeconds();
      telemetry.WriteStep(record);
    }
  }
  model->SetTraining(false);
  return last_loss;
}

PointwisePredictor::PointwisePredictor(PointwiseModel* model)
    : model_(model) {
  HIRE_CHECK(model_ != nullptr);
}

std::string PointwisePredictor::name() const { return model_->name(); }

std::vector<float> PointwisePredictor::PredictForUser(
    int64_t user, const std::vector<int64_t>& items,
    const graph::BipartiteGraph& visible_graph) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(items.size());
  for (int64_t item : items) pairs.emplace_back(user, item);
  const ag::Variable predicted = model_->ScoreBatch(pairs, &visible_graph);
  std::vector<float> out(items.size());
  for (size_t j = 0; j < items.size(); ++j) {
    out[j] = predicted.value().flat(static_cast<int64_t>(j));
  }
  return out;
}

}  // namespace baselines
}  // namespace hire
