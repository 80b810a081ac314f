#include "core/trainer.h"

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "autograd/ops.h"
#include "core/checkpoint.h"
#include "graph/context_builder.h"
#include "obs/json.h"
#include "obs/kernel_timers.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optim/lamb.h"
#include "optim/lookahead.h"
#include "optim/lr_scheduler.h"
#include "optim/optimizer.h"
#include "utils/check.h"
#include "utils/fault_injection.h"
#include "utils/logging.h"
#include "utils/parallel.h"

namespace hire {
namespace core {

TrainStats TrainHire(HireModel* model, const graph::BipartiteGraph& graph,
                     const graph::ContextSampler& sampler,
                     const TrainerConfig& config) {
  HIRE_CHECK(model != nullptr);
  HIRE_CHECK_GT(config.num_steps, 0);
  HIRE_CHECK_GT(config.batch_size, 0);

  if (config.num_threads > 0) SetGlobalThreads(config.num_threads);
  HIRE_LOG(Info) << "training with " << GlobalThreads()
                 << " tensor worker thread(s)";

  Rng rng(config.seed);
  model->SetTraining(true);

  optim::LambConfig lamb_config;
  lamb_config.learning_rate = config.base_learning_rate;
  lamb_config.weight_decay = config.weight_decay;
  auto lamb = std::make_unique<optim::Lamb>(model->Parameters(), lamb_config);
  optim::Lookahead optimizer(std::move(lamb), config.lookahead_alpha,
                             config.lookahead_period);
  optim::FlatThenCosineSchedule schedule(config.base_learning_rate,
                                         config.num_steps,
                                         config.flat_fraction);

  TrainStats stats;
  stats.step_losses.reserve(static_cast<size_t>(config.num_steps));
  Stopwatch stopwatch;
  const KernelTimers::Snapshot run_start = KernelTimers::Take();
  KernelTimers::Snapshot window_start = run_start;
  KernelTimers::Snapshot telemetry_window = run_start;

  obs::TelemetrySink& telemetry = obs::TelemetrySink::Global();
  const int64_t telemetry_every =
      config.telemetry_every > 0 ? config.telemetry_every : 1;
  // Registry handles are stable pointers; resolving them once keeps the step
  // loop free of registry lookups.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Gauge* loss_gauge = registry.GetGauge("train.loss");
  obs::Gauge* grad_norm_gauge = registry.GetGauge("train.grad_norm");
  obs::Gauge* lr_gauge = registry.GetGauge("train.lr");
  obs::Counter* steps_counter = registry.GetCounter("train.steps");
  obs::Counter* skipped_counter = registry.GetCounter("train.skipped_steps");
  obs::Counter* rollback_counter = registry.GetCounter("train.rollbacks");
  obs::Counter* checkpoint_counter =
      registry.GetCounter("train.checkpoints_written");
  obs::Histogram* step_seconds_hist =
      registry.GetHistogram("train.step_seconds");

  const bool checkpointing =
      config.checkpoint_every > 0 && !config.checkpoint_dir.empty();
  int64_t step = 0;
  float lr_scale = 1.0f;

  if (config.resume && !config.checkpoint_dir.empty()) {
    HIRE_TRACE_SCOPE("checkpoint_load");
    if (auto loaded = LoadLatestCheckpoint(config.checkpoint_dir)) {
      const ResumeInfo info =
          RestoreTrainingState(loaded->state, model, &optimizer, &rng);
      step = info.next_step;
      lr_scale = info.lr_scale;
      HIRE_LOG(Info) << "resumed from '" << loaded->path << "' at step "
                     << step << " (lr scale " << lr_scale << ")";
      telemetry.WriteEvent("resume", step,
                           {{"path", obs::JsonString(loaded->path)},
                            {"lr_scale", obs::JsonNumber(lr_scale)}});
    } else {
      HIRE_LOG(Info) << "no usable checkpoint in '" << config.checkpoint_dir
                     << "'; starting from scratch";
    }
  }
  stats.start_step = step;

  // Divergence-guard rollback anchor: the last known-good snapshot, kept in
  // memory and refreshed whenever a checkpoint is written. With
  // checkpointing disabled the anchor is the starting state.
  StateDict last_good;
  bool has_anchor = false;
  size_t anchor_loss_count = 0;
  if (config.max_bad_steps > 0) {
    last_good = CaptureTrainingState(*model, optimizer, rng,
                                     ResumeInfo{step, lr_scale});
    has_anchor = true;
  }
  int consecutive_bad = 0;
  FaultInjector& faults = FaultInjector::Global();

  for (; step < config.num_steps; ++step) {
    faults.MaybeCrash(step);
    HIRE_TRACE_SCOPE("train_step");
    Stopwatch step_watch;
    optimizer.set_learning_rate(schedule.LearningRate(step) * lr_scale);
    {
      ScopedKernelTimer timer(KernelCategory::kOptimizer);
      optimizer.ZeroGrad();
    }

    // Accumulate the mini-batch loss (line 5-12 of Algorithm 1).
    ag::Variable batch_loss;
    {
      HIRE_TRACE_SCOPE("forward");
      for (int64_t b = 0; b < config.batch_size; ++b) {
        graph::PredictionContext context = graph::BuildTrainingContext(
            graph, sampler, config.context_users, config.context_items,
            config.visible_fraction, &rng);
        ag::Variable prediction = model->Forward(context);
        ag::Variable loss = ag::MaskedMSE(prediction, context.target_ratings,
                                          context.target_mask);
        batch_loss = batch_loss.defined() ? ag::Add(batch_loss, loss) : loss;
      }
      batch_loss = ag::MulScalar(batch_loss,
                                 1.0f / static_cast<float>(config.batch_size));
    }
    if (faults.ConsumeNanLoss(step)) {
      batch_loss = ag::MulScalar(batch_loss,
                                 std::numeric_limits<float>::quiet_NaN());
    }

    {
      HIRE_TRACE_SCOPE("backward");
      batch_loss.Backward();
    }
    const float loss_value = batch_loss.value().flat(0);
    float grad_norm = 0.0f;
    {
      ScopedKernelTimer timer(KernelCategory::kOptimizer);
      HIRE_TRACE_SCOPE("grad_clip");
      grad_norm =
          optim::ClipGradNorm(optimizer.parameters(), config.gradient_clip);
    }

    // Divergence guard: never let a non-finite loss or gradient reach the
    // parameters. The poisoned step is skipped; after max_bad_steps
    // consecutive bad steps, roll back to the last good snapshot and back
    // off the learning rate.
    if (config.max_bad_steps > 0 &&
        (!std::isfinite(loss_value) || !std::isfinite(grad_norm))) {
      ++stats.skipped_steps;
      ++consecutive_bad;
      skipped_counter->Increment();
      HIRE_LOG(Warning) << "step " << step << ": non-finite loss ("
                        << loss_value << ") or grad norm (" << grad_norm
                        << "); skipping update (" << consecutive_bad << "/"
                        << config.max_bad_steps << " before rollback)";
      telemetry.WriteEvent(
          "nonfinite_step_skipped", step,
          {{"loss", obs::JsonNumber(loss_value)},
           {"grad_norm", obs::JsonNumber(grad_norm)},
           {"consecutive_bad", std::to_string(consecutive_bad)}});
      if (consecutive_bad >= config.max_bad_steps && has_anchor) {
        const ResumeInfo info =
            RestoreTrainingState(last_good, model, &optimizer, &rng);
        // Compound off the running scale, not the anchor's stored one: the
        // anchor only refreshes at checkpoint writes, so re-reading its
        // scale on a second rollback would restore identical params/RNG
        // with an identical rate and replay the same diverging trajectory
        // forever.
        lr_scale *= config.divergence_lr_backoff;
        stats.step_losses.resize(anchor_loss_count);
        ++stats.rollbacks;
        rollback_counter->Increment();
        telemetry.WriteEvent("rollback", step,
                             {{"restored_step",
                               std::to_string(info.next_step)},
                              {"lr_scale", obs::JsonNumber(lr_scale)}});
        consecutive_bad = 0;
        HIRE_CHECK(config.max_rollbacks <= 0 ||
                   stats.rollbacks <= config.max_rollbacks)
            << "training rolled back " << stats.rollbacks
            << " times without recovering (lr scale down to " << lr_scale
            << "); aborting";
        HIRE_LOG(Warning) << "rolled back to step " << info.next_step
                          << " with lr scale " << lr_scale;
        step = info.next_step - 1;  // loop increment lands on next_step
      }
      continue;
    }
    consecutive_bad = 0;

    {
      ScopedKernelTimer timer(KernelCategory::kOptimizer);
      HIRE_TRACE_SCOPE("optimizer_step");
      optimizer.Step();
    }

    stats.step_losses.push_back(loss_value);
    steps_counter->Increment();
    loss_gauge->Set(loss_value);
    grad_norm_gauge->Set(grad_norm);
    lr_gauge->Set(optimizer.learning_rate());
    step_seconds_hist->Record(step_watch.ElapsedSeconds());
    if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
      const KernelTimers::Snapshot now = KernelTimers::Take();
      HIRE_LOG(Info) << "step " << (step + 1) << "/" << config.num_steps
                     << " loss " << loss_value << " lr "
                     << optimizer.learning_rate() << " | kernels: "
                     << (now - window_start).ToString();
      window_start = now;
    }
    if (telemetry.enabled() && (step + 1) % telemetry_every == 0) {
      obs::StepTelemetry record;
      record.step = step + 1;
      record.total_steps = config.num_steps;
      record.loss = loss_value;
      record.grad_norm = grad_norm;
      record.lr = optimizer.learning_rate();
      record.lr_scale = lr_scale;
      record.wall_seconds = step_watch.ElapsedSeconds();
      const KernelTimers::Snapshot now = KernelTimers::Take();
      record.kernel_delta = now - telemetry_window;
      record.has_kernel_delta = true;
      telemetry_window = now;
      telemetry.WriteStep(record);
    }

    if (checkpointing && (step + 1) % config.checkpoint_every == 0) {
      HIRE_TRACE_SCOPE("checkpoint_write");
      StateDict snapshot = CaptureTrainingState(
          *model, optimizer, rng, ResumeInfo{step + 1, lr_scale});
      const std::string path =
          WriteCheckpoint(config.checkpoint_dir, step + 1, snapshot,
                          config.checkpoint_keep);
      ++stats.checkpoints_written;
      checkpoint_counter->Increment();
      telemetry.WriteEvent("checkpoint_write", step + 1,
                           {{"path", obs::JsonString(path)}});
      if (config.max_bad_steps > 0 &&
          !faults.AnyCheckpointCorruptionArmed()) {
        last_good = std::move(snapshot);
        has_anchor = true;
        anchor_loss_count = stats.step_losses.size();
      }
    }
  }

  stats.final_loss =
      stats.step_losses.empty() ? 0.0f : stats.step_losses.back();
  stats.final_lr_scale = lr_scale;
  stats.train_seconds = stopwatch.ElapsedSeconds();
  const KernelTimers::Snapshot run_delta = KernelTimers::Take() - run_start;
  stats.matmul_seconds = run_delta.Seconds(KernelCategory::kMatMul);
  stats.softmax_seconds = run_delta.Seconds(KernelCategory::kSoftmax);
  stats.attention_seconds = run_delta.Seconds(KernelCategory::kAttention);
  stats.optimizer_seconds = run_delta.Seconds(KernelCategory::kOptimizer);
  stats.layernorm_seconds = run_delta.Seconds(KernelCategory::kLayerNorm);
  stats.embedding_seconds = run_delta.Seconds(KernelCategory::kEmbedding);
  stats.sampling_seconds = run_delta.Seconds(KernelCategory::kSampling);
  stats.checkpoint_io_seconds =
      run_delta.Seconds(KernelCategory::kCheckpointIo);
  if (config.log_every > 0) {
    HIRE_LOG(Info) << "kernel-time breakdown over " << config.num_steps
                   << " steps: " << run_delta.ToString();
  }
  model->SetTraining(false);
  return stats;
}

}  // namespace core
}  // namespace hire
