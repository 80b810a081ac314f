#include "serve/batcher.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/evaluation.h"
#include "graph/context_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "utils/check.h"
#include "utils/fault_injection.h"
#include "utils/logging.h"

namespace hire {
namespace serve {

namespace {

RatingResponse FailedResponse(std::string error) {
  RatingResponse response;
  response.ok = false;
  response.error = std::move(error);
  return response;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double MicrosBetween(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// A default-constructed time_point marks a stage stamp as never taken.
bool Stamped(std::chrono::steady_clock::time_point tp) {
  return tp.time_since_epoch().count() != 0;
}

uint64_t SteadyNanos(std::chrono::steady_clock::time_point tp) {
  // Same timebase as obs::TraceNowNanos (steady clock since epoch), so
  // spans built from stage stamps line up with HIRE_TRACE_SCOPE spans.
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

constexpr int kNumRequestOutcomes = 5;

}  // namespace

VersionedGraph::VersionedGraph(graph::BipartiteGraph g, int64_t v)
    : graph(std::move(g)), version(v) {
  // Bias tables for the degraded-mode fallback predictor: per-user mean
  // observed rating, with the global mean covering unrated (cold) users.
  double total = 0.0;
  int64_t count = 0;
  std::vector<double> user_sum(static_cast<size_t>(graph.num_users()), 0.0);
  std::vector<int64_t> user_count(static_cast<size_t>(graph.num_users()), 0);
  for (int64_t user = 0; user < graph.num_users(); ++user) {
    for (int64_t item : graph.ItemsOfUser(user)) {
      const std::optional<float> rating = graph.GetRating(user, item);
      if (!rating.has_value()) continue;
      user_sum[static_cast<size_t>(user)] += *rating;
      ++user_count[static_cast<size_t>(user)];
      total += *rating;
      ++count;
    }
  }
  global_mean_rating =
      count > 0 ? static_cast<float>(total / static_cast<double>(count)) : 0.0f;
  user_mean_rating.resize(static_cast<size_t>(graph.num_users()),
                          global_mean_rating);
  for (size_t u = 0; u < user_mean_rating.size(); ++u) {
    if (user_count[u] > 0) {
      user_mean_rating[u] =
          static_cast<float>(user_sum[u] / static_cast<double>(user_count[u]));
    }
  }
}

RequestOutcome ClassifyOutcome(const RatingResponse& response) {
  if (response.ok) {
    return response.degraded ? RequestOutcome::kDegraded
                             : RequestOutcome::kServed;
  }
  if (response.error.rfind("overloaded", 0) == 0) return RequestOutcome::kShed;
  if (response.error.rfind("deadline exceeded", 0) == 0) {
    return RequestOutcome::kExpired;
  }
  return RequestOutcome::kFailed;
}

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kAdmission: return "admission";
    case RequestStage::kQueue: return "queue";
    case RequestStage::kBatchForm: return "batch_form";
    case RequestStage::kForward: return "forward";
    case RequestStage::kSerialize: return "serialize";
    case RequestStage::kWrite: return "write";
  }
  return "unknown";
}

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed: return "served";
    case RequestOutcome::kDegraded: return "degraded";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kExpired: return "expired";
    case RequestOutcome::kFailed: return "failed";
  }
  return "unknown";
}

uint64_t NextServeRequestId() {
  static std::atomic<uint64_t> next_id{0};
  return next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {

/// Handles for the 5x6 outcome/stage histograms plus the overall request
/// latency histogram, resolved once so the per-request cost is only the
/// lock-free Record calls.
struct ServeStageMetrics {
  std::array<std::array<obs::Histogram*, kNumRequestStages>,
             kNumRequestOutcomes>
      stage;
  obs::Histogram* request_latency = nullptr;
  obs::Counter* slow_requests = nullptr;
};

const ServeStageMetrics& StageMetrics() {
  static const ServeStageMetrics* metrics = [] {
    auto* created = new ServeStageMetrics();
    auto& registry = obs::MetricsRegistry::Global();
    obs::HistogramOptions options;
    options.first_bound = 1.0;  // microseconds
    options.growth = 2.0;
    options.num_buckets = 26;  // ~67s before overflow
    for (int o = 0; o < kNumRequestOutcomes; ++o) {
      for (int s = 0; s < kNumRequestStages; ++s) {
        created->stage[static_cast<size_t>(o)][static_cast<size_t>(s)] =
            registry.GetHistogram(
                std::string("serve.stage.") +
                    RequestStageName(static_cast<RequestStage>(s)) + "_us." +
                    RequestOutcomeName(static_cast<RequestOutcome>(o)),
                options);
      }
    }
    obs::HistogramOptions latency_options;
    latency_options.first_bound = 1.0;
    latency_options.growth = 2.0;
    latency_options.num_buckets = 32;
    created->request_latency =
        registry.GetHistogram("serve.request_latency_us", latency_options);
    created->slow_requests = registry.GetCounter("serve.slow_requests");
    return created;
  }();
  return *metrics;
}

}  // namespace

void RecordStageLatency(RequestOutcome outcome, RequestStage stage,
                        double micros) {
  if (micros < 0) return;
  StageMetrics()
      .stage[static_cast<size_t>(outcome)][static_cast<size_t>(stage)]
      ->Record(micros);
}

void RecordStageBreakdown(RequestOutcome outcome,
                          const StageBreakdown& stages) {
  for (int s = 0; s < kNumRequestStages; ++s) {
    RecordStageLatency(outcome, static_cast<RequestStage>(s),
                       stages.micros[static_cast<size_t>(s)]);
  }
}

void EnsureServeStageMetrics() { StageMetrics(); }

void RecordOutcome(RequestOutcome outcome) {
  auto& registry = obs::MetricsRegistry::Global();
  switch (outcome) {
    case RequestOutcome::kServed:
      registry.GetCounter("serve.outcome.served")->Increment();
      break;
    case RequestOutcome::kDegraded:
      registry.GetCounter("serve.outcome.degraded")->Increment();
      break;
    case RequestOutcome::kShed:
      registry.GetCounter("serve.outcome.shed")->Increment();
      registry.GetCounter("serve.requests_shed")->Increment();
      break;
    case RequestOutcome::kExpired:
      registry.GetCounter("serve.outcome.expired")->Increment();
      registry.GetCounter("serve.deadline_exceeded")->Increment();
      break;
    case RequestOutcome::kFailed:
      registry.GetCounter("serve.outcome.failed")->Increment();
      break;
  }
}

MicroBatcher::MicroBatcher(
    const BatcherConfig& config, InferenceEngine* engine, ContextCache* cache,
    const graph::ContextSampler* sampler,
    std::function<std::shared_ptr<const VersionedGraph>()> graph_provider)
    : config_(config),
      engine_(engine),
      cache_(cache),
      sampler_(sampler),
      graph_provider_(std::move(graph_provider)),
      queue_(config.queue_capacity) {
  HIRE_CHECK(engine_ != nullptr);
  HIRE_CHECK(cache_ != nullptr);
  HIRE_CHECK(sampler_ != nullptr);
  HIRE_CHECK(graph_provider_ != nullptr);
  HIRE_CHECK_GT(config_.max_batch_users, 0);
  HIRE_CHECK_GT(config_.context_users, 0);
  HIRE_CHECK_GT(config_.context_items, 0);
  if (config_.max_inflight <= 0) {
    config_.max_inflight = 2 * static_cast<int64_t>(config_.queue_capacity);
  }
  // Register every outcome's stage histograms up front so /metrics shows the
  // full partition (with zero counts) from boot.
  EnsureServeStageMetrics();
  if (!config_.metric_prefix.empty()) {
    auto& registry = obs::MetricsRegistry::Global();
    for (int o = 0; o < kNumRequestOutcomes; ++o) {
      shard_outcome_[static_cast<size_t>(o)] = registry.GetCounter(
          config_.metric_prefix + "outcome." +
          RequestOutcomeName(static_cast<RequestOutcome>(o)));
    }
  }
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Start() {
  HIRE_CHECK(!started_) << "batcher already started";
  started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void MicroBatcher::Stop() {
  if (!started_) return;
  queue_.Close();
  if (worker_.joinable()) worker_.join();
  started_ = false;
}

void MicroBatcher::SubmitAsync(int64_t user, std::vector<int64_t> items,
                               RequestDeadline deadline, PredictCallback done) {
  const auto now = std::chrono::steady_clock::now();
  PendingRequest request;
  request.user = user;
  request.items = std::move(items);
  request.done = std::move(done);
  request.enqueue_time = now;
  request.request_id = NextServeRequestId();
  request.trace_sampled = config_.trace_sample_every > 0 &&
                          request.request_id %
                                  static_cast<uint64_t>(
                                      config_.trace_sample_every) ==
                              0;
  if (deadline.has_value()) {
    request.deadline = deadline;
  } else if (config_.request_deadline_ms > 0) {
    request.deadline =
        now + std::chrono::milliseconds(config_.request_deadline_ms);
  }
  if (request.items.empty()) {
    Resolve(&request, FailedResponse("bad request: empty item list"));
    return;
  }
  if (static_cast<int64_t>(request.items.size()) > config_.context_items) {
    Resolve(&request, FailedResponse(
        "bad request: " + std::to_string(request.items.size()) +
        " items exceed the context item budget of " +
        std::to_string(config_.context_items)));
    return;
  }
  // Admission deadline check: a request born expired never costs a queue
  // slot.
  if (request.deadline.has_value() && *request.deadline <= now) {
    Resolve(&request,
            FailedResponse("deadline exceeded: expired before admission"));
    return;
  }
  // In-flight cap: shed before any work is queued rather than letting tail
  // latency grow without bound.
  if (inflight_.load() >= config_.max_inflight) {
    obs::MetricsRegistry::Global()
        .GetCounter("serve.shed.inflight")
        ->Increment();
    obs::MetricsRegistry::Global()
        .GetCounter("serve.requests_rejected")
        ->Increment();
    Resolve(&request, FailedResponse(
        "overloaded: " + std::to_string(inflight_.load()) +
        " requests in flight (cap " + std::to_string(config_.max_inflight) +
        ")"));
    return;
  }

  // Admission completes here: everything before this point (validation,
  // deadline/shed checks, id assignment) is the admission stage. The push
  // itself is a few lock-protected moves and rides along.
  request.admission_us = MicrosSince(now);
  request.admitted = true;
  inflight_.fetch_add(1);
  if (!queue_.TryPush(std::move(request))) {
    // TryPush guarantees `request` is untouched on failure, so the callback
    // (and its in-flight slot) is still ours to resolve here.
    obs::MetricsRegistry::Global()
        .GetCounter("serve.shed.queue_full")
        ->Increment();
    obs::MetricsRegistry::Global()
        .GetCounter("serve.requests_rejected")
        ->Increment();
    Resolve(&request, FailedResponse("overloaded: request queue is full"));
    return;
  }
  obs::MetricsRegistry::Global()
      .GetGauge("serve.queue_depth")
      ->Set(static_cast<double>(queue_.size()));
}

namespace {

/// Emits request-correlated spans for one sampled request. Span names carry
/// the request id ("req#42/queue"), so a Perfetto search for the id from a
/// slow-request log line lands on the request's full timeline; the forward
/// span of co-batched requests overlaps their shared "serve_forward" scope.
void EmitRequestSpans(uint64_t request_id,
                      std::chrono::steady_clock::time_point enqueue,
                      std::chrono::steady_clock::time_point dequeue,
                      std::chrono::steady_clock::time_point collected,
                      std::chrono::steady_clock::time_point forward_start,
                      std::chrono::steady_clock::time_point forward_end,
                      std::chrono::steady_clock::time_point resolved) {
  char name[obs::internal::kMaxSpanName];
  const auto emit = [&](const char* stage,
                        std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
    if (!Stamped(a) || !Stamped(b) || b < a) return;
    std::snprintf(name, sizeof(name), "req#%llu/%s",
                  static_cast<unsigned long long>(request_id), stage);
    obs::EmitSpan(name, SteadyNanos(a), SteadyNanos(b));
  };
  emit("total", enqueue, resolved);
  emit("queue", enqueue, dequeue);
  emit("batch_form", dequeue, collected);
  emit("forward", forward_start, forward_end);
}

/// One structured key=value line describing a resolved request; shared by
/// the slow-request warning and the per-request debug log.
std::string RequestLogLine(int64_t user, size_t num_items,
                           const RatingResponse& response) {
  std::ostringstream line;
  line << "id=" << response.request_id
       << " outcome=" << RequestOutcomeName(ClassifyOutcome(response))
       << " user=" << user << " items=" << num_items
       << " total_us=" << static_cast<int64_t>(response.latency_us);
  for (int s = 0; s < kNumRequestStages; ++s) {
    const double micros = response.stages.micros[static_cast<size_t>(s)];
    if (micros < 0) continue;
    line << " " << RequestStageName(static_cast<RequestStage>(s))
         << "_us=" << static_cast<int64_t>(micros);
  }
  if (response.ok) {
    line << " batch_users=" << response.batch_users
         << " cache_hit=" << (response.cache_hit ? 1 : 0)
         << " model_v=" << response.model_version
         << " graph_v=" << response.graph_version;
  } else {
    line << " error=\"" << response.error << "\"";
  }
  return line.str();
}

}  // namespace

void MicroBatcher::Resolve(PendingRequest* request, RatingResponse response) {
  const auto now = std::chrono::steady_clock::now();
  if (request->admitted) {
    inflight_.fetch_sub(1);
    request->admitted = false;
  }

  response.request_id = request->request_id;
  response.shard = config_.shard_index;
  response.latency_us = MicrosBetween(request->enqueue_time, now);
  StageBreakdown& stages = response.stages;
  // Requests resolved during admission (bad request, shed, born expired)
  // spent their whole life in the admission stage.
  stages.at(RequestStage::kAdmission) =
      request->admission_us >= 0 ? request->admission_us : response.latency_us;
  if (Stamped(request->dequeue_time)) {
    stages.at(RequestStage::kQueue) =
        MicrosBetween(request->enqueue_time, request->dequeue_time);
  }
  if (Stamped(request->dequeue_time) && Stamped(request->collected_time)) {
    stages.at(RequestStage::kBatchForm) =
        MicrosBetween(request->dequeue_time, request->collected_time);
  }
  if (Stamped(request->forward_start) && Stamped(request->forward_end)) {
    stages.at(RequestStage::kForward) =
        MicrosBetween(request->forward_start, request->forward_end);
  }

  const RequestOutcome outcome = ClassifyOutcome(response);
  RecordOutcome(outcome);
  if (shard_outcome_[0] != nullptr) {
    shard_outcome_[static_cast<size_t>(outcome)]->Increment();
  }
  RecordStageBreakdown(outcome, stages);
  StageMetrics().request_latency->Record(response.latency_us);

  if (request->trace_sampled && obs::Tracer::Enabled()) {
    EmitRequestSpans(request->request_id, request->enqueue_time,
                     request->dequeue_time, request->collected_time,
                     request->forward_start, request->forward_end, now);
  }

  if (config_.slow_request_ms > 0 &&
      response.latency_us >
          static_cast<double>(config_.slow_request_ms) * 1000.0) {
    StageMetrics().slow_requests->Increment();
    HIRE_LOG(Warning) << "slow request "
                      << RequestLogLine(request->user, request->items.size(),
                                        response);
  } else if (GetLogLevel() <= LogLevel::kDebug) {
    HIRE_LOG(Debug) << "request "
                    << RequestLogLine(request->user, request->items.size(),
                                      response);
  }

  request->done(std::move(response));
}

RatingResponse MicroBatcher::DegradedResponse(
    const PendingRequest& request, const VersionedGraph& versioned_graph,
    int64_t model_version) const {
  RatingResponse response;
  response.ok = true;
  response.degraded = true;
  const float mean =
      (request.user >= 0 &&
       request.user < static_cast<int64_t>(
                          versioned_graph.user_mean_rating.size()))
          ? versioned_graph.user_mean_rating[static_cast<size_t>(request.user)]
          : versioned_graph.global_mean_rating;
  response.predictions.assign(request.items.size(), mean);
  response.model_version = model_version;
  response.graph_version = versioned_graph.version;
  response.latency_us = MicrosSince(request.enqueue_time);
  obs::MetricsRegistry::Global()
      .GetCounter("serve.fallback_predictions")
      ->Increment();
  return response;
}

void MicroBatcher::ExpireOverdue(std::vector<PendingRequest>* batch) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<PendingRequest> alive;
  alive.reserve(batch->size());
  for (PendingRequest& request : *batch) {
    if (request.deadline.has_value() && *request.deadline <= now) {
      Resolve(&request, FailedResponse(
          "deadline exceeded: waited " +
          std::to_string(static_cast<int64_t>(
              MicrosSince(request.enqueue_time) / 1000.0)) +
          "ms"));
    } else {
      alive.push_back(std::move(request));
    }
  }
  *batch = std::move(alive);
}

bool MicroBatcher::BreakerAllowsForward(int64_t model_version) {
  if (config_.breaker_threshold <= 0) return true;
  if (!breaker_open_.load()) return true;
  if (model_version != breaker_version_at_open_) {
    // A new snapshot was published since the breaker opened; trust it.
    breaker_open_.store(false);
    breaker_failures_ = 0;
    obs::MetricsRegistry::Global().GetGauge("serve.circuit_open")->Set(0.0);
    HIRE_LOG(Info) << "serve circuit breaker closed (model v" << model_version
                   << " published)";
    return true;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now - breaker_opened_at_ >=
      std::chrono::milliseconds(config_.breaker_cooldown_ms)) {
    return true;  // half-open: let one trial batch through
  }
  return false;
}

void MicroBatcher::BreakerRecordSuccess() {
  breaker_failures_ = 0;
  if (breaker_open_.load()) {
    breaker_open_.store(false);
    obs::MetricsRegistry::Global().GetGauge("serve.circuit_open")->Set(0.0);
    HIRE_LOG(Info) << "serve circuit breaker closed (trial batch succeeded)";
  }
}

bool MicroBatcher::BreakerRecordFailure(int64_t model_version) {
  if (config_.breaker_threshold <= 0) return false;
  ++breaker_failures_;
  if (!breaker_open_.load() && breaker_failures_ < config_.breaker_threshold) {
    return false;
  }
  if (!breaker_open_.load()) {
    obs::MetricsRegistry::Global().GetCounter("serve.circuit_opened")
        ->Increment();
    HIRE_LOG(Warning) << "serve circuit breaker opened after "
                      << breaker_failures_
                      << " consecutive batch failure(s); serving fallback "
                         "predictions";
  }
  breaker_open_.store(true);
  breaker_opened_at_ = std::chrono::steady_clock::now();
  breaker_version_at_open_ = model_version;
  obs::MetricsRegistry::Global().GetGauge("serve.circuit_open")->Set(1.0);
  return true;
}

void MicroBatcher::WorkerLoop() {
  while (true) {
    std::optional<PendingRequest> first = queue_.Pop();
    if (!first.has_value()) return;  // closed and drained
    ProcessBatch(CollectBatch(std::move(*first)));
  }
}

std::vector<MicroBatcher::PendingRequest> MicroBatcher::CollectBatch(
    PendingRequest first) {
  first.dequeue_time = std::chrono::steady_clock::now();
  std::vector<PendingRequest> batch;
  std::unordered_set<int64_t> users{first.user};
  batch.push_back(std::move(first));
  // Work-conserving: drain what is already queued, never wait for more.
  while (static_cast<int64_t>(users.size()) < config_.max_batch_users) {
    std::optional<PendingRequest> next = queue_.TryPop();
    if (!next.has_value()) break;
    next->dequeue_time = std::chrono::steady_clock::now();
    users.insert(next->user);
    batch.push_back(std::move(*next));
  }
  return batch;
}

void MicroBatcher::ProcessBatch(std::vector<PendingRequest> batch) {
  HIRE_TRACE_SCOPE("serve_batch");
  // The batch is closed: everything from here until the forward starts is
  // per-batch overhead (graph/snapshot acquire, revalidation, grouping).
  {
    const auto collected = std::chrono::steady_clock::now();
    for (PendingRequest& request : batch) request.collected_time = collected;
  }
  FaultInjector::Global().MaybeParkServeWorker();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve.queue_depth")
      ->Set(static_cast<double>(queue_.size()));

  std::shared_ptr<const VersionedGraph> versioned_graph;
  std::shared_ptr<const ModelSnapshot> snapshot;
  try {
    versioned_graph = graph_provider_();
    snapshot = engine_->Acquire();
  } catch (const std::exception& error) {
    for (PendingRequest& request : batch) {
      Resolve(&request, FailedResponse(error.what()));
    }
    return;
  }
  if (versioned_graph == nullptr) {
    for (PendingRequest& request : batch) {
      Resolve(&request, FailedResponse("no graph published"));
    }
    return;
  }

  // Deadline check at dequeue: a request that aged out in the queue gets a
  // 504 instead of consuming a batch slot.
  ExpireOverdue(&batch);
  if (batch.empty()) return;

  // The transport validated ids against the graph current at submit time,
  // but a smaller universe may have been published since; re-validate
  // against the generation this batch actually runs on so the context
  // assembler never indexes attribute tables out of range. Only the
  // offending requests fail (as bad requests), not their whole group.
  {
    const int64_t num_users = versioned_graph->graph.num_users();
    const int64_t num_items = versioned_graph->graph.num_items();
    std::vector<PendingRequest> in_range;
    in_range.reserve(batch.size());
    for (PendingRequest& request : batch) {
      std::string error;
      if (request.user < 0 || request.user >= num_users) {
        error = "bad request: user " + std::to_string(request.user) +
                " outside [0, " + std::to_string(num_users) + ")";
      } else {
        for (int64_t item : request.items) {
          if (item < 0 || item >= num_items) {
            error = "bad request: item " + std::to_string(item) +
                    " outside [0, " + std::to_string(num_items) + ")";
            break;
          }
        }
      }
      if (error.empty()) {
        in_range.push_back(std::move(request));
      } else {
        Resolve(&request, FailedResponse(std::move(error)));
      }
    }
    batch = std::move(in_range);
    if (batch.empty()) return;
  }

  // Graceful degradation: with no valid snapshot (engine never loaded, or
  // every load failed) or an open circuit breaker, answer from the graph's
  // bias tables instead of erroring. Recovery is automatic — a published
  // snapshot / closed breaker routes the next batch back to the model.
  const int64_t model_version = snapshot != nullptr ? snapshot->version : 0;
  if (snapshot == nullptr || !BreakerAllowsForward(model_version)) {
    for (PendingRequest& request : batch) {
      Resolve(&request,
              DegradedResponse(request, *versioned_graph, model_version));
    }
    return;
  }

  // Partition the batch into groups whose distinct users fit the row budget
  // and whose item union fits the column budget; each group shares one
  // context and one forward.
  const int64_t max_users =
      std::min(config_.max_batch_users, config_.context_users);
  std::vector<std::vector<PendingRequest>> groups;
  std::unordered_set<int64_t> group_users;
  std::unordered_set<int64_t> group_items;
  for (PendingRequest& request : batch) {
    int64_t new_users = group_users.count(request.user) ? 0 : 1;
    int64_t new_items = 0;
    for (int64_t item : request.items) {
      if (group_items.count(item) == 0) ++new_items;
    }
    const bool fits =
        !groups.empty() &&
        static_cast<int64_t>(group_users.size()) + new_users <= max_users &&
        static_cast<int64_t>(group_items.size()) + new_items <=
            config_.context_items;
    if (!fits) {
      groups.emplace_back();
      group_users.clear();
      group_items.clear();
    }
    group_users.insert(request.user);
    group_items.insert(request.items.begin(), request.items.end());
    groups.back().push_back(std::move(request));
  }

  for (std::vector<PendingRequest>& group : groups) {
    try {
      ProcessGroup(&group, *versioned_graph, *snapshot);
      BreakerRecordSuccess();
    } catch (const std::exception& error) {
      registry.GetCounter("serve.batch_errors")->Increment();
      // ProcessGroup erases every request it resolves, so whatever is left
      // in `group` is still unanswered. The first failures surface as
      // internal errors; once the breaker opens, fall back instead.
      const bool breaker_open = BreakerRecordFailure(snapshot->version);
      for (PendingRequest& request : group) {
        if (breaker_open) {
          Resolve(&request, DegradedResponse(request, *versioned_graph,
                                             model_version));
        } else {
          Resolve(&request, FailedResponse(error.what()));
        }
      }
      group.clear();
    }
  }
}

void MicroBatcher::ProcessGroup(std::vector<PendingRequest>* group,
                                const VersionedGraph& versioned_graph,
                                const ModelSnapshot& snapshot) {
  auto& registry = obs::MetricsRegistry::Global();
  const graph::BipartiteGraph& graph = versioned_graph.graph;

  // Injected slow handler (a stalled model / GC pause) runs before the
  // final deadline check so expired requests still get their 504.
  const int64_t slow_ms = FaultInjector::Global().ServeSlowHandlerMs();
  if (slow_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
  }

  // Deadline check immediately before the forward.
  ExpireOverdue(group);
  if (group->empty()) return;

  if (FaultInjector::Global().ConsumeServeFailForward()) {
    HIRE_CHECK(false) << "fault injection: batch forward failure";
  }

  // The forward stage covers context assembly plus the shared model
  // forward — the work a request's co-batched peers amortise.
  {
    const auto forward_start = std::chrono::steady_clock::now();
    for (PendingRequest& request : *group) {
      request.forward_start = forward_start;
    }
  }

  // Distinct users in arrival order; fetch or build each user's context
  // plan (the cacheable, graph-walk half of the work).
  std::vector<int64_t> users;
  std::unordered_map<int64_t, bool> cache_hit;
  std::vector<std::shared_ptr<const core::UserContextPlan>> plans;
  for (const PendingRequest& request : *group) {
    if (cache_hit.count(request.user)) continue;
    users.push_back(request.user);
    std::shared_ptr<const core::UserContextPlan> plan =
        cache_->Get(request.user, versioned_graph.version);
    cache_hit[request.user] = plan != nullptr;
    if (plan == nullptr) {
      plan = std::make_shared<core::UserContextPlan>(core::BuildUserContextPlan(
          graph, *sampler_, request.user, config_.context_users,
          config_.context_items, config_.seed));
      cache_->Put(request.user, versioned_graph.version, plan);
    }
    plans.push_back(std::move(plan));
  }

  // Rows: the batch users first, then their sampled context neighbors
  // round-robin until the row budget is filled.
  std::vector<int64_t> rows = users;
  std::unordered_set<int64_t> row_set(rows.begin(), rows.end());
  for (size_t offset = 1;
       static_cast<int64_t>(rows.size()) < config_.context_users; ++offset) {
    bool any = false;
    for (const auto& plan : plans) {
      if (offset >= plan->context_users.size()) continue;
      any = true;
      const int64_t candidate = plan->context_users[offset];
      if (row_set.insert(candidate).second) {
        rows.push_back(candidate);
        if (static_cast<int64_t>(rows.size()) >= config_.context_users) break;
      }
    }
    if (!any) break;
  }

  // Columns: the union of queried items in arrival order, then base-pool
  // items (support first) round-robin until the column budget is filled.
  std::vector<int64_t> cols;
  std::unordered_set<int64_t> col_set;
  for (const PendingRequest& request : *group) {
    for (int64_t item : request.items) {
      if (col_set.insert(item).second) cols.push_back(item);
    }
  }
  for (size_t offset = 0;
       static_cast<int64_t>(cols.size()) < config_.context_items; ++offset) {
    bool any = false;
    for (const auto& plan : plans) {
      if (offset >= plan->base_items.size()) continue;
      any = true;
      const int64_t candidate = plan->base_items[offset];
      if (col_set.insert(candidate).second) {
        cols.push_back(candidate);
        if (static_cast<int64_t>(cols.size()) >= config_.context_items) break;
      }
    }
    if (!any) break;
  }

  graph::ContextSelection selection;
  selection.users = rows;
  selection.items = cols;
  graph::PredictionContext context =
      graph::AssembleContext(graph, std::move(selection));
  core::ThinObservedCells(&context,
                          /*keep_rows=*/static_cast<int64_t>(users.size()),
                          config_.visible_fraction, config_.seed);

  // Tape-free fused forward: weights were packed at snapshot load, the
  // arena is the worker's own scratch, and the result tensor lives in the
  // arena — zero heap per request after warm-up. Only the batch users'
  // rows [0, users.size()) are read, so only those are computed.
  const int64_t query_rows = static_cast<int64_t>(users.size());
  const Tensor* predicted_ptr = nullptr;
  {
    HIRE_TRACE_SCOPE("serve_forward");
    predicted_ptr =
        &snapshot.inference->Predict(context, &arena_, query_rows);
  }
  const Tensor& predicted = *predicted_ptr;
  {
    const auto forward_end = std::chrono::steady_clock::now();
    for (PendingRequest& request : *group) {
      request.forward_end = forward_end;
    }
  }

  std::unordered_map<int64_t, int64_t> row_of_user;
  for (size_t r = 0; r < rows.size(); ++r) {
    row_of_user[rows[r]] = static_cast<int64_t>(r);
  }
  // Batch users fill rows [0, query_rows) by construction; checked before
  // any request resolves, so a violation fails the whole group cleanly.
  for (const PendingRequest& request : *group) {
    HIRE_CHECK_LT(row_of_user.at(request.user), query_rows)
        << "user " << request.user << " is not a computed query row";
  }
  std::unordered_map<int64_t, int64_t> col_of_item;
  for (size_t c = 0; c < cols.size(); ++c) {
    col_of_item[cols[c]] = static_cast<int64_t>(c);
  }

  registry.GetCounter("serve.batches")->Increment();
  registry.GetCounter("serve.batched_users")->Increment(users.size());
  obs::HistogramOptions batch_options;
  batch_options.first_bound = 1.0;
  batch_options.growth = 2.0;
  batch_options.num_buckets = 8;
  registry.GetHistogram("serve.batch_users", batch_options)
      ->Record(static_cast<double>(users.size()));
  obs::Counter* served = registry.GetCounter("serve.requests");

  for (PendingRequest& request : *group) {
    RatingResponse response;
    response.ok = true;
    response.predictions.reserve(request.items.size());
    const int64_t row = row_of_user.at(request.user);
    for (int64_t item : request.items) {
      response.predictions.push_back(
          predicted.at(row, col_of_item.at(item)));
    }
    response.cache_hit = cache_hit.at(request.user);
    response.batch_users = static_cast<int64_t>(users.size());
    response.model_version = snapshot.version;
    response.graph_version = versioned_graph.version;
    response.latency_us = MicrosSince(request.enqueue_time);

    served->Increment();
    Resolve(&request, std::move(response));
  }
  group->clear();
}

}  // namespace serve
}  // namespace hire
