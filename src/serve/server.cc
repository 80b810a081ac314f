#include "serve/server.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "utils/check.h"
#include "utils/fault_injection.h"
#include "utils/logging.h"

namespace hire {
namespace serve {

namespace {

/// Pending /reloads beyond this bound are answered 503 + Retry-After.
constexpr size_t kReloadQueueCapacity = 64;

/// Parses a /predict body of the form {"user":u,"items":[i,...]}. Returns
/// false with `error` set on malformed input.
bool ParsePredictBody(const std::string& body, int64_t* user,
                      std::vector<int64_t>* items, std::string* error) {
  std::string json_error;
  if (!obs::JsonValidate(body, &json_error)) {
    *error = "invalid JSON: " + json_error;
    return false;
  }
  double user_value = 0.0;
  if (!obs::FindJsonNumberField(body, "user", &user_value)) {
    *error = "missing numeric \"user\" field";
    return false;
  }
  *user = static_cast<int64_t>(user_value);

  const size_t key = body.find("\"items\"");
  if (key == std::string::npos) {
    *error = "missing \"items\" field";
    return false;
  }
  size_t pos = body.find('[', key);
  if (pos == std::string::npos) {
    *error = "\"items\" must be an array";
    return false;
  }
  ++pos;
  items->clear();
  while (pos < body.size()) {
    while (pos < body.size() &&
           (std::isspace(static_cast<unsigned char>(body[pos])) ||
            body[pos] == ',')) {
      ++pos;
    }
    if (pos < body.size() && body[pos] == ']') return true;
    char* end = nullptr;
    const long long value = std::strtoll(body.c_str() + pos, &end, 10);
    if (end == body.c_str() + pos) {
      *error = "\"items\" must contain only integers";
      return false;
    }
    items->push_back(static_cast<int64_t>(value));
    pos = static_cast<size_t>(end - body.c_str());
  }
  *error = "unterminated \"items\" array";
  return false;
}

/// Maps a batcher error string onto an HTTP status.
int StatusForError(const std::string& error) {
  if (error.rfind("bad request", 0) == 0) return 400;
  if (error.rfind("overloaded", 0) == 0) return 503;
  if (error.rfind("deadline exceeded", 0) == 0) return 504;
  if (error == "no model published") return 503;
  return 500;
}

std::string RenderPredictResponse(int64_t user, const RatingResponse& r) {
  std::string out = "{\"user\":" + std::to_string(user) + ",\"predictions\":[";
  for (size_t i = 0; i < r.predictions.size(); ++i) {
    if (i > 0) out += ",";
    out += obs::JsonNumber(static_cast<double>(r.predictions[i]));
  }
  out += "],\"degraded\":" + std::string(r.degraded ? "true" : "false") +
         ",\"model_version\":" + std::to_string(r.model_version) +
         ",\"graph_version\":" + std::to_string(r.graph_version) +
         ",\"cache_hit\":" + std::string(r.cache_hit ? "true" : "false") +
         ",\"batch_users\":" + std::to_string(r.batch_users) +
         ",\"latency_us\":" + obs::JsonNumber(r.latency_us) +
         ",\"request_id\":" + std::to_string(r.request_id) +
         ",\"shard\":" + std::to_string(r.shard) + "}";
  return out;
}

std::string JsonInt64Array(const std::vector<int64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  out += "]";
  return out;
}

/// Error response whose status and outcome accounting follow from the error
/// string; shed responses carry Retry-After so well-behaved clients back
/// off instead of hammering an overloaded server.
HttpResponse ErrorResponse(const RatingResponse& response) {
  HttpResponse http{StatusForError(response.error), "application/json",
                    "{\"error\":" + obs::JsonString(response.error) + "}"};
  if (http.status == 503) http.headers.push_back({"Retry-After", "1"});
  return http;
}

/// True when the raw query string asks for Prometheus exposition
/// (GET /metrics?format=prometheus).
bool WantsPrometheus(const std::string& query) {
  return query.find("format=prometheus") != std::string::npos;
}

/// Splices point-in-time header fields into a Snapshot::ToJson object so the
/// existing top-level keys (and the scripts that grep them) are untouched.
std::string MetricsJsonWithHeader(const std::string& snapshot_json,
                                  double uptime_seconds) {
  const int64_t ts_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::string out = "{\"ts_unix_ms\":" + std::to_string(ts_unix_ms) +
                    ",\"uptime_seconds\":" + obs::JsonNumber(uptime_seconds);
  const std::string rest = snapshot_json.substr(1);  // after the opening '{'
  out += rest == "}" ? rest : "," + rest;
  return out;
}

}  // namespace

RatingServer::RatingServer(const data::Dataset* dataset,
                           core::HireConfig model_config,
                           graph::BipartiteGraph graph,
                           const ServeConfig& config)
    : config_(config),
      router_(dataset, model_config, std::move(graph),
              ShardRouterConfig{config.num_shards, config.cache_capacity,
                                config.batcher}),
      http_(config.port,
            HttpServerOptions{config.idle_timeout_ms, config.header_timeout_ms,
                              config.max_connections},
            Routes()) {}

RatingServer::~RatingServer() { Stop(); }

void RatingServer::Start() {
  HIRE_CHECK(!started_) << "server already started";
  if (!config_.model_path.empty()) {
    const RollingReloadResult initial =
        router_.RollingReload(config_.model_path);
    std::string first_error;
    for (const std::string& error : initial.errors) {
      if (!error.empty()) {
        first_error = error;
        break;
      }
    }
    HIRE_CHECK(initial.ok) << "initial model load failed on "
                           << initial.failed_shards
                           << " shard(s): " << first_error;
  } else {
    HIRE_LOG(Warning) << "starting with no model: serving degraded "
                         "(bias-table) predictions until /reload publishes "
                         "a snapshot";
  }
  router_.Start();
  // The queue must exist before the first /reload can arrive; the thread
  // starts once the listener is bound, so a bind failure leaves none to join.
  reload_queue_ =
      std::make_unique<BoundedQueue<ReloadJob>>(kReloadQueueCapacity);
  http_.Start();
  reload_thread_ = std::thread([this] { ReloadLoop(); });
  started_ = true;
}

void RatingServer::Stop() {
  if (!started_) return;
  // The loop answers every request in flight before it exits, queued
  // /reloads included: the reload thread keeps draining until the queue
  // closes below.
  http_.Stop();
  reload_queue_->Close();
  reload_thread_.join();
  reload_queue_.reset();
  router_.Stop();
  started_ = false;
}

void RatingServer::ReloadLoop() {
  while (std::optional<ReloadJob> job = reload_queue_->Pop()) {
    job->done(ReloadReply(job->path));
  }
}

double RatingServer::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

obs::MetricsRegistry::Snapshot RatingServer::TakeMetricsSnapshot() {
  // Refresh point-in-time gauges first so every scrape (JSON or Prometheus)
  // carries a consistent uptime and the currently published versions.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve.uptime_seconds")->Set(UptimeSeconds());
  // The fleet's published version is the conservative minimum; each shard
  // also keeps its own serve.shard.<i>.model_version gauge current.
  registry.GetGauge("serve.model_version")
      ->Set(static_cast<double>(router_.min_model_version()));
  registry.GetGauge("serve.graph_version")
      ->Set(static_cast<double>(graph_version()));
  return registry.Take();
}

int64_t RatingServer::Reload(const std::string& snapshot_path) {
  const RollingReloadResult result = ReloadDetailed(snapshot_path);
  if (!result.ok) {
    std::string message = std::to_string(result.failed_shards) +
                          " shard(s) rejected the snapshot:";
    for (size_t i = 0; i < result.errors.size(); ++i) {
      if (result.errors[i].empty()) continue;
      message += " [shard " + std::to_string(i) + "] " + result.errors[i];
    }
    throw std::runtime_error(message);
  }
  return result.version;
}

RollingReloadResult RatingServer::ReloadDetailed(
    const std::string& snapshot_path) {
  const std::string& path =
      snapshot_path.empty() ? config_.model_path : snapshot_path;
  HIRE_CHECK(!path.empty()) << "no model path to reload";
  // Chaos hook (fleet-wide knob, explicit reloads only — never the boot
  // load): when HIRE_FAULT_SERVE_CORRUPT_RELOAD is armed this flips a bit in
  // the snapshot file itself, so every shard's CRC check must reject it and
  // the whole fleet keeps its previous snapshots.
  FaultInjector::Global().MaybeCorruptServeReload(path);
  return router_.RollingReload(path);
}

void RatingServer::UpdateGraph(graph::BipartiteGraph graph) {
  router_.UpdateGraph(std::move(graph));
}

int64_t RatingServer::graph_version() const {
  return router_.graph_version();
}

void RatingServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool RatingServer::WaitForShutdown(int timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

HttpRoutes RatingServer::Routes() {
  HttpRoutes routes;
  // The loop thread only parses and submits; the response is completed from
  // the batcher's resolve callback. Requests in flight are therefore bounded
  // by per-shard admission control (queue + max-inflight) — the property
  // that lets every shard keep full batches under load.
  routes[{"POST", "/predict"}] = [this](const HttpRequest& request,
                                        HttpDone done) {
    int64_t user = 0;
    std::vector<int64_t> items;
    std::string error;
    if (!ParsePredictBody(request.body, &user, &items, &error)) {
      // Never reaches the batcher; account the failure here so the outcome
      // counters still partition all /predict traffic.
      RecordOutcome(RequestOutcome::kFailed);
      done(HttpResponse{400, "application/json",
                        "{\"error\":" + obs::JsonString(error) + "}"});
      return;
    }
    // Per-request deadline override: X-Deadline-Ms is a relative budget,
    // converted to an absolute deadline at admission.
    RequestDeadline deadline;
    const auto header = request.headers.find("x-deadline-ms");
    if (header != request.headers.end()) {
      char* end = nullptr;
      const long long ms = std::strtoll(header->second.c_str(), &end, 10);
      if (end == header->second.c_str() || ms <= 0) {
        RecordOutcome(RequestOutcome::kFailed);
        done(HttpResponse{
            400, "application/json",
            "{\"error\":\"bad request: X-Deadline-Ms must be a positive "
            "integer\"}"});
        return;
      }
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
    }
    router_.SubmitAsync(
        user, std::move(items), deadline,
        [user, done = std::move(done)](RatingResponse response) {
          // Serialize and socket-write happen after the batcher resolved
          // the request, so the transport attributes those two stages
          // itself, under the same outcome the batcher recorded.
          const RequestOutcome outcome = ClassifyOutcome(response);
          const auto serialize_start = std::chrono::steady_clock::now();
          HttpResponse http =
              response.ok ? HttpResponse{200, "application/json",
                                         RenderPredictResponse(user, response)}
                          : ErrorResponse(response);
          RecordStageLatency(
              outcome, RequestStage::kSerialize,
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - serialize_start)
                  .count());
          http.on_written = [outcome](double write_micros) {
            RecordStageLatency(outcome, RequestStage::kWrite, write_micros);
          };
          done(std::move(http));
        });
  };

  routes[{"GET", "/healthz"}] = [this](const HttpRequest&, HttpDone done) {
    // Liveness stays 200 even without a model: the server still answers
    // (degraded), and restart-looping it would not help. "degraded" means
    // ANY shard lacks a model or has its breaker open; the top-level
    // model_version is the conservative fleet minimum and shard_versions
    // breaks it out per shard.
    const bool all_loaded = router_.all_loaded();
    const bool any_open = router_.any_circuit_open();
    const bool degraded = !all_loaded || any_open;
    std::string body =
        std::string("{\"status\":") + (degraded ? "\"degraded\"" : "\"ok\"") +
        ",\"model_loaded\":" + (all_loaded ? "true" : "false") +
        ",\"circuit_open\":" + (any_open ? "true" : "false") +
        ",\"model_version\":" + std::to_string(router_.min_model_version()) +
        ",\"graph_version\":" + std::to_string(graph_version()) +
        ",\"inflight\":" + std::to_string(router_.total_inflight()) +
        ",\"queue_depth\":" + std::to_string(router_.total_queue_depth()) +
        ",\"shards\":" + std::to_string(router_.num_shards()) +
        ",\"shard_versions\":" + JsonInt64Array(router_.ShardModelVersions()) +
        "}";
    done({200, "application/json", body});
  };

  routes[{"GET", "/metrics"}] = [this](const HttpRequest& request,
                                       HttpDone done) {
    const auto snapshot = TakeMetricsSnapshot();
    if (WantsPrometheus(request.query)) {
      done({200, obs::kPrometheusContentType,
            obs::ToPrometheusText(snapshot)});
      return;
    }
    done({200, "application/json",
          MetricsJsonWithHeader(snapshot.ToJson(), UptimeSeconds())});
  };

  // Scraper-friendly alias: same exposition, no query string needed.
  routes[{"GET", "/metrics/prometheus"}] = [this](const HttpRequest&,
                                                  HttpDone done) {
    done({200, obs::kPrometheusContentType,
          obs::ToPrometheusText(TakeMetricsSnapshot())});
  };

  // A rolling reload takes time that grows with the model, so it must not
  // run on the loop: only the body check happens here.
  routes[{"POST", "/reload"}] = [this](const HttpRequest& request,
                                       HttpDone done) {
    std::string path;
    if (!request.body.empty()) {
      std::string json_error;
      if (!obs::JsonValidate(request.body, &json_error)) {
        done({400, "application/json",
              "{\"error\":" +
                  obs::JsonString("invalid JSON: " + json_error) + "}"});
        return;
      }
      obs::FindJsonStringField(request.body, "model", &path);
    }
    ReloadJob job{std::move(path), done};
    if (!reload_queue_->TryPush(std::move(job))) {
      done({503, "application/json", "{\"error\":\"reload queue full\"}",
            {{"Retry-After", "1"}}});
    }
  };

  routes[{"POST", "/shutdown"}] = [this](const HttpRequest&, HttpDone done) {
    RequestShutdown();
    done({200, "application/json", "{\"status\":\"shutting down\"}"});
  };
  return routes;
}

HttpResponse RatingServer::ReloadReply(const std::string& snapshot_path) {
  try {
    const RollingReloadResult result = ReloadDetailed(snapshot_path);
    const std::string versions = JsonInt64Array(result.shard_versions);
    if (result.ok) {
      return {200, "application/json",
              "{\"model_version\":" + std::to_string(result.version) +
                  ",\"shard_versions\":" + versions + "}"};
    }
    // Partial failure: shards that swapped keep the new snapshot, the sick
    // ones keep serving their previous one (or degrade) — 500 tells the
    // operator the roll did not fully land.
    std::string message;
    for (size_t i = 0; i < result.errors.size(); ++i) {
      if (result.errors[i].empty()) continue;
      if (!message.empty()) message += "; ";
      message += "shard " + std::to_string(i) + ": " + result.errors[i];
    }
    return {500, "application/json",
            "{\"error\":" + obs::JsonString(message) +
                ",\"failed_shards\":" + std::to_string(result.failed_shards) +
                ",\"model_version\":" + std::to_string(result.version) +
                ",\"shard_versions\":" + versions + "}"};
  } catch (const std::exception& error) {
    return {500, "application/json",
            "{\"error\":" + obs::JsonString(std::string(error.what())) + "}"};
  }
}

}  // namespace serve
}  // namespace hire
