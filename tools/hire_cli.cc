// hire_cli — command-line front end for the HIRE library.
//
// Subcommands:
//   train     Train a HIRE model on a CSV dataset (or a synthetic profile)
//             and save the parameters.
//   evaluate  Run the cold-start evaluation protocol on a trained model.
//   generate  Emit a synthetic dataset as CSV files for inspection.
//   serve     Run the online rating server (batched inference, context
//             cache, hot-swappable model).
//
// Examples:
//   hire_cli train --profile=movielens --steps=300 --out=/tmp/model.bin
//   hire_cli train --ratings=r.csv --user-attrs=u.csv --item-attrs=i.csv
//       --out=/tmp/model.bin
//   hire_cli evaluate --profile=movielens --model=/tmp/model.bin
//       --scenario=user-cold
//   hire_cli generate --profile=douban --out-dir=/tmp/douban_csv
//   hire_cli serve --profile=movielens --model=/tmp/model.bin --port=8080

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "core/evaluation.h"
#include "core/hire_model.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "utils/logging.h"
#include "data/csv_loader.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/samplers.h"
#include "nn/serialize.h"
#include "serve/server.h"
#include "utils/check.h"
#include "utils/flags.h"
#include "utils/string_utils.h"
#include "utils/table_printer.h"
#include "utils/parallel.h"

namespace {

using namespace hire;

constexpr char kUsage[] = R"(hire_cli <train|evaluate|generate|serve> [flags]

common flags:
  --profile <movielens|bookcrossing|douban>  synthetic dataset profile
  --scale <double>                           profile size multiplier (1.0)
  --ratings/--user-attrs/--item-attrs <csv>  load a CSV dataset instead
  --seed <int>                               global seed (7)
  --threads <int>      tensor kernel threads (0 = HIRE_NUM_THREADS env,
                       then hardware concurrency)
  --metrics-out <path> write JSONL telemetry (per-step records, events,
                       final metrics snapshot); appends when resuming
  --trace-out <path>   record scoped spans and write Chrome trace-event
                       JSON (open in Perfetto / chrome://tracing)
  --log-level <debug|info|warn|error>  log threshold (also HIRE_LOG_LEVEL)
  --log-json           emit log lines as JSON objects

train:
  --steps <int>        training steps (300)
  --context <int>      context users = items (16)
  --him-blocks <int>   number of HIM blocks (3)
  --heads <int>        attention heads (4)
  --head-dim <int>     per-head width (8)
  --embed-dim <int>    per-attribute embedding width f (8)
  --out <path>         where to save the trained parameters (required)
  --checkpoint-dir <dir>    directory for training snapshots (off by default)
  --checkpoint-every <int>  snapshot every N steps (50; needs --checkpoint-dir)
  --checkpoint-keep <int>   retain the newest K snapshots (3)
  --resume             continue from the newest valid snapshot in
                       --checkpoint-dir; resumed runs are bitwise identical
                       to uninterrupted ones
  --max-bad-steps <int>     consecutive non-finite steps tolerated before
                            rollback + learning-rate backoff (3; 0 disables)
  --max-rollbacks <int>     rollbacks tolerated before aborting the run
                            (8; 0 = unlimited); the backoff compounds
                            across rollbacks
  --telemetry-every <int>   JSONL step record every N steps (1; needs
                            --metrics-out)

evaluate:
  --model <path>       trained parameters from `train` (required)
  --scenario <user-cold|item-cold|user&item-cold>   (user-cold)
  --eval-users <int>   ranked lists to score (30)

generate:
  --out-dir <dir>      directory for ratings.csv/users.csv/items.csv

serve:
  --model <path>       trained parameters to publish; POST /reload hot-swaps
                       to a newer file with zero downtime. Omitted = boot
                       degraded (bias-table predictions) until a /reload
  --port <int>         HTTP listen port on 127.0.0.1 (0 = ephemeral; the
                       bound port is printed as "SERVE_LISTENING port=N")
  --shards <int>       engine shards behind this server; each owns its own
                       hot-swappable model snapshot, context cache, and
                       micro-batcher, and /predict routes by user-id
                       consistent hashing (1)
  --max-connections <int>   open-connection bound; accepts past it get an
                            immediate 503 + Retry-After instead of growing
                            the fd table (0 = unbounded)
  --max-batch-users <int>   distinct users coalesced per forward: a free
                            batch worker takes whatever is queued, up to
                            this many users, without waiting for more (8;
                            1 = one context per user)
  --context <int>      context users = items, must match training (16)
  --visible-fraction <double>  observed-rating density in served contexts
                            (0.1)
  --cache-capacity <int>    context-plan LRU entries (1024)
  --queue-capacity <int>    request queue bound; overflow returns 503 (256)
  --request-deadline-ms <int>  default per-request deadline; expired
                            requests return 504 (0 = no deadline). Clients
                            override per request with X-Deadline-Ms
  --max-inflight <int>      admitted-but-unresolved cap; beyond it requests
                            are shed with 503 + Retry-After (0 = 2x queue
                            capacity)
  --breaker-threshold <int> consecutive batch failures before the circuit
                            breaker serves fallback predictions (3; 0 = off)
  --breaker-cooldown-ms <int>  open-breaker wait before a trial batch (1000)
  --idle-timeout-ms <int>   close keep-alive connections idle this long
                            (5000)
  --header-timeout-ms <int> total budget to receive one request's head+body;
                            breach returns 408 (slow-loris defense) (2000)
  --trace-sample-every <int>  emit request-correlated spans (req#<id>/queue,
                            .../forward, ...) for every Nth request when
                            --trace-out is set (0 = never)
  --slow-request-ms <int>   log one structured warning line with the full
                            per-stage breakdown for requests slower than
                            this (0 = off)

  endpoints: POST /predict {"user":u,"items":[i,...]}   rating predictions
                  (response carries "shard", the engine shard that answered)
             GET  /healthz                              liveness + versions
                  (fleet-min "model_version" plus per-shard
                  "shard_versions":[...])
             GET  /metrics                              metrics registry JSON
                  (?format=prometheus or /metrics/prometheus for text
                  exposition; merged serve.* totals plus per-shard
                  serve.shard.<i>.routed / .outcome.* / .model_version)
             POST /reload {"model":path}?               rolling hot-swap, one
                  shard at a time; 500 + "failed_shards" when any shard
                  rejects the snapshot (the rest still swap)
             POST /shutdown                             graceful stop
)";

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true); }

data::Dataset LoadDataset(const Flags& flags) {
  const std::string ratings = flags.GetString("ratings", "");
  if (!ratings.empty()) {
    data::CsvDatasetSpec spec;
    spec.name = "csv";
    spec.ratings_path = ratings;
    spec.user_attributes_path = flags.GetString("user-attrs", "");
    spec.item_attributes_path = flags.GetString("item-attrs", "");
    spec.min_rating = static_cast<float>(flags.GetDouble("min-rating", 1.0));
    spec.max_rating = static_cast<float>(flags.GetDouble("max-rating", 5.0));
    return data::LoadCsvDataset(spec);
  }

  const std::string profile = flags.GetString("profile", "movielens");
  const double scale = flags.GetDouble("scale", 1.0);
  data::SyntheticConfig config;
  if (profile == "movielens") {
    config = data::MovieLens1MProfile(scale);
  } else if (profile == "bookcrossing") {
    config = data::BookcrossingProfile(scale);
  } else if (profile == "douban") {
    config = data::DoubanProfile(scale);
  } else {
    HIRE_CHECK(false) << "unknown profile '" << profile << "'";
  }
  return data::GenerateSyntheticDataset(
      config, static_cast<uint64_t>(flags.GetInt("seed", 7)));
}

core::HireConfig ModelConfig(const Flags& flags) {
  core::HireConfig config;
  config.num_him_blocks = static_cast<int>(flags.GetInt("him-blocks", 3));
  config.num_heads = flags.GetInt("heads", 4);
  config.head_dim = flags.GetInt("head-dim", 8);
  config.attr_embed_dim = flags.GetInt("embed-dim", 8);
  return config;
}

int Train(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  HIRE_CHECK(!out.empty()) << "--out is required for train";
  const data::Dataset dataset = LoadDataset(flags);
  std::cout << "dataset: " << dataset.Summary() << "\n";

  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  core::HireModel model(&dataset, ModelConfig(flags),
                        static_cast<uint64_t>(flags.GetInt("seed", 7)));
  std::cout << "model: " << model.NumParameters() << " parameters\n";

  graph::NeighborhoodSampler sampler;
  core::TrainerConfig trainer;
  trainer.num_steps = flags.GetInt("steps", 300);
  trainer.context_users = flags.GetInt("context", 16);
  trainer.context_items = trainer.context_users;
  trainer.batch_size = flags.GetInt("batch", 2);
  trainer.log_every = flags.GetInt("log-every", 100);
  trainer.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  trainer.checkpoint_dir = flags.GetString("checkpoint-dir", "");
  trainer.checkpoint_every =
      trainer.checkpoint_dir.empty() ? 0 : flags.GetInt("checkpoint-every", 50);
  trainer.checkpoint_keep =
      static_cast<int>(flags.GetInt("checkpoint-keep", 3));
  trainer.resume = flags.GetBool("resume", false);
  trainer.max_bad_steps = static_cast<int>(flags.GetInt("max-bad-steps", 3));
  trainer.max_rollbacks = flags.GetInt("max-rollbacks", 8);
  trainer.telemetry_every = flags.GetInt("telemetry-every", 1);
  const core::TrainStats stats =
      core::TrainHire(&model, graph, sampler, trainer);
  if (stats.start_step > 0) {
    std::cout << "resumed from step " << stats.start_step << "\n";
  }
  if (stats.skipped_steps > 0 || stats.rollbacks > 0) {
    std::cout << "divergence guard: skipped " << stats.skipped_steps
              << " step(s), " << stats.rollbacks << " rollback(s)\n";
  }
  if (stats.step_losses.empty()) {
    std::cout << "trained: no steps executed (already complete)\n";
  } else {
    std::cout << "trained: loss " << FormatDouble(stats.step_losses.front(), 4)
              << " -> " << FormatDouble(stats.final_loss, 4) << " in "
              << FormatDouble(stats.train_seconds, 1) << "s\n";
  }

  nn::SaveParameters(model, out);
  std::cout << "saved parameters to " << out << "\n";
  return 0;
}

int Evaluate(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  HIRE_CHECK(!model_path.empty()) << "--model is required for evaluate";
  const data::Dataset dataset = LoadDataset(flags);
  std::cout << "dataset: " << dataset.Summary() << "\n";

  core::HireModel model(&dataset, ModelConfig(flags), 0);
  nn::LoadParameters(&model, model_path);

  const std::string scenario_name =
      flags.GetString("scenario", "user-cold");
  data::ColdStartScenario scenario = data::ColdStartScenario::kUserCold;
  if (scenario_name == "item-cold") {
    scenario = data::ColdStartScenario::kItemCold;
  } else if (scenario_name == "user&item-cold") {
    scenario = data::ColdStartScenario::kUserItemCold;
  } else {
    HIRE_CHECK(scenario_name == "user-cold")
        << "unknown scenario '" << scenario_name << "'";
  }

  Rng split_rng(static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);
  const data::ColdStartSplit split = data::MakeColdStartSplit(
      dataset, scenario, flags.GetDouble("train-fraction", 0.8), &split_rng);

  graph::NeighborhoodSampler sampler;
  const int64_t context = flags.GetInt("context", 16);
  core::HirePredictor predictor(&model, &sampler, context, context,
                                static_cast<uint64_t>(flags.GetInt("seed", 7)) +
                                    2);
  core::EvalConfig eval;
  eval.max_eval_users = flags.GetInt("eval-users", 30);
  const core::EvalResult result =
      core::EvaluateColdStart(&predictor, dataset, split, eval);

  TablePrinter table({"k", "Precision", "NDCG", "MAP"});
  for (const auto& [k, m] : result.by_k) {
    table.AddRow({std::to_string(k), FormatDouble(m.precision, 4),
                  FormatDouble(m.ndcg, 4), FormatDouble(m.map, 4)});
  }
  std::cout << "scenario: " << scenario_name << " (" << result.num_lists
            << " ranked lists, " << FormatDouble(result.predict_seconds, 2)
            << "s prediction time)\n";
  table.Print(std::cout);
  return 0;
}

int Generate(const Flags& flags) {
  const std::string out_dir = flags.GetString("out-dir", "");
  HIRE_CHECK(!out_dir.empty()) << "--out-dir is required for generate";
  const data::Dataset dataset = LoadDataset(flags);
  std::cout << "generated: " << dataset.Summary() << "\n";

  std::ofstream ratings(out_dir + "/ratings.csv");
  HIRE_CHECK(ratings.is_open()) << "cannot write to " << out_dir;
  ratings << "user,item,rating\n";
  for (const data::Rating& rating : dataset.ratings()) {
    ratings << rating.user << "," << rating.item << "," << rating.value
            << "\n";
  }

  std::ofstream users(out_dir + "/users.csv");
  users << "user";
  for (const auto& attribute : dataset.user_schema()) {
    users << "," << attribute.name;
  }
  users << "\n";
  for (int64_t u = 0; u < dataset.num_users(); ++u) {
    users << u;
    for (int64_t value : dataset.user_attributes(u)) users << "," << value;
    users << "\n";
  }

  std::ofstream items(out_dir + "/items.csv");
  items << "item";
  for (const auto& attribute : dataset.item_schema()) {
    items << "," << attribute.name;
  }
  items << "\n";
  for (int64_t i = 0; i < dataset.num_items(); ++i) {
    items << i;
    for (int64_t value : dataset.item_attributes(i)) items << "," << value;
    items << "\n";
  }
  std::cout << "wrote ratings.csv, users.csv, items.csv to " << out_dir
            << "\n";
  return 0;
}

int Serve(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  const data::Dataset dataset = LoadDataset(flags);
  std::cout << "dataset: " << dataset.Summary() << "\n";

  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());

  serve::ServeConfig config;
  config.port = static_cast<int>(flags.GetInt("port", 0));
  config.num_shards = static_cast<int>(flags.GetInt("shards", 1));
  config.max_connections =
      static_cast<int>(flags.GetInt("max-connections", 0));
  config.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache-capacity", 1024));
  config.model_path = model_path;
  config.batcher.max_batch_users = flags.GetInt("max-batch-users", 8);
  config.batcher.context_users = flags.GetInt("context", 16);
  config.batcher.context_items = config.batcher.context_users;
  config.batcher.visible_fraction = flags.GetDouble("visible-fraction", 0.1);
  config.batcher.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  config.batcher.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-capacity", 256));
  config.batcher.request_deadline_ms = flags.GetInt("request-deadline-ms", 0);
  config.batcher.max_inflight = flags.GetInt("max-inflight", 0);
  config.batcher.breaker_threshold = flags.GetInt("breaker-threshold", 3);
  config.batcher.breaker_cooldown_ms =
      flags.GetInt("breaker-cooldown-ms", 1000);
  config.batcher.trace_sample_every = flags.GetInt("trace-sample-every", 0);
  config.batcher.slow_request_ms = flags.GetInt("slow-request-ms", 0);
  config.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms", 5000));
  config.header_timeout_ms =
      static_cast<int>(flags.GetInt("header-timeout-ms", 2000));

  serve::RatingServer server(&dataset, ModelConfig(flags), std::move(graph),
                             config);
  // Every serve flag has been read by now; what is left is a typo or a flag
  // serve does not know. Warn and keep running.
  for (const std::string& name : flags.UnreadNames()) {
    HIRE_LOG(Warning) << "serve: ignoring unknown flag --" << name;
  }
  server.Start();
  // Machine-parseable line for scripts driving an ephemeral-port server.
  std::cout << "SERVE_LISTENING port=" << server.port() << "\n" << std::flush;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!server.WaitForShutdown(/*timeout_ms=*/200)) {
    if (g_interrupted.load()) break;
  }
  std::cout << "shutting down\n";
  server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  try {
    const hire::Flags flags = hire::Flags::Parse(argc - 1, argv + 1);
    hire::InitGlobalThreadsFromFlags(flags);

    const std::string log_level = flags.GetString("log-level", "");
    if (!log_level.empty()) {
      hire::LogLevel level;
      HIRE_CHECK(hire::ParseLogLevel(log_level, &level))
          << "unrecognised --log-level '" << log_level << "'";
      hire::SetLogLevel(level);
    }
    if (flags.GetBool("log-json", false)) {
      hire::SetLogFormat(hire::LogFormat::kJson);
    }

    const std::string metrics_out = flags.GetString("metrics-out", "");
    const std::string trace_out = flags.GetString("trace-out", "");
    if (!metrics_out.empty()) {
      // A resumed run extends the original stream rather than replacing it.
      hire::obs::TelemetrySink::Global().Open(metrics_out,
                                       flags.GetBool("resume", false));
    }
    if (!trace_out.empty()) hire::obs::Tracer::Start();

    int exit_code = 2;
    if (command == "train") {
      exit_code = Train(flags);
    } else if (command == "evaluate") {
      exit_code = Evaluate(flags);
    } else if (command == "generate") {
      exit_code = Generate(flags);
    } else if (command == "serve") {
      exit_code = Serve(flags);
    } else {
      std::cerr << "unknown command '" << command << "'\n" << kUsage;
    }

    if (!trace_out.empty()) {
      hire::obs::Tracer::Stop();
      hire::obs::Tracer::WriteChromeTrace(trace_out);
      std::cout << "wrote " << hire::obs::Tracer::TotalSpans() << " trace span(s) to "
                << trace_out;
      if (hire::obs::Tracer::DroppedSpans() > 0) {
        std::cout << " (" << hire::obs::Tracer::DroppedSpans() << " dropped)";
      }
      std::cout << "\n";
    }
    if (!metrics_out.empty()) {
      hire::obs::TelemetrySink& sink = hire::obs::TelemetrySink::Global();
      sink.WriteMetricsSnapshot(hire::obs::MetricsRegistry::Global().Take());
      sink.Close();
      std::cout << "wrote telemetry to " << metrics_out << "\n";
    }
    return exit_code;
  } catch (const hire::CheckError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    // bad_alloc, filesystem errors, ... — fail with a message and a non-zero
    // exit code instead of std::terminate.
    std::cerr << "fatal: " << error.what() << "\n";
    return 1;
  }
}
