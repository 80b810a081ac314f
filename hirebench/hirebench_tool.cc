// hirebench_tool — the in-process half of the HIRE benchmark (see
// README.md; hirebench/run.py drives it).
//
// Subcommands (flags are --key=value):
//   prepare  generate the synthetic dataset, split it user-cold, train HIRE
//            on the warm ratings with core::TrainHire and save the
//            parameters to --out; reports every step's wall time.
//   eval     run core::EvaluateColdStart on a saved model: a short warm-up
//            pass, then kEvalPasses timed passes over kEvalLists ranked
//            lists each, on one kernel thread.
//   replay   call the public functions of the serve path one at a time on a
//            workload's own requests, at the serving context shape:
//            core::BuildUserContextPlan, graph::AssembleContext,
//            core::ThinObservedCells, core::InferenceModel::Predict, plus
//            graph::BuildTrainingContext.
//   load     open-loop HTTP load generator: one thread sends a schedule of
//            /predict requests, each when it is due, pipelined over at most
//            4 keep-alive connections, and times each request from when it
//            was due.
//
// prepare/eval/replay print one JSON object on stdout. load writes one
// tab-separated line per request to --out and a JSON summary on stdout.
// --trace-out writes the spans recorded around the calls above as Chrome
// trace-event JSON; spans stay in memory until the subcommand ends.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluation.h"
#include "core/hire_model.h"
#include "core/inference_forward.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/context_builder.h"
#include "graph/samplers.h"
#include "nn/serialize.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "serve/http_client.h"
#include "utils/check.h"
#include "utils/flags.h"
#include "utils/logging.h"
#include "utils/parallel.h"

namespace {

using namespace hire;
using Clock = std::chrono::steady_clock;

/// Share of observed ratings left visible in a context: the default of both
/// hire_cli serve (--visible-fraction) and core::TrainerConfig.
constexpr double kVisibleFraction = 0.1;

/// The benchmark's fixed budgets. prepare, eval, replay and load echo the
/// ones they use in their JSON output, so every report records them.
constexpr int kTrainSteps = 20;
constexpr int kTrainBatch = 2;
/// Training's kernel threads. With every core, a step's time also moved
/// with whichever of the host's cores ran slow.
constexpr int kTrainThreads = 1;
/// Ranked lists per evaluation pass, timed passes per evaluation, and the
/// evaluation's kernel threads. With every core, two of 30 evaluations run
/// between load phases did not finish within two minutes.
constexpr int kEvalLists = 60;
constexpr int kEvalPasses = 3;
constexpr int kEvalThreads = 1;
constexpr int kReplayRequests = 200;
/// Keep-alive connections of the load generator (fewer on a smaller box),
/// and how long a request may stay unanswered before it counts as failed.
constexpr int kMaxConnections = 4;
constexpr int kRequestTimeoutMs = 10000;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Spans recorded by this process, kept in memory and written once at exit.
/// Only the calling thread of prepare/eval/replay records; the load
/// generator's threads fill their own vectors and merge them at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double duration_us = 0.0;
    int64_t id = 0;
    int64_t parent = 0;
    int thread = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  Clock::time_point origin() const { return origin_; }

  /// Records [start, end) under `parent` (0 = root); returns the span id.
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent = 0) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.start_us = MicrosBetween(origin_, start);
    span.duration_us = MicrosBetween(start, end);
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.parent = parent;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void Append(std::vector<Span> spans) {
    for (Span& span : spans) {
      span.id = static_cast<int64_t>(spans_.size()) + 1;
      spans_.push_back(std::move(span));
    }
  }

  void Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    HIRE_CHECK(out.is_open()) << "cannot write " << path;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out << ",";
      out << "{\"name\":" << obs::JsonString(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << obs::JsonNumber(s.start_us)
          << ",\"dur\":" << obs::JsonNumber(s.duration_us)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "]}\n";
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Median of `values` (copied); 0 for an empty input.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The benchmark's model: hire_cli's defaults, so `hire_cli serve` with no
/// shape flags loads what `prepare` saved.
core::HireConfig ModelConfig() {
  core::HireConfig config;
  config.num_him_blocks = 3;
  config.num_heads = 4;
  config.head_dim = 8;
  config.attr_embed_dim = 8;
  return config;
}

/// Dataset, user-cold split and warm training graph, all derived from one
/// seed exactly as hire_cli derives them (dataset seed = seed, split seed =
/// seed + 1).
struct Workbench {
  data::Dataset dataset;
  data::ColdStartSplit split;
  graph::BipartiteGraph train_graph;
  double generate_seconds = 0.0;
  double graph_seconds = 0.0;
};

Workbench MakeWorkbench(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const auto t0 = Clock::now();
  data::Dataset dataset = data::GenerateSyntheticDataset(
      data::MovieLens1MProfile(flags.GetDouble("scale", 1.0)), seed);
  const auto t1 = Clock::now();
  Rng split_rng(seed + 1);
  data::ColdStartSplit split = data::MakeColdStartSplit(
      dataset, data::ColdStartScenario::kUserCold, 0.8, &split_rng);
  graph::BipartiteGraph train_graph(dataset.num_users(), dataset.num_items(),
                                    split.train_ratings);
  const auto t2 = Clock::now();
  return Workbench{std::move(dataset), std::move(split),
                   std::move(train_graph), MicrosBetween(t0, t1) * 1e-6,
                   MicrosBetween(t1, t2) * 1e-6};
}

std::string Exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ExactList(const std::vector<double>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    list += (i > 0 ? "," : "") + Exact(values[i]);
  }
  return list + "]";
}

/// Wall seconds of every step record in a TrainHire telemetry stream.
std::vector<double> ReadStepSeconds(const std::string& path) {
  std::ifstream in(path);
  HIRE_CHECK(in.is_open()) << "cannot read " << path;
  std::vector<double> seconds;
  std::string line, type;
  double wall = 0.0;
  while (std::getline(in, line)) {
    if (obs::FindJsonStringField(line, "type", &type) && type == "step" &&
        obs::FindJsonNumberField(line, "wall_s", &wall)) {
      seconds.push_back(wall);
    }
  }
  return seconds;
}

int Prepare(const Flags& flags, SpanLog* spans) {
  const std::string out = flags.GetString("out", "");
  HIRE_CHECK(!out.empty()) << "--out is required";
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const auto setup_start = Clock::now();
  Workbench bench = MakeWorkbench(flags);
  core::HireModel model(&bench.dataset, ModelConfig(), seed);
  graph::NeighborhoodSampler sampler;
  core::TrainerConfig trainer;
  trainer.num_steps = kTrainSteps;
  trainer.batch_size = kTrainBatch;
  trainer.num_threads = kTrainThreads;
  trainer.context_users = flags.GetInt("context", 16);
  trainer.context_items = trainer.context_users;
  trainer.seed = seed + 2;
  // TrainHire times every step into its JSONL telemetry stream (outside the
  // step's own timing); the stream goes next to the model and is read back
  // for the per-step wall times, whose median sets train_steps_per_s.
  const std::string steps_path = out + ".steps.jsonl";
  obs::TelemetrySink::Global().Open(steps_path);
  const auto train_start = Clock::now();
  const core::TrainStats stats =
      core::TrainHire(&model, bench.train_graph, sampler, trainer);
  const auto train_end = Clock::now();
  obs::TelemetrySink::Global().Close();
  const std::vector<double> step_seconds = ReadStepSeconds(steps_path);
  std::remove(steps_path.c_str());
  HIRE_CHECK_EQ(step_seconds.size(), stats.step_losses.size())
      << "telemetry step records vs executed steps";
  nn::SaveParameters(model, out);
  const auto save_end = Clock::now();
  const int64_t root = spans->Add("hirebench.prepare", setup_start, save_end);
  spans->Add("core::TrainHire", train_start, train_end, root);
  spans->Add("nn::SaveParameters", train_end, save_end, root);

  bool finite = !stats.step_losses.empty();
  for (float loss : stats.step_losses) finite = finite && std::isfinite(loss);
  const double steps = static_cast<double>(stats.step_losses.size());
  std::cout << "{\"num_users\":" << bench.dataset.num_users()
            << ",\"num_items\":" << bench.dataset.num_items()
            << ",\"num_ratings\":" << bench.dataset.ratings().size()
            << ",\"min_rating\":" << obs::JsonNumber(bench.dataset.min_rating())
            << ",\"max_rating\":" << obs::JsonNumber(bench.dataset.max_rating())
            << ",\"steps\":" << stats.step_losses.size()
            << ",\"batch\":" << trainer.batch_size
            << ",\"threads\":" << GlobalThreads()
            << ",\"context\":" << trainer.context_users
            << ",\"losses_finite\":" << (finite ? "true" : "false")
            << ",\"first_loss\":"
            << obs::JsonNumber(steps > 0 ? stats.step_losses.front() : 0.0)
            << ",\"final_loss\":" << obs::JsonNumber(stats.final_loss)
            << ",\"skipped_steps\":" << stats.skipped_steps
            << ",\"train_seconds\":" << Exact(stats.train_seconds)
            << ",\"step_seconds\":" << ExactList(step_seconds)
            << ",\"train_wall_seconds\":"
            << Exact(MicrosBetween(train_start, train_end) * 1e-6)
            << ",\"generate_seconds\":" << Exact(bench.generate_seconds)
            << ",\"graph_seconds\":" << Exact(bench.graph_seconds)
            << ",\"save_seconds\":"
            << Exact(MicrosBetween(train_end, save_end) * 1e-6)
            << ",\"matmul_seconds\":" << Exact(stats.matmul_seconds)
            << ",\"attention_seconds\":" << Exact(stats.attention_seconds)
            << ",\"softmax_seconds\":" << Exact(stats.softmax_seconds)
            << ",\"layernorm_seconds\":" << Exact(stats.layernorm_seconds)
            << ",\"embedding_seconds\":" << Exact(stats.embedding_seconds)
            << ",\"optimizer_seconds\":" << Exact(stats.optimizer_seconds)
            << ",\"sampling_seconds\":" << Exact(stats.sampling_seconds)
            << "}\n";
  return 0;
}

int Eval(const Flags& flags, SpanLog* spans) {
  const std::string model_path = flags.GetString("model", "");
  HIRE_CHECK(!model_path.empty()) << "--model is required";
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int64_t context = flags.GetInt("context", 16);
  SetGlobalThreads(kEvalThreads);
  Workbench bench = MakeWorkbench(flags);
  core::HireModel model(&bench.dataset, ModelConfig(), 0);
  nn::LoadParameters(&model, model_path);
  graph::NeighborhoodSampler sampler;
  core::HirePredictor predictor(&model, &sampler, context, context, seed + 3);
  core::EvalConfig config;
  config.max_eval_users = kEvalLists;
  config.seed = seed + 4;

  // A two-list warm-up pass packs the fused inference model (lazily, on
  // the first prediction) and sizes the arena; the timed passes then
  // measure the steady-state Fig. 6 test time. Every pass ranks the same
  // lists, so each must give the same NDCG@5 bit for bit.
  core::EvalConfig warmup = config;
  warmup.max_eval_users = 2;
  core::EvaluateColdStart(&predictor, bench.dataset, bench.split, warmup);
  std::string seconds, ndcg5;
  int64_t lists = 0;
  for (int pass = 0; pass < kEvalPasses; ++pass) {
    const auto start = Clock::now();
    const core::EvalResult result = core::EvaluateColdStart(
        &predictor, bench.dataset, bench.split, config);
    spans->Add("core::EvaluateColdStart", start, Clock::now());
    lists = result.num_lists;
    seconds += (pass > 0 ? "," : "") + Exact(result.predict_seconds);
    ndcg5 += (pass > 0 ? "," : "") +
             obs::JsonString(Exact(result.by_k.at(5).ndcg));
  }
  std::cout << "{\"lists\":" << lists << ",\"threads\":" << GlobalThreads()
            << ",\"predict_seconds\":[" << seconds << "],\"ndcg5\":["
            << ndcg5 << "]}\n";
  return 0;
}

/// One scheduled /predict: due time relative to the schedule start.
struct ScheduledRequest {
  int64_t due_us = 0;
  int64_t user = 0;
  std::vector<int64_t> items;
};

/// Schedule file: one request per line, "due_us user item,item,...".
std::vector<ScheduledRequest> ReadSchedule(const std::string& path) {
  std::ifstream in(path);
  HIRE_CHECK(in.is_open()) << "cannot read schedule " << path;
  std::vector<ScheduledRequest> schedule;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    ScheduledRequest request;
    std::string items;
    fields >> request.due_us >> request.user >> items;
    HIRE_CHECK(!fields.fail()) << "bad schedule line: " << line;
    std::istringstream list(items);
    std::string item;
    while (std::getline(list, item, ',')) {
      request.items.push_back(std::stoll(item));
    }
    HIRE_CHECK(!request.items.empty()) << "no items on line: " << line;
    schedule.push_back(std::move(request));
  }
  return schedule;
}

std::string PredictBody(const ScheduledRequest& request) {
  std::string body = "{\"user\":" + std::to_string(request.user) +
                     ",\"items\":[";
  for (size_t i = 0; i < request.items.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(request.items[i]);
  }
  return body + "]}";
}

/// Floating-point operations of one fused forward over an n x m context,
/// counted analytically from the shape: the QKV and output projections and
/// the two attention matmuls of the MBU, MBI and MBA layers of every HIM
/// block, plus the decoder. Softmax, layer norm and copies are not counted.
double ForwardFlops(const core::HireConfig& config, const data::Dataset& data,
                    int64_t n, int64_t m) {
  const double f = static_cast<double>(config.attr_embed_dim);
  const double slots = static_cast<double>(data.user_schema().size() +
                                           data.item_schema().size() + 1);
  const double e = slots * f;
  const double heads = static_cast<double>(config.num_heads);
  auto attention = [heads](double batch, double tokens, double dim,
                           double head_dim) {
    const double inner = heads * head_dim;
    return 2.0 * batch * tokens * dim * 3.0 * inner +
           4.0 * batch * heads * tokens * tokens * head_dim +
           2.0 * batch * tokens * inner * dim;
  };
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  const double attr_head_dim = std::max(1.0, std::floor(f / heads));
  const double block =
      attention(dm, dn, e, static_cast<double>(config.head_dim)) +
      attention(dn, dm, e, static_cast<double>(config.head_dim)) +
      attention(dn * dm, slots, f, attr_head_dim);
  return static_cast<double>(config.num_him_blocks) * block + 2.0 * dn * dm * e;
}

int Replay(const Flags& flags, SpanLog* spans) {
  const std::string model_path = flags.GetString("model", "");
  HIRE_CHECK(!model_path.empty()) << "--model is required";
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int64_t context = flags.GetInt("context", 16);
  std::vector<ScheduledRequest> schedule =
      ReadSchedule(flags.GetString("schedule", ""));
  if (schedule.size() > kReplayRequests) schedule.resize(kReplayRequests);

  Workbench bench = MakeWorkbench(flags);
  // The serving graph holds every rating, as hire_cli serve builds it.
  const graph::BipartiteGraph graph(bench.dataset.num_users(),
                                    bench.dataset.num_items(),
                                    bench.dataset.ratings());
  core::HireModel model(&bench.dataset, ModelConfig(), 0);
  nn::LoadParameters(&model, model_path);
  const auto pack_start = Clock::now();
  const core::InferenceModel inference(model);
  const auto pack_end = Clock::now();
  spans->Add("core::InferenceModel::InferenceModel", pack_start, pack_end);
  graph::NeighborhoodSampler sampler;
  core::InferenceArena arena;

  std::vector<double> plan_us, assemble_us, thin_us, predict_us, total_us;
  int64_t checked_cells = 0;
  for (size_t r = 0; r < schedule.size(); ++r) {
    const ScheduledRequest& request = schedule[r];
    const auto t0 = Clock::now();
    const core::UserContextPlan plan = core::BuildUserContextPlan(
        graph, sampler, request.user, context, context, seed);
    const auto t1 = Clock::now();
    // A one-user batch laid out as the micro-batcher lays it out: the
    // plan's rows, then the queried items followed by the plan's pool.
    graph::ContextSelection selection;
    selection.users = plan.context_users;
    std::vector<int64_t>& cols = selection.items;
    for (int64_t item : request.items) {
      if (std::find(cols.begin(), cols.end(), item) == cols.end()) {
        cols.push_back(item);
      }
    }
    for (int64_t item : plan.base_items) {
      if (static_cast<int64_t>(cols.size()) >= context) break;
      if (std::find(cols.begin(), cols.end(), item) == cols.end()) {
        cols.push_back(item);
      }
    }
    graph::PredictionContext assembled =
        graph::AssembleContext(graph, std::move(selection));
    const auto t2 = Clock::now();
    core::ThinObservedCells(&assembled, /*keep_rows=*/1, kVisibleFraction,
                            seed);
    const auto t3 = Clock::now();
    const Tensor& predicted = inference.Predict(assembled, &arena);
    const auto t4 = Clock::now();
    for (size_t j = 0; j < request.items.size(); ++j) {
      HIRE_CHECK(std::isfinite(predicted.at(0, static_cast<int64_t>(j))))
          << "non-finite replayed prediction";
      ++checked_cells;
    }
    // The first request warms the arena; it is recorded as a span but
    // left out of the medians.
    const int64_t root = spans->Add("hirebench.replay_request", t0, t4);
    spans->Add("core::BuildUserContextPlan", t0, t1, root);
    spans->Add("graph::AssembleContext", t1, t2, root);
    spans->Add("core::ThinObservedCells", t2, t3, root);
    spans->Add("core::InferenceModel::Predict", t3, t4, root);
    if (r == 0) continue;
    plan_us.push_back(MicrosBetween(t0, t1));
    assemble_us.push_back(MicrosBetween(t1, t2));
    thin_us.push_back(MicrosBetween(t2, t3));
    predict_us.push_back(MicrosBetween(t3, t4));
    total_us.push_back(MicrosBetween(t0, t4));
  }

  std::vector<double> train_context_us;
  Rng rng(seed + 5);
  for (int r = 0; r < kReplayRequests; ++r) {
    const auto t0 = Clock::now();
    const graph::PredictionContext training = graph::BuildTrainingContext(
        bench.train_graph, sampler, context, context, kVisibleFraction, &rng);
    const auto t1 = Clock::now();
    HIRE_CHECK(training.num_users() > 0);
    spans->Add("graph::BuildTrainingContext", t0, t1);
    train_context_us.push_back(MicrosBetween(t0, t1));
  }

  const double flops =
      ForwardFlops(ModelConfig(), bench.dataset, context, context);
  const double predict_median = Median(predict_us);
  std::cout << "{\"requests\":" << predict_us.size()
            << ",\"checked_cells\":" << checked_cells
            << ",\"context\":" << context
            << ",\"pack_us\":" << Exact(MicrosBetween(pack_start, pack_end))
            << ",\"plan_us\":" << Exact(Median(plan_us))
            << ",\"assemble_us\":" << Exact(Median(assemble_us))
            << ",\"thin_us\":" << Exact(Median(thin_us))
            << ",\"predict_us\":" << Exact(predict_median)
            << ",\"request_us\":" << Exact(Median(total_us))
            << ",\"train_context_us\":" << Exact(Median(train_context_us))
            << ",\"forward_flops\":" << Exact(flops)
            << ",\"predict_gflop_per_s\":"
            << Exact(predict_median > 0.0 ? flops / (predict_median * 1e3)
                                          : 0.0)
            << "}\n";
  return 0;
}

/// What the generator saw for one request. Times are microseconds since the
/// schedule's start. late_us is how far past its due time the request was
/// written; depth is how many earlier requests were still unanswered on its
/// connection when it was written (it waits behind them in the server).
struct RequestRecord {
  int status = 0;  // 0 = transport error
  double due_us = 0.0;
  double send_us = 0.0;
  double done_us = 0.0;
  double late_us = 0.0;
  size_t depth = 0;
  int connection = 0;
  std::string body;
};

std::string OneLine(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// One keep-alive connection of the load generator. Requests are pipelined:
/// each is written when it is due, whatever is still unanswered before it,
/// and the answers come back in order.
struct PipelinedConnection {
  int fd = -1;
  std::string in;                  // received bytes not yet parsed
  std::deque<size_t> outstanding;  // request indices, oldest first
  double last_done_us = 0.0;       // when the latest answer arrived
};

/// A blocking, TCP_NODELAY socket connected to 127.0.0.1:port, or -1.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops reading must not block the schedule for long.
  timeval timeout;
  timeout.tv_sec = kRequestTimeoutMs / 1000;
  timeout.tv_usec = (kRequestTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Takes one complete HTTP response off the front of `in`. Returns false,
/// leaving `in` alone, while it is incomplete.
bool TakeResponse(std::string* in, int* status, std::string* body) {
  const size_t head_end = in->find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  std::string head = in->substr(0, head_end);
  for (char& c : head) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const size_t space = head.find(' ');
  const std::string field = "\r\ncontent-length:";
  const size_t length_at = head.find(field);
  HIRE_CHECK(space != std::string::npos && length_at != std::string::npos)
      << "malformed response head: " << OneLine(head);
  const size_t length = static_cast<size_t>(
      std::strtoull(head.c_str() + length_at + field.size(), nullptr, 10));
  if (in->size() < head_end + 4 + length) return false;
  *status = std::atoi(head.c_str() + space + 1);
  *body = in->substr(head_end + 4, length);
  in->erase(0, head_end + 4 + length);
  return true;
}

int Load(const Flags& flags, SpanLog* spans) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  HIRE_CHECK(port > 0) << "--port is required";
  const std::string out = flags.GetString("out", "");
  HIRE_CHECK(!out.empty()) << "--out is required";
  const std::vector<ScheduledRequest> schedule =
      ReadSchedule(flags.GetString("schedule", ""));
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int connections = std::min(kMaxConnections, hardware);

  std::vector<std::string> wire;
  wire.reserve(schedule.size());
  for (const ScheduledRequest& request : schedule) {
    const std::string body = PredictBody(request);
    wire.push_back("POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Connection: keep-alive\r\n"
                   "Content-Type: application/json\r\nContent-Length: " +
                   std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  std::vector<RequestRecord> records(schedule.size());
  // Connections are opened before the clock starts, so the first requests
  // do not pay the handshake.
  serve::HttpClient probe(port, "127.0.0.1", kRequestTimeoutMs);
  const serve::HttpClient::Result health = probe.Get("/healthz");
  HIRE_CHECK(health.ok && health.status == 200)
      << "server not healthy on port " << port << ": " << health.error;
  std::vector<PipelinedConnection> conns(static_cast<size_t>(connections));
  for (PipelinedConnection& conn : conns) {
    conn.fd = ConnectLoopback(port);
    HIRE_CHECK(conn.fd >= 0) << "cannot connect to port " << port;
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  auto since_start = [start](Clock::time_point t) {
    return MicrosBetween(start, t);
  };

  size_t next = 0;
  size_t resolved = 0;
  size_t max_depth = 0;
  // Time the server held a connection per answered request: from when it
  // could start on the request (written, and the one before answered) to
  // the answer. With every connection busy, throughput is connections over
  // its mean.
  double busy_us = 0.0;
  // Fails every unanswered request of `conn` and reconnects it.
  auto fail_connection = [&](PipelinedConnection& conn, const char* why) {
    const double now_us = since_start(Clock::now());
    for (size_t i : conn.outstanding) {
      records[i].status = 0;
      records[i].done_us = now_us;
      records[i].body = why;
      ++resolved;
    }
    conn.outstanding.clear();
    conn.in.clear();
    ::close(conn.fd);
    conn.fd = ConnectLoopback(port);
  };
  std::vector<pollfd> fds(conns.size());
  while (resolved < schedule.size()) {
    // Write every request that is due, each on the connection with the
    // fewest unanswered requests.
    while (next < schedule.size() &&
           Clock::now() >=
               start + std::chrono::microseconds(schedule[next].due_us)) {
      PipelinedConnection* conn = nullptr;
      for (PipelinedConnection& candidate : conns) {
        if (candidate.fd >= 0 &&
            (conn == nullptr ||
             candidate.outstanding.size() < conn->outstanding.size())) {
          conn = &candidate;
        }
      }
      RequestRecord& record = records[next];
      record.due_us = static_cast<double>(schedule[next].due_us);
      record.send_us = since_start(Clock::now());
      record.late_us = record.send_us - record.due_us;
      if (conn == nullptr) {
        record.done_us = record.send_us;
        record.body = "no connection";
        ++resolved;
      } else {
        record.connection = static_cast<int>(conn - conns.data());
        record.depth = conn->outstanding.size();
        max_depth = std::max(max_depth, record.depth);
        conn->outstanding.push_back(next);
        if (!SendAll(conn->fd, wire[next])) {
          fail_connection(*conn, "send failed");
        }
      }
      ++next;
    }
    // Read answers until the next request is due.
    int64_t wait_ns = static_cast<int64_t>(kRequestTimeoutMs) * 1000000;
    if (next < schedule.size()) {
      wait_ns = std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                 start + std::chrono::microseconds(schedule[next].due_us) -
                 Clock::now())
                 .count());
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c] = {conns[c].fd, POLLIN, 0};
    }
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    HIRE_CHECK(ready >= 0 || errno == EINTR)
        << "ppoll failed: " << std::strerror(errno);
    for (size_t c = 0; c < conns.size(); ++c) {
      PipelinedConnection& conn = conns[c];
      if (conn.fd < 0) continue;
      if (fds[c].revents != 0) {
        char chunk[65536];
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
          fail_connection(conn, "connection closed by server");
          continue;
        }
        if (n > 0) conn.in.append(chunk, static_cast<size_t>(n));
        const double done_us = since_start(Clock::now());
        int status = 0;
        std::string body;
        while (!conn.outstanding.empty() &&
               TakeResponse(&conn.in, &status, &body)) {
          RequestRecord& record = records[conn.outstanding.front()];
          conn.outstanding.pop_front();
          busy_us += done_us - std::max(record.send_us, conn.last_done_us);
          conn.last_done_us = done_us;
          record.status = status;
          record.done_us = done_us;
          record.body = std::move(body);
          ++resolved;
        }
      }
      if (!conn.outstanding.empty() &&
          since_start(Clock::now()) -
                  records[conn.outstanding.front()].send_us >
              kRequestTimeoutMs * 1e3) {
        fail_connection(conn, "timeout");
      }
    }
  }
  for (PipelinedConnection& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }

  std::ofstream file(out);
  HIRE_CHECK(file.is_open()) << "cannot write " << out;
  int64_t ok = 0;
  double last_done = 0.0;
  std::vector<SpanLog::Span> request_spans;
  for (size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    if (r.status == 200) ++ok;
    last_done = std::max(last_done, r.done_us);
    file << i << '\t' << r.status << '\t' << Exact(r.due_us) << '\t'
         << Exact(r.send_us) << '\t' << Exact(r.done_us) << '\t'
         << Exact(r.late_us) << '\t' << r.depth << '\t' << OneLine(r.body)
         << '\n';
    if (spans->enabled()) {
      SpanLog::Span span;
      span.name = "POST /predict";
      span.start_us = MicrosBetween(spans->origin(), start) + r.send_us;
      span.duration_us = r.done_us - r.send_us;
      span.thread = r.connection + 1;
      request_spans.push_back(std::move(span));
    }
  }
  spans->Append(std::move(request_spans));
  file.close();
  HIRE_CHECK(!file.fail()) << "failed writing " << out;
  std::cout << "{\"sent\":" << records.size() << ",\"ok\":" << ok
            << ",\"connections\":" << connections
            << ",\"max_depth\":" << max_depth
            << ",\"busy_us\":" << Exact(busy_us)
            << ",\"last_done_us\":" << Exact(last_done) << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: hirebench_tool <prepare|eval|replay|load> "
                 "[--key=value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const hire::Flags flags = hire::Flags::Parse(argc - 1, argv + 1);
    hire::SetLogLevel(hire::LogLevel::kWarning);
    const std::string trace_out = flags.GetString("trace-out", "");
    SpanLog spans(!trace_out.empty());
    int code = 2;
    if (command == "prepare") {
      code = Prepare(flags, &spans);
    } else if (command == "eval") {
      code = Eval(flags, &spans);
    } else if (command == "replay") {
      code = Replay(flags, &spans);
    } else if (command == "load") {
      code = Load(flags, &spans);
    } else {
      std::cerr << "unknown subcommand '" << command << "'\n";
      return 2;
    }
    spans.Write(trace_out);
    return code;
  } catch (const std::exception& error) {
    std::cerr << "hirebench_tool " << command << ": " << error.what() << "\n";
    return 1;
  }
}
