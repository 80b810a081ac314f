// Tests for the observability subsystem (src/obs/): metrics registry,
// scoped-span tracer, kernel timers, JSON helpers, telemetry sink, and their
// integration with the trainer — including the overhead guard asserting that
// disabled instrumentation stays out of the step loop.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/hire_config.h"
#include "core/hire_model.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/samplers.h"
#include "obs/json.h"
#include "obs/kernel_timers.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "utils/check.h"

namespace hire {
namespace {

using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// JSON helpers.
// ---------------------------------------------------------------------------

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obs::JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(JsonTest, NumberFormatsRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(obs::JsonNumber(2.0), "2");
  EXPECT_EQ(obs::JsonNumber(std::nan("")), "null");
  EXPECT_EQ(obs::JsonNumber(HUGE_VAL), "null");
}

TEST(JsonTest, ValidateAcceptsDocumentsAndRejectsGarbage) {
  std::string error;
  EXPECT_TRUE(obs::JsonValidate("{\"a\":[1,2.5,\"x\",null,true]}", &error));
  EXPECT_TRUE(obs::JsonValidate("  [1, {\"k\": -3e2}] ", &error));
  EXPECT_FALSE(obs::JsonValidate("{\"a\":}", &error));
  EXPECT_FALSE(obs::JsonValidate("{\"a\":1} trailing", &error));
  EXPECT_FALSE(obs::JsonValidate("{\"a\":1", &error));
}

TEST(JsonTest, FieldScannersFindNumbersAndStrings) {
  const std::string line = "{\"type\":\"step\",\"loss\":0.25,\"step\":7}";
  double value = 0.0;
  ASSERT_TRUE(obs::FindJsonNumberField(line, "loss", &value));
  EXPECT_DOUBLE_EQ(value, 0.25);
  ASSERT_TRUE(obs::FindJsonNumberField(line, "step", &value));
  EXPECT_DOUBLE_EQ(value, 7.0);
  EXPECT_FALSE(obs::FindJsonNumberField(line, "missing", &value));
  std::string text;
  ASSERT_TRUE(obs::FindJsonStringField(line, "type", &text));
  EXPECT_EQ(text, "step");
}

// ---------------------------------------------------------------------------
// Counters, gauges, registry.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterIncrementsAndRegistryReturnsStableHandle) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* counter = registry.GetCounter("test.counter_basic");
  counter->Reset();
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Value(), 42u);
  EXPECT_EQ(registry.GetCounter("test.counter_basic"), counter);
}

TEST(MetricsTest, ConcurrentCounterIncrementsFromManyThreadsAllLand) {
  obs::Counter* counter =
      MetricsRegistry::Global().GetCounter("test.counter_concurrent");
  counter->Reset();
  constexpr int kTasks = 16;
  constexpr int kIncrementsPerTask = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTasks; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrementsPerTask; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kTasks) * kIncrementsPerTask);
}

TEST(MetricsTest, GaugeKeepsLastWrite) {
  obs::Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(1.5);
  gauge->Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), -2.25);
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.kind_mismatch");
  EXPECT_THROW(registry.GetGauge("test.kind_mismatch"), CheckError);
  EXPECT_THROW(registry.GetHistogram("test.kind_mismatch"), CheckError);
}

TEST(MetricsTest, SnapshotToJsonIsValid) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json_counter")->Increment(3);
  registry.GetGauge("test.json_gauge")->Set(0.5);
  registry.GetHistogram("test.json_hist")->Record(1e-3);
  const std::string json = registry.Take().ToJson();
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

obs::Histogram* TestHistogram(const std::string& name) {
  obs::HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;  // bounds 1, 2, 4, 8 + overflow
  return MetricsRegistry::Global().GetHistogram(name, options);
}

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  obs::Histogram* histogram = TestHistogram("test.hist_bounds");
  histogram->Reset();
  EXPECT_EQ(histogram->BucketIndex(0.5), 0);
  EXPECT_EQ(histogram->BucketIndex(1.0), 0);  // value == bound stays below
  EXPECT_EQ(histogram->BucketIndex(1.001), 1);
  EXPECT_EQ(histogram->BucketIndex(2.0), 1);
  EXPECT_EQ(histogram->BucketIndex(8.0), 3);
  EXPECT_EQ(histogram->BucketIndex(8.001), 4);  // overflow

  for (double value : {0.5, 1.0, 1.5, 3.0, 100.0}) histogram->Record(value);
  const obs::HistogramSnapshot snapshot = histogram->Take();
  ASSERT_EQ(snapshot.upper_bounds.size(), 4u);
  ASSERT_EQ(snapshot.bucket_counts.size(), 5u);
  EXPECT_EQ(snapshot.bucket_counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(snapshot.bucket_counts[1], 1u);  // 1.5
  EXPECT_EQ(snapshot.bucket_counts[2], 1u);  // 3.0
  EXPECT_EQ(snapshot.bucket_counts[3], 0u);
  EXPECT_EQ(snapshot.bucket_counts[4], 1u);  // 100.0 overflow
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.5 + 1.0 + 1.5 + 3.0 + 100.0);
}

TEST(HistogramTest, MergeAndDeltaCombinePopulations) {
  obs::Histogram* histogram = TestHistogram("test.hist_merge");
  histogram->Reset();
  histogram->Record(0.5);
  const obs::HistogramSnapshot earlier = histogram->Take();
  histogram->Record(3.0);
  histogram->Record(100.0);
  const obs::HistogramSnapshot later = histogram->Take();

  const obs::HistogramSnapshot delta = later.Delta(earlier);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.bucket_counts[0], 0u);
  EXPECT_EQ(delta.bucket_counts[2], 1u);
  EXPECT_EQ(delta.bucket_counts[4], 1u);

  obs::HistogramSnapshot merged = earlier;
  merged.Merge(delta);
  EXPECT_EQ(merged.count, later.count);
  EXPECT_EQ(merged.bucket_counts, later.bucket_counts);
  EXPECT_DOUBLE_EQ(merged.sum, later.sum);

  std::string error;
  EXPECT_TRUE(obs::JsonValidate(merged.ToJson(), &error)) << error;
}

// ---------------------------------------------------------------------------
// Kernel timers.
// ---------------------------------------------------------------------------

TEST(KernelTimersTest, AllEightCategoriesAccumulateAndPrint) {
  KernelTimers::Reset();
  for (int c = 0; c < KernelTimers::kNumCategories; ++c) {
    KernelTimers::Add(static_cast<KernelCategory>(c),
                      static_cast<uint64_t>(c + 1) * 1000000000ull);
  }
  const KernelTimers::Snapshot snapshot = KernelTimers::Take();
  EXPECT_DOUBLE_EQ(snapshot.Seconds(KernelCategory::kMatMul), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.Seconds(KernelCategory::kCheckpointIo), 8.0);
  const std::string text = snapshot.ToString();
  for (const char* name : {"matmul", "softmax", "attention", "optim",
                           "layernorm", "embedding", "sampling", "ckpt-io"}) {
    EXPECT_NE(text.find(name), std::string::npos) << text;
  }
  KernelTimers::Reset();
  const KernelTimers::Snapshot zero = KernelTimers::Take();
  EXPECT_EQ(zero.nanos[0], 0u);
}

TEST(KernelTimersTest, BackedByRegistryCounters) {
  KernelTimers::Reset();
  KernelTimers::Add(KernelCategory::kSampling, 123);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("kernel.sampling_nanos")->Value(),
      123u);
  KernelTimers::Reset();
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledScopesRecordNothing) {
  obs::Tracer::Stop();
  obs::Tracer::Clear();
  {
    HIRE_TRACE_SCOPE("should_not_appear");
  }
  EXPECT_EQ(obs::Tracer::TotalSpans(), 0u);
}

TEST(TracerTest, RecordsSpansAcrossThreadsAndExportsValidChromeTrace) {
  obs::Tracer::Start();
  {
    HIRE_TRACE_SCOPE("main_thread_span");
  }
  obs::EmitSpan("explicit_span", obs::TraceNowNanos(),
                obs::TraceNowNanos() + 1000);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([] { HIRE_TRACE_SCOPE("worker_span"); });
    }
    for (std::thread& worker : workers) worker.join();
  }
  obs::Tracer::Stop();
  // main + explicit + 4 worker spans.
  EXPECT_GE(obs::Tracer::TotalSpans(), 6u);
  EXPECT_EQ(obs::Tracer::DroppedSpans(), 0u);

  const std::string json = obs::Tracer::ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name :
       {"main_thread_span", "explicit_span", "worker_span"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "missing span " << name;
  }
  obs::Tracer::Clear();
}

TEST(TracerTest, StartClearsPreviousSpans) {
  obs::Tracer::Start();
  { HIRE_TRACE_SCOPE("first_session"); }
  EXPECT_EQ(obs::Tracer::TotalSpans(), 1u);
  obs::Tracer::Start();
  EXPECT_EQ(obs::Tracer::TotalSpans(), 0u);
  obs::Tracer::Stop();
  obs::Tracer::Clear();
}

TEST(TracerTest, LongSpanNamesAreTruncatedNotCorrupted) {
  obs::Tracer::Start();
  const std::string long_name(200, 'x');
  { obs::TraceScope scope(long_name); }
  obs::Tracer::Stop();
  const std::string json = obs::Tracer::ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find(std::string(obs::internal::kMaxSpanName - 1, 'x')),
            std::string::npos);
  obs::Tracer::Clear();
}

// Overhead guard, part 1: with tracing disabled, a TraceScope must cost on
// the order of an atomic load — give it a generous ceiling so the test stays
// robust on loaded CI machines while still catching an accidental lock or
// allocation on the disabled path.
TEST(TracerTest, DisabledScopeOverheadIsNegligible) {
  obs::Tracer::Stop();
  constexpr int kIterations = 1000000;
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    HIRE_TRACE_SCOPE("disabled");
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  const double nanos_per_scope =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      kIterations;
  EXPECT_LT(nanos_per_scope, 250.0)
      << "disabled TraceScope costs " << nanos_per_scope << "ns";
}

// ---------------------------------------------------------------------------
// Telemetry sink.
// ---------------------------------------------------------------------------

std::string ScratchDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/hire_obs_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryTest, WritesOneValidJsonObjectPerRecord) {
  const std::string path = ScratchDir("sink") + "/telemetry.jsonl";
  obs::TelemetrySink& sink = obs::TelemetrySink::Global();
  sink.Open(path);
  ASSERT_TRUE(sink.enabled());

  obs::StepTelemetry step;
  step.step = 1;
  step.total_steps = 2;
  step.loss = 0.5;
  step.grad_norm = 1.25;
  step.lr = 1e-3;
  step.wall_seconds = 0.01;
  step.kernel_delta.nanos[0] = 1000000;
  step.has_kernel_delta = true;
  sink.WriteStep(step);
  step.step = 2;
  sink.WriteStep(step);
  sink.WriteEvent("checkpoint_write", 2, {{"path", obs::JsonString("x")}});
  sink.WriteMetricsSnapshot(MetricsRegistry::Global().Take());
  sink.Close();
  EXPECT_FALSE(sink.enabled());

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(obs::JsonValidate(line, &error)) << line << ": " << error;
  }
  double value = 0.0;
  ASSERT_TRUE(obs::FindJsonNumberField(lines[0], "loss", &value));
  EXPECT_DOUBLE_EQ(value, 0.5);
  ASSERT_TRUE(obs::FindJsonNumberField(lines[0], "grad_norm", &value));
  EXPECT_DOUBLE_EQ(value, 1.25);
  std::string text;
  ASSERT_TRUE(obs::FindJsonStringField(lines[2], "name", &text));
  EXPECT_EQ(text, "checkpoint_write");
  ASSERT_TRUE(obs::FindJsonStringField(lines[3], "type", &text));
  EXPECT_EQ(text, "metrics_snapshot");
}

// ---------------------------------------------------------------------------
// Trainer integration.
// ---------------------------------------------------------------------------

data::Dataset SmallDataset(uint64_t seed = 1) {
  data::SyntheticConfig config;
  config.num_users = 48;
  config.num_items = 48;
  config.num_ratings = 900;
  config.user_schema = {{"age", 4}, {"gender", 2}};
  config.item_schema = {{"genre", 5}};
  return data::GenerateSyntheticDataset(config, seed);
}

core::HireConfig SmallConfig() {
  core::HireConfig config;
  config.num_him_blocks = 2;
  config.num_heads = 2;
  config.head_dim = 4;
  config.attr_embed_dim = 4;
  return config;
}

core::TrainerConfig SmallTrainer(int64_t steps) {
  core::TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = 2;
  config.context_users = 6;
  config.context_items = 6;
  config.log_every = 0;
  config.num_threads = 1;
  config.seed = 17;
  return config;
}

struct StepRecord {
  int64_t step = 0;
  double loss = 0.0;
  double grad_norm = 0.0;
  double lr = 0.0;
  double lr_scale = 0.0;
};

std::vector<StepRecord> StepRecords(const std::string& path) {
  std::vector<StepRecord> records;
  for (const std::string& line : ReadLines(path)) {
    std::string type;
    if (!obs::FindJsonStringField(line, "type", &type) || type != "step") {
      continue;
    }
    std::string error;
    EXPECT_TRUE(obs::JsonValidate(line, &error)) << line << ": " << error;
    StepRecord record;
    double step = 0.0;
    EXPECT_TRUE(obs::FindJsonNumberField(line, "step", &step));
    record.step = static_cast<int64_t>(step);
    EXPECT_TRUE(obs::FindJsonNumberField(line, "loss", &record.loss));
    EXPECT_TRUE(obs::FindJsonNumberField(line, "grad_norm",
                                         &record.grad_norm));
    EXPECT_TRUE(obs::FindJsonNumberField(line, "lr", &record.lr));
    EXPECT_TRUE(obs::FindJsonNumberField(line, "lr_scale", &record.lr_scale));
    records.push_back(record);
  }
  return records;
}

TEST(TrainerTelemetryTest, OneStepRecordPerStep) {
  const data::Dataset dataset = SmallDataset();
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  core::HireModel model(&dataset, SmallConfig(), 3);

  const std::string path = ScratchDir("trainer") + "/telemetry.jsonl";
  obs::TelemetrySink::Global().Open(path);
  constexpr int64_t kSteps = 6;
  core::TrainHire(&model, graph, sampler, SmallTrainer(kSteps));
  obs::TelemetrySink::Global().Close();

  const std::vector<StepRecord> records = StepRecords(path);
  ASSERT_EQ(records.size(), static_cast<size_t>(kSteps));
  for (int64_t s = 0; s < kSteps; ++s) {
    EXPECT_EQ(records[static_cast<size_t>(s)].step, s + 1);
    EXPECT_TRUE(std::isfinite(records[static_cast<size_t>(s)].loss));
    EXPECT_GT(records[static_cast<size_t>(s)].grad_norm, 0.0);
    EXPECT_GT(records[static_cast<size_t>(s)].lr, 0.0);
    EXPECT_DOUBLE_EQ(records[static_cast<size_t>(s)].lr_scale, 1.0);
  }
}

TEST(TrainerTelemetryTest, ResumedRunReplaysDeterministicFieldsIdentically) {
  const std::string dir = ScratchDir("resume");
  const data::Dataset dataset = SmallDataset();
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  constexpr int64_t kSteps = 8;

  // Reference: one uninterrupted run, no checkpointing.
  const std::string ref_path = dir + "/reference.jsonl";
  {
    core::HireModel model(&dataset, SmallConfig(), 3);
    obs::TelemetrySink::Global().Open(ref_path);
    core::TrainHire(&model, graph, sampler, SmallTrainer(kSteps));
    obs::TelemetrySink::Global().Close();
  }

  // Writer: same full-length config (the LR schedule depends on num_steps,
  // so the interrupted run must be configured for all kSteps) with snapshots
  // at 4 and 8.
  const std::string writer_path = dir + "/writer.jsonl";
  {
    core::HireModel model(&dataset, SmallConfig(), 3);
    core::TrainerConfig config = SmallTrainer(kSteps);
    config.checkpoint_dir = dir + "/ckpt";
    config.checkpoint_every = kSteps / 2;
    obs::TelemetrySink::Global().Open(writer_path);
    core::TrainHire(&model, graph, sampler, config);
    obs::TelemetrySink::Global().Close();
  }

  // Simulate a crash after step 4: the ckpt-8 snapshot was never written and
  // only the first half of the telemetry stream survives on disk.
  std::filesystem::remove(dir + "/ckpt/" + core::CheckpointFileName(kSteps));
  const std::string resumed_path = dir + "/resumed.jsonl";
  {
    std::ofstream out(resumed_path);
    for (const std::string& line : ReadLines(writer_path)) {
      std::string type;
      double step = 0.0;
      if (obs::FindJsonStringField(line, "type", &type) && type == "step" &&
          obs::FindJsonNumberField(line, "step", &step) &&
          static_cast<int64_t>(step) > kSteps / 2) {
        break;
      }
      out << line << "\n";
    }
  }

  // Resume in a fresh process-equivalent; the sink reopens the surviving
  // stream in append mode, so replayed steps 5..8 extend it.
  {
    core::HireModel model(&dataset, SmallConfig(), 3);
    core::TrainerConfig config = SmallTrainer(kSteps);
    config.checkpoint_dir = dir + "/ckpt";
    config.checkpoint_every = kSteps / 2;
    config.resume = true;
    obs::TelemetrySink::Global().Open(resumed_path, /*append=*/true);
    const core::TrainStats stats =
        core::TrainHire(&model, graph, sampler, config);
    obs::TelemetrySink::Global().Close();
    EXPECT_EQ(stats.start_step, kSteps / 2);
  }

  const std::vector<StepRecord> reference = StepRecords(ref_path);
  const std::vector<StepRecord> resumed = StepRecords(resumed_path);
  ASSERT_EQ(reference.size(), static_cast<size_t>(kSteps));
  ASSERT_EQ(resumed.size(), static_cast<size_t>(kSteps));
  for (size_t s = 0; s < reference.size(); ++s) {
    EXPECT_EQ(reference[s].step, resumed[s].step);
    EXPECT_EQ(reference[s].loss, resumed[s].loss) << "step " << s + 1;
    EXPECT_EQ(reference[s].grad_norm, resumed[s].grad_norm)
        << "step " << s + 1;
    EXPECT_EQ(reference[s].lr, resumed[s].lr) << "step " << s + 1;
    EXPECT_EQ(reference[s].lr_scale, resumed[s].lr_scale)
        << "step " << s + 1;
  }
}

// Overhead guard, part 2: with the tracer disabled and the sink closed, a
// full training run must register zero spans — proving the instrumentation
// (including backward hooks) stays completely out of the step loop.
TEST(TrainerTelemetryTest, FlagsOffTrainingRegistersZeroSpans) {
  obs::Tracer::Stop();
  obs::Tracer::Clear();
  ASSERT_FALSE(obs::TelemetrySink::Global().enabled());

  const data::Dataset dataset = SmallDataset();
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  core::HireModel model(&dataset, SmallConfig(), 3);
  core::TrainHire(&model, graph, sampler, SmallTrainer(4));

  EXPECT_EQ(obs::Tracer::TotalSpans(), 0u);
}

TEST(TrainerTelemetryTest, TracedTrainingEmitsExpectedSpans) {
  const data::Dataset dataset = SmallDataset();
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  core::HireModel model(&dataset, SmallConfig(), 3);

  obs::Tracer::Start();
  core::TrainHire(&model, graph, sampler, SmallTrainer(3));
  obs::Tracer::Stop();

  const std::string json = obs::Tracer::ToChromeTraceJson();
  obs::Tracer::Clear();
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error;
  for (const char* name :
       {"train_step", "forward", "backward", "model_forward", "mhsa_forward",
        "mhsa_backward", "him_block_0_forward", "him_block_0_backward",
        "him_block_1_forward", "grad_clip", "optimizer_step",
        "context_sampling"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "missing span " << name;
  }
}

}  // namespace
}  // namespace hire
