// Micro-benchmarks gating the tape-free fused inference path: fused QKV +
// online-softmax attention vs the tape MHSA, the fused GEMM epilogue vs the
// unfused op chain, and the whole serve forward (InferenceModel::Predict)
// vs the autograd reference (HireModel::Predict) at serve batch shapes.
//
// Three modes:
//   * default: the google-benchmark suite below.
//   * --emit_json=PATH [--threads=1,2] [--min_time=0.2]: times every
//     tape/fused pair in 15 alternating rounds, each side at least min_time
//     seconds a round, and takes the median per-round speedup of fused over
//     tape; repeats that in five passes and keeps each row's slowest pass. Writes this machine's record (machine fingerprint; per
//     row op, shape, impl, threads, median ns/iter, median speedup) into
//     PATH, replacing the record with the same fingerprint and keeping the
//     others. tools/run_bench.sh --kernels wraps this for BENCH_kernels.json
//     at the repo root.
//   * --check_regress=BASELINE [--regress_tolerance=0.10]: runs the same
//     timing and gates the in-run speedups, never absolute times (those move
//     across hardware and between runs on one host). serve_forward must be
//     at least 1.5x tape on any machine; when a BASELINE record carries this
//     machine's fingerprint, every row must reach its recorded speedup x
//     (1 - tolerance). Rows with neither floor are reported as ungated. Exit
//     1 on a failure. Blind spot: a slowdown shared by both sides (a slower
//     GEMM backend, say) leaves the ratios where they were.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/hire_config.h"
#include "core/hire_model.h"
#include "core/inference_forward.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/context_builder.h"
#include "graph/samplers.h"
#include "nn/fused_attention.h"
#include "nn/multi_head_self_attention.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "obs/stopwatch.h"
#include "utils/parallel.h"
#include "utils/string_utils.h"

namespace {

using namespace hire;

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

data::Dataset BenchDataset() {
  data::SyntheticConfig config;
  config.num_users = 256;
  config.num_items = 256;
  config.num_ratings = 6000;
  config.user_schema = {{"age", 6}, {"gender", 2}};
  config.item_schema = {{"genre", 8}};
  return data::GenerateSyntheticDataset(config, /*seed=*/17);
}

graph::PredictionContext BenchContext(const data::Dataset& dataset, int64_t n,
                                      int64_t m, uint64_t seed) {
  graph::BipartiteGraph graph(dataset.num_users(), dataset.num_items(),
                              dataset.ratings());
  graph::NeighborhoodSampler sampler;
  Rng rng(seed);
  return graph::BuildTrainingContext(graph, sampler, n, m, 0.3, &rng);
}

// ---------------------------------------------------------------------------
// google-benchmark suite (default mode).
// ---------------------------------------------------------------------------

void BM_TapeMhsa(benchmark::State& state) {
  const int64_t tokens = state.range(0);
  Rng rng(1);
  nn::MhsaConfig config;
  config.embed_dim = 64;
  config.num_heads = 8;
  nn::MultiHeadSelfAttention mhsa(config, &rng);
  mhsa.SetTraining(false);
  ag::Variable x(RandomNormal({16, tokens, 64}, 0, 1, &rng), false);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mhsa.Forward(x));
  }
}
BENCHMARK(BM_TapeMhsa)->RangeMultiplier(2)->Range(4, 32);

void BM_FusedAttention(benchmark::State& state) {
  const int64_t tokens = state.range(0);
  Rng rng(1);
  nn::MhsaConfig config;
  config.embed_dim = 64;
  config.num_heads = 8;
  nn::MultiHeadSelfAttention mhsa(config, &rng);
  const nn::FusedAttentionWeights packed = nn::PackAttentionWeights(mhsa);
  Tensor x = RandomNormal({16, tokens, 64}, 0, 1, &rng);
  Tensor out(x.shape());
  std::vector<float> scratch(
      static_cast<size_t>(packed.ScratchFloats(16, tokens)));
  for (auto _ : state) {
    nn::FusedAttentionForward(packed, x.data(), 16, tokens, tokens,
                              out.data(), scratch.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FusedAttention)->RangeMultiplier(2)->Range(4, 32);

void BM_UnfusedGemmChain(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(2);
  Tensor a = RandomNormal({rows, 64}, 0, 1, &rng);
  Tensor b = RandomNormal({64, 192}, 0, 1, &rng);
  Tensor bias = RandomNormal({192}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::AddBias(ops::MatMul(a, b), bias));
  }
}
BENCHMARK(BM_UnfusedGemmChain)->RangeMultiplier(2)->Range(64, 512);

void BM_GemmBiasAct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(2);
  Tensor a = RandomNormal({rows, 64}, 0, 1, &rng);
  Tensor b = RandomNormal({64, 192}, 0, 1, &rng);
  Tensor bias = RandomNormal({192}, 0, 1, &rng);
  Tensor c({rows, 192});
  for (auto _ : state) {
    ops::GemmBiasActInto(a.data(), b.data(), bias.data(), c.data(), rows, 64,
                         192);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBiasAct)->RangeMultiplier(2)->Range(64, 512);

void BM_SoftmaxMatmulChain(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  Tensor q = RandomNormal({batch, 16, 16}, 0, 1, &rng);
  Tensor k = RandomNormal({batch, 16, 16}, 0, 1, &rng);
  Tensor v = RandomNormal({batch, 16, 16}, 0, 1, &rng);
  for (auto _ : state) {
    Tensor scores =
        ops::MulScalar(ops::BatchedMatMulTransposedB(q, k), 0.25f);
    benchmark::DoNotOptimize(ops::BatchedMatMul(ops::Softmax(scores), v));
  }
}
BENCHMARK(BM_SoftmaxMatmulChain)->RangeMultiplier(4)->Range(8, 128);

void BM_OnlineSoftmaxWeightedSum(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  Tensor q = RandomNormal({batch, 16, 16}, 0, 1, &rng);
  Tensor k = RandomNormal({batch, 16, 16}, 0, 1, &rng);
  Tensor v = RandomNormal({batch, 16, 16}, 0, 1, &rng);
  Tensor out(q.shape());
  for (auto _ : state) {
    for (int64_t s = 0; s < batch; ++s) {
      ops::OnlineSoftmaxWeightedSumInto(
          q.data() + s * 256, 16, k.data() + s * 256, 16,
          v.data() + s * 256, 16, out.data() + s * 256, 16, 16, 16, 16,
          0.25f);
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_OnlineSoftmaxWeightedSum)->RangeMultiplier(4)->Range(8, 128);

void BM_TapeServeForward(benchmark::State& state) {
  data::Dataset dataset = BenchDataset();
  core::HireConfig config;  // paper defaults: 3 blocks, 8 heads, dk 16
  core::HireModel model(&dataset, config, /*seed=*/5);
  model.SetTraining(false);
  graph::PredictionContext context = BenchContext(dataset, 16, 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(context));
  }
}
BENCHMARK(BM_TapeServeForward);

// Arg: query rows — 16 is the full forward, 1 what cold-start evaluation
// reads (one target user per context).
void BM_FusedServeForward(benchmark::State& state) {
  data::Dataset dataset = BenchDataset();
  core::HireConfig config;
  core::HireModel model(&dataset, config, /*seed=*/5);
  model.SetTraining(false);
  const core::InferenceModel fused(model);
  core::InferenceArena arena;
  graph::PredictionContext context = BenchContext(dataset, 16, 16, 7);
  const int64_t query_rows = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fused.Predict(context, &arena, query_rows).data());
  }
}
BENCHMARK(BM_FusedServeForward)->Arg(16)->Arg(1);

// ---------------------------------------------------------------------------
// JSON harness (--emit_json) and the regression gate (--check_regress).
// ---------------------------------------------------------------------------

struct BenchRow {
  std::string op;
  std::string shape;
  std::string impl;  // "tape" or "fused"
  int threads = 1;
  double ns_per_iter = 0.0;
  double speedup_vs_tape = 0.0;  // 1.0 on tape rows
};

struct BenchCase {
  std::string op;
  std::string shape;
  std::function<void()> tape_fn;
  std::function<void()> fused_fn;
};

/// Times `fn` for at least `min_seconds` of wall clock, however many
/// iterations that takes, and returns ns per iteration.
double TimeNsPerIter(const std::function<void()>& fn, double min_seconds) {
  Stopwatch stopwatch;
  int64_t iters = 0;
  do {
    fn();
    ++iters;
  } while (stopwatch.ElapsedSeconds() < min_seconds);
  return stopwatch.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The benchmark pairs. Held behind a function so both --emit_json and
/// --check_regress time the identical workloads. The shapes are the ones
/// the serve tier actually runs: the default BatcherConfig context is
/// 16 x 16 and the HIM blocks attend over 16-token user/item sequences and
/// 4-token attribute sequences.
struct BenchFixtures {
  static nn::MhsaConfig MhsaCfg() {
    nn::MhsaConfig config;
    config.embed_dim = 64;
    config.num_heads = 8;
    return config;
  }

  data::Dataset dataset;
  core::HireConfig config;
  core::HireModel model;
  core::InferenceModel fused;
  core::InferenceArena arena;
  graph::PredictionContext context;

  Rng rng;
  nn::MultiHeadSelfAttention mhsa;
  nn::FusedAttentionWeights packed;
  Tensor mhsa_x;
  ag::Variable mhsa_xv;
  Tensor mhsa_out;
  std::vector<float> mhsa_scratch;

  Tensor gemm_a, gemm_b, gemm_bias, gemm_c;
  Tensor attn_q, attn_k, attn_v, attn_out;

  BenchFixtures()
      : dataset(BenchDataset()),
        model(&dataset, config, /*seed=*/5),
        fused(model),
        context(BenchContext(dataset, 16, 16, /*seed=*/7)),
        rng(11),
        mhsa(MhsaCfg(), &rng),
        packed(nn::PackAttentionWeights(mhsa)),
        mhsa_x(RandomNormal({16, 16, 64}, 0, 1, &rng)),
        mhsa_xv(mhsa_x, false),
        mhsa_out({16, 16, 64}),
        mhsa_scratch(static_cast<size_t>(packed.ScratchFloats(16, 16))),
        gemm_a(RandomNormal({256, 64}, 0, 1, &rng)),
        gemm_b(RandomNormal({64, 192}, 0, 1, &rng)),
        gemm_bias(RandomNormal({192}, 0, 1, &rng)),
        gemm_c({256, 192}),
        attn_q(RandomNormal({128, 16, 16}, 0, 1, &rng)),
        attn_k(RandomNormal({128, 16, 16}, 0, 1, &rng)),
        attn_v(RandomNormal({128, 16, 16}, 0, 1, &rng)),
        attn_out({128, 16, 16}) {
    model.SetTraining(false);
    mhsa.SetTraining(false);
  }
};

std::vector<BenchCase> BuildCases(BenchFixtures* fx) {
  std::vector<BenchCase> cases;

  cases.push_back(
      {"mhsa", "16x16x64",
       [fx] {
         ag::NoGradGuard no_grad;
         benchmark::DoNotOptimize(fx->mhsa.Forward(fx->mhsa_xv));
       },
       [fx] {
         nn::FusedAttentionForward(fx->packed, fx->mhsa_x.data(), 16, 16,
                                   16, fx->mhsa_out.data(),
                                   fx->mhsa_scratch.data());
         benchmark::DoNotOptimize(fx->mhsa_out.data());
       }});

  cases.push_back(
      {"gemm_bias", "256x64x192",
       [fx] {
         benchmark::DoNotOptimize(
             ops::AddBias(ops::MatMul(fx->gemm_a, fx->gemm_b),
                          fx->gemm_bias));
       },
       [fx] {
         ops::GemmBiasActInto(fx->gemm_a.data(), fx->gemm_b.data(),
                              fx->gemm_bias.data(), fx->gemm_c.data(), 256,
                              64, 192);
         benchmark::DoNotOptimize(fx->gemm_c.data());
       }});

  cases.push_back(
      {"attention_core", "128x16x16",
       [fx] {
         Tensor scores = ops::MulScalar(
             ops::BatchedMatMulTransposedB(fx->attn_q, fx->attn_k), 0.25f);
         benchmark::DoNotOptimize(
             ops::BatchedMatMul(ops::Softmax(scores), fx->attn_v));
       },
       [fx] {
         for (int64_t s = 0; s < 128; ++s) {
           ops::OnlineSoftmaxWeightedSumInto(
               fx->attn_q.data() + s * 256, 16, fx->attn_k.data() + s * 256,
               16, fx->attn_v.data() + s * 256, 16,
               fx->attn_out.data() + s * 256, 16, 16, 16, 16, 0.25f);
         }
         benchmark::DoNotOptimize(fx->attn_out.data());
       }});

  // The acceptance case: whole forward at the default serve batch shape.
  cases.push_back(
      {"serve_forward", "16x16",
       [fx] { benchmark::DoNotOptimize(fx->model.Predict(fx->context)); },
       [fx] {
         benchmark::DoNotOptimize(
             fx->fused.Predict(fx->context, &fx->arena).data());
       }});
  return cases;
}

/// Rounds per timing run; see RunCases.
constexpr int kRounds = 15;

/// The one timing routine behind both --emit_json and --check_regress.
/// A round times, case after case, the tape side and the fused side for at
/// least `min_seconds` each, flipping which side goes first every round; so
/// each case's rounds spread over the whole run, and a change in the host's
/// load hits both sides and every case alike. The fused row carries the
/// median of the case's per-round speedups — a ratio measured in one run,
/// which holds still on a host whose absolute times do not — and both rows
/// carry their median ns/iter for information.
std::vector<BenchRow> RunCases(const std::vector<BenchCase>& cases,
                               const std::vector<int>& thread_counts,
                               double min_seconds) {
  std::vector<BenchRow> rows;
  for (const int threads : thread_counts) {
    SetGlobalThreads(threads);
    for (const BenchCase& bench : cases) {
      bench.tape_fn();  // warm-up: arena growth, first touch of the weights
      bench.fused_fn();
    }
    std::vector<std::vector<double>> tape_ns(cases.size());
    std::vector<std::vector<double>> fused_ns(cases.size());
    std::vector<std::vector<double>> speedups(cases.size());
    for (int round = 0; round < kRounds; ++round) {
      for (size_t c = 0; c < cases.size(); ++c) {
        if (round % 2 == 0) {
          tape_ns[c].push_back(TimeNsPerIter(cases[c].tape_fn, min_seconds));
          fused_ns[c].push_back(
              TimeNsPerIter(cases[c].fused_fn, min_seconds));
        } else {
          fused_ns[c].push_back(
              TimeNsPerIter(cases[c].fused_fn, min_seconds));
          tape_ns[c].push_back(TimeNsPerIter(cases[c].tape_fn, min_seconds));
        }
        speedups[c].push_back(tape_ns[c].back() / fused_ns[c].back());
      }
    }
    for (size_t c = 0; c < cases.size(); ++c) {
      BenchRow tape_row;
      tape_row.op = cases[c].op;
      tape_row.shape = cases[c].shape;
      tape_row.impl = "tape";
      tape_row.threads = threads;
      tape_row.ns_per_iter = Median(tape_ns[c]);
      tape_row.speedup_vs_tape = 1.0;
      rows.push_back(tape_row);
      BenchRow fused_row = tape_row;
      fused_row.impl = "fused";
      fused_row.ns_per_iter = Median(fused_ns[c]);
      fused_row.speedup_vs_tape = Median(speedups[c]);
      rows.push_back(fused_row);
      const auto [lo, hi] =
          std::minmax_element(speedups[c].begin(), speedups[c].end());
      std::cerr << tape_row.op << " " << tape_row.shape << " t=" << threads
                << ": tape " << tape_row.ns_per_iter << " ns/iter, fused "
                << fused_row.ns_per_iter << " ns/iter, median speedup x"
                << fused_row.speedup_vs_tape << " over " << kRounds
                << " rounds (x" << *lo << "..x" << *hi << ")\n";
    }
  }
  SetGlobalThreads(0);
  return rows;
}

/// Passes per record; see RecordRows.
constexpr int kRecordPasses = 5;

/// The rows of a record: the timing above, run kRecordPasses times, keeping
/// per row the pass with the lowest fused speedup. The host's load moves the
/// speedups by several percent over minutes, so a record taken in one lucky
/// pass would leave the gate's tolerance no room; the slowest pass the
/// recording saw does.
std::vector<BenchRow> RecordRows(const std::vector<BenchCase>& cases,
                                 const std::vector<int>& thread_counts,
                                 double min_seconds) {
  std::vector<BenchRow> rows = RunCases(cases, thread_counts, min_seconds);
  for (int pass = 1; pass < kRecordPasses; ++pass) {
    const std::vector<BenchRow> next =
        RunCases(cases, thread_counts, min_seconds);
    for (size_t i = 1; i < rows.size(); i += 2) {  // (tape, fused) pairs
      if (next[i].speedup_vs_tape < rows[i].speedup_vs_tape) {
        rows[i - 1] = next[i - 1];
        rows[i] = next[i];
      }
    }
  }
  return rows;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The machine this binary runs on, with the fields and values of
/// fingerprint() in hirebench/run.py: CPU model and ISA flags from
/// /proc/cpuinfo, logical cores (online CPUs, so `taskset` does not change
/// it), the compiler's `--version` line and the build type (both stamped in
/// by bench/CMakeLists.txt). Serialised as one line of JSON; a record belongs
/// to this machine when its fingerprint line is equal.
std::string MachineFingerprint() {
  std::string cpu_model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = Trim(line.substr(0, colon));
    if (key == "model name" && cpu_model == "unknown") {
      cpu_model = Trim(line.substr(colon + 1));
    } else if (key == "flags" && flags.empty()) {
      std::istringstream words(line.substr(colon + 1));
      for (std::string flag; words >> flag;) flags.insert(flag);
    }
  }
  std::vector<std::string> isa;
  for (const char* flag : {"amx_tile", "avx", "avx2", "avx512_vnni", "avx512bw",
                           "avx512f", "avx512vl", "fma", "sse4_2"}) {
    if (flags.count(flag) > 0) isa.push_back(JsonString(flag));
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream out;
  out << "{\"cpu_model\": " << JsonString(cpu_model)
      << ", \"nproc\": " << (nproc == 0 ? 1 : nproc) << ", \"isa\": ["
      << Join(isa, ", ") << "], \"compiler\": "
      << JsonString(HIRE_CXX_COMPILER_VERSION)
      << ", \"build_type\": " << JsonString(HIRE_BUILD_TYPE) << "}";
  return out.str();
}

/// One record of BENCH_kernels.json: the rows one --emit_json run measured
/// on one machine. The file is a JSON array of records; each record starts
/// with a "{" line and ends with a "}" (or "},") line at column 0, and the
/// array brackets sit on lines of their own. A file holding one bare record
/// (the format before fingerprints) reads as a one-record file.
struct Record {
  std::string text;         // verbatim, so a rewrite keeps it byte for byte
  std::string fingerprint;  // empty when it has none: matches no machine
  std::vector<BenchRow> rows;
};

/// Minimal parser for the JSON this binary writes: one result object per
/// line, string values without escapes.
BenchRow ParseRow(const std::string& line) {
  auto string_field = [&line](const std::string& key) {
    const std::string needle = "\"" + key + "\": \"";
    const size_t at = line.find(needle);
    if (at == std::string::npos) return std::string();
    const size_t begin = at + needle.size();
    return line.substr(begin, line.find('"', begin) - begin);
  };
  auto number_field = [&line](const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const size_t at = line.find(needle);
    if (at == std::string::npos) return 0.0;
    return std::strtod(line.c_str() + at + needle.size(), nullptr);
  };
  BenchRow row;
  row.op = string_field("op");
  row.shape = string_field("shape");
  row.impl = string_field("impl");
  row.threads = static_cast<int>(number_field("threads"));
  row.ns_per_iter = number_field("ns_per_iter");
  row.speedup_vs_tape = number_field("speedup_vs_tape");
  return row;
}

std::vector<Record> ReadRecords(const std::string& path) {
  std::ifstream in(path);
  std::vector<Record> records;
  bool open = false;
  const std::string fingerprint_key = "\"fingerprint\": ";
  std::string line;
  while (std::getline(in, line)) {
    if (line == "{") {
      records.emplace_back();
      open = true;
    }
    if (!open) continue;
    Record& record = records.back();
    if (line == "}" || line == "},") {
      record.text += "}";
      open = false;
      continue;
    }
    record.text += line + "\n";
    const size_t at = line.find(fingerprint_key);
    if (at != std::string::npos) {
      const size_t begin = at + fingerprint_key.size();
      record.fingerprint = line.substr(begin, line.rfind('}') + 1 - begin);
    } else if (line.find("\"op\"") != std::string::npos) {
      record.rows.push_back(ParseRow(line));
    }
  }
  if (open) records.pop_back();  // truncated: no closing line
  return records;
}

/// Writes this machine's record into PATH, replacing the record with the
/// same fingerprint (or, on a machine PATH has not seen, going first) and
/// keeping every other record verbatim.
int EmitJson(const std::vector<BenchRow>& rows, const std::string& path,
             double min_seconds) {
  const std::string fingerprint = MachineFingerprint();
  std::ostringstream record;
  record << "{\n"
         << "  \"generated_by\": \"bench_kernels --emit_json\",\n"
         << "  \"fingerprint\": " << fingerprint << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"passes\": " << kRecordPasses << ",\n"
         << "  \"min_time_s\": " << min_seconds << ",\n"
         << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    record << "    {\"op\": \"" << row.op << "\", \"shape\": \"" << row.shape
           << "\", \"impl\": \"" << row.impl << "\", \"threads\": "
           << row.threads << ", \"ns_per_iter\": "
           << static_cast<int64_t>(row.ns_per_iter)
           << ", \"speedup_vs_tape\": " << row.speedup_vs_tape << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  record << "  ]\n}";

  std::vector<std::string> texts;
  bool replaced = false;
  for (const Record& old : ReadRecords(path)) {
    if (old.fingerprint == fingerprint) {
      texts.push_back(record.str());
      replaced = true;
    } else {
      texts.push_back(old.text);
    }
  }
  if (!replaced) texts.insert(texts.begin(), record.str());

  std::ofstream out(path);
  if (!out.is_open()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << "[\n" << Join(texts, ",\n") << "\n]\n";
  std::cerr << (replaced ? "replaced" : "added") << " the record for "
            << fingerprint << " in " << path << " (" << texts.size()
            << " records)\n";
  return 0;
}

/// DESIGN.md "Inference path": the fused serve forward must be at least
/// this many times faster than the tape forward, on any machine.
constexpr double kServeForwardMinSpeedup = 1.5;

/// Gates the in-run fused/tape speedups. serve_forward must reach
/// kServeForwardMinSpeedup everywhere; when a record in BASELINE carries
/// this machine's fingerprint, every row must also reach its recorded
/// speedup x (1 - tolerance). Absolute times are never compared.
int CheckRegress(const std::string& baseline_path, double tolerance,
                 const std::vector<int>& thread_counts, double min_seconds) {
  const std::vector<Record> records = ReadRecords(baseline_path);
  if (records.empty()) {
    std::cerr << "kernel_regress: cannot read baseline " << baseline_path
              << " (regenerate with tools/run_bench.sh --kernels)\n";
    return 1;
  }
  const std::string fingerprint = MachineFingerprint();
  std::map<std::tuple<std::string, std::string, int>, double> recorded;
  for (const Record& record : records) {
    if (record.fingerprint != fingerprint) continue;
    for (const BenchRow& row : record.rows) {
      if (row.impl == "fused") {
        recorded[{row.op, row.shape, row.threads}] = row.speedup_vs_tape;
      }
    }
  }
  std::cerr << "kernel_regress: machine " << fingerprint << " "
            << (recorded.empty() ? "matches no record" : "matches a record")
            << " in " << baseline_path << "\n";

  BenchFixtures fixtures;
  const std::vector<BenchRow> rows =
      RunCases(BuildCases(&fixtures), thread_counts, min_seconds);
  int failures = 0;
  int gated = 0;
  std::vector<std::string> ungated;
  for (const BenchRow& row : rows) {
    if (row.impl != "fused") continue;
    const std::string label =
        row.op + " " + row.shape + " t=" + std::to_string(row.threads);
    double floor = 0.0;
    std::string why;
    if (row.op == "serve_forward") {
      floor = kServeForwardMinSpeedup;
      why = "design bar";
    }
    const auto it = recorded.find({row.op, row.shape, row.threads});
    if (it != recorded.end() && it->second * (1.0 - tolerance) > floor) {
      floor = it->second * (1.0 - tolerance);
      why = "recorded x" + FormatDouble(it->second, 3) + " - " +
            FormatDouble(tolerance * 100, 0) + "%";
    }
    if (floor == 0.0) {
      ungated.push_back(label);
      continue;
    }
    ++gated;
    const bool ok = row.speedup_vs_tape >= floor;
    if (!ok) ++failures;
    std::cerr << (ok ? "kernel_regress ok: " : "kernel_regress FAIL: ")
              << label << " fused x" << FormatDouble(row.speedup_vs_tape, 3)
              << " of tape, floor x" << FormatDouble(floor, 3) << " (" << why
              << ")\n";
  }
  if (!ungated.empty()) {
    std::cerr << "kernel_regress: ungated (no record for this machine, no "
                 "cross-machine floor): "
              << Join(ungated, ", ")
              << ". Record this machine with tools/run_bench.sh --kernels;"
                 " it rewrites only this machine's record.\n";
  }
  if (failures > 0) {
    std::cerr << "kernel_regress: FAIL (" << failures << " of " << gated
              << " gated rows below their floor)\n";
    return 1;
  }
  std::cerr << "kernel_regress: PASS (" << gated
            << " rows gated on in-run fused/tape speedups)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit_json;
  std::string check_regress;
  std::vector<int> thread_counts = {1};
  double min_seconds = 0.2;
  double regress_tolerance = 0.10;

  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (hire::StartsWith(arg, "--emit_json=")) {
      emit_json = arg.substr(std::strlen("--emit_json="));
    } else if (hire::StartsWith(arg, "--check_regress=")) {
      check_regress = arg.substr(std::strlen("--check_regress="));
    } else if (hire::StartsWith(arg, "--threads=")) {
      thread_counts.clear();
      for (const std::string& field :
           hire::Split(arg.substr(std::strlen("--threads=")), ',')) {
        thread_counts.push_back(
            static_cast<int>(hire::ParseInt64(hire::Trim(field))));
      }
    } else if (hire::StartsWith(arg, "--min_time=")) {
      min_seconds = hire::ParseDouble(arg.substr(std::strlen("--min_time=")));
    } else if (hire::StartsWith(arg, "--regress_tolerance=")) {
      regress_tolerance =
          hire::ParseDouble(arg.substr(std::strlen("--regress_tolerance=")));
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  if (!check_regress.empty()) {
    return CheckRegress(check_regress, regress_tolerance, thread_counts,
                        min_seconds);
  }
  if (!emit_json.empty()) {
    BenchFixtures fixtures;
    return EmitJson(
        RecordRows(BuildCases(&fixtures), thread_counts, min_seconds),
        emit_json, min_seconds);
  }

  int passthrough_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&passthrough_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
