// Micro-benchmarks of the computational substrate: GEMM kernels, softmax,
// a full MHSA layer forward, and the autograd round trip. These bound what
// the training loop can achieve and make substrate regressions visible.
//
// Two modes:
//   * default: the google-benchmark suite below.
//   * --emit_json=PATH [--threads=1,2,8] [--min_time=0.2]: a before/after
//     harness that times the seed scalar kernels (re-implemented here
//     verbatim) against the blocked/threaded ops at each requested thread
//     count and writes machine-readable rows (op, shape, impl, threads,
//     ns/iter, GFLOP/s, speedup vs seed) to PATH. tools/run_bench.sh wraps
//     this mode and checks BENCH_tensor.json in at the repo root.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/multi_head_self_attention.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "obs/stopwatch.h"
#include "utils/string_utils.h"
#include "utils/parallel.h"

namespace {

using namespace hire;

// ---------------------------------------------------------------------------
// google-benchmark suite (default mode).
// ---------------------------------------------------------------------------

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomNormal({n, n}, 0, 1, &rng);
  Tensor b = RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->RangeMultiplier(2)->Range(16, 512);

void BM_BatchedMatMul(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(2);
  Tensor a = RandomNormal({batch, 32, 32}, 0, 1, &rng);
  Tensor b = RandomNormal({batch, 32, 32}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::BatchedMatMul(a, b));
  }
}
BENCHMARK(BM_BatchedMatMul)->RangeMultiplier(2)->Range(1, 64);

void BM_Softmax(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(3);
  Tensor a = RandomNormal({rows, 64}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Softmax(a));
  }
}
BENCHMARK(BM_Softmax)->RangeMultiplier(4)->Range(16, 1024);

void BM_MhsaForward(benchmark::State& state) {
  const int64_t tokens = state.range(0);
  Rng rng(4);
  nn::MhsaConfig config;
  config.embed_dim = 64;
  config.num_heads = 4;
  nn::MultiHeadSelfAttention mhsa(config, &rng);
  mhsa.SetTraining(false);
  ag::Variable x(RandomNormal({8, tokens, 64}, 0, 1, &rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mhsa.Forward(x));
  }
}
BENCHMARK(BM_MhsaForward)->RangeMultiplier(2)->Range(8, 64);

void BM_AutogradForwardBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  ag::Variable w(RandomNormal({n, n}, 0, 0.1f, &rng), true);
  ag::Variable x(RandomNormal({n, n}, 0, 1, &rng), false);
  for (auto _ : state) {
    w.ZeroGrad();
    ag::Variable loss = ag::MeanAll(ag::Square(ag::MatMul(x, w)));
    loss.Backward();
    benchmark::DoNotOptimize(w.grad());
  }
}
BENCHMARK(BM_AutogradForwardBackward)->RangeMultiplier(2)->Range(16, 128);

void BM_EmbeddingLookup(benchmark::State& state) {
  const int64_t count = state.range(0);
  Rng rng(6);
  ag::Variable table(RandomNormal({1000, 16}, 0, 1, &rng), true);
  std::vector<int64_t> indices(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    indices[static_cast<size_t>(i)] = rng.UniformInt(1000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::EmbeddingLookup(table, indices));
  }
}
BENCHMARK(BM_EmbeddingLookup)->RangeMultiplier(4)->Range(64, 4096);

// ---------------------------------------------------------------------------
// JSON before/after harness.
// ---------------------------------------------------------------------------

// The seed's scalar kernels, reproduced exactly (including the `a_ip == 0`
// skip) as the "before" baseline.
void SeedGemm(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * m;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;
      const float* b_row = b + p * m;
      for (int64_t j = 0; j < m; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void SeedGemmTransposedB(const float* a, const float* b, float* c, int64_t n,
                         int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * m;
    for (int64_t j = 0; j < m; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += acc;
    }
  }
}

Tensor SeedSoftmax(const Tensor& a) {
  const int64_t d = a.shape(-1);
  const int64_t rows = a.size() / d;
  Tensor out(a.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = a.data() + r * d;
    float* dst = out.data() + r * d;
    float row_max = src[0];
    for (int64_t j = 1; j < d; ++j) row_max = std::max(row_max, src[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      dst[j] = std::exp(src[j] - row_max);
      denom += dst[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < d; ++j) dst[j] *= inv;
  }
  return out;
}

Tensor SeedAdd(const Tensor& a, const Tensor& b) {
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = pa[i] + pb[i];
  return out;
}

Tensor SeedSumAxis0(const Tensor& a) {
  const int64_t extent = a.shape(0);
  const int64_t inner = a.size() / extent;
  Tensor out({inner});
  for (int64_t e = 0; e < extent; ++e) {
    const float* src = a.data() + e * inner;
    float* dst = out.data();
    for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
  }
  return out;
}

struct BenchRow {
  std::string op;
  std::string shape;
  std::string impl;  // "seed" or "hire"
  int threads = 1;            // requested via SetGlobalThreads
  int effective_threads = 1;  // min(requested, hardware cores)
  bool oversubscribed = false;
  double ns_per_iter = 0.0;
  double gflops = 0.0;
  double speedup_vs_seed = 0.0;
};

int HardwareCores() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Times `fn` with one warmup call, then iterates until `min_seconds` of wall
// time or 200 iterations, whichever first. Returns ns/iter.
double TimeNsPerIter(const std::function<void()>& fn, double min_seconds) {
  fn();  // warmup
  Stopwatch stopwatch;
  int iters = 0;
  do {
    fn();
    ++iters;
  } while (stopwatch.ElapsedSeconds() < min_seconds && iters < 200);
  return stopwatch.ElapsedSeconds() * 1e9 / iters;
}

// One benchmark case: a seed-kernel closure and an ops closure, measured at
// every requested thread count.
struct BenchCase {
  std::string op;
  std::string shape;
  double flops_per_iter;
  std::function<void()> seed_fn;
  std::function<void()> hire_fn;
};

std::vector<BenchRow> RunCases(const std::vector<BenchCase>& cases,
                               const std::vector<int>& thread_counts,
                               double min_seconds) {
  std::vector<BenchRow> rows;
  for (const BenchCase& bench : cases) {
    SetGlobalThreads(1);
    const double seed_ns = TimeNsPerIter(bench.seed_fn, min_seconds);
    BenchRow seed_row;
    seed_row.op = bench.op;
    seed_row.shape = bench.shape;
    seed_row.impl = "seed";
    seed_row.threads = 1;
    seed_row.ns_per_iter = seed_ns;
    seed_row.gflops = bench.flops_per_iter / seed_ns;
    seed_row.speedup_vs_seed = 1.0;
    rows.push_back(seed_row);
    std::cerr << bench.op << " " << bench.shape << " seed: " << seed_ns
              << " ns/iter (" << seed_row.gflops << " GFLOP/s)\n";

    for (const int threads : thread_counts) {
      SetGlobalThreads(threads);
      const double ns = TimeNsPerIter(bench.hire_fn, min_seconds);
      BenchRow row;
      row.op = bench.op;
      row.shape = bench.shape;
      row.impl = "hire";
      row.threads = threads;
      row.effective_threads = std::min(threads, HardwareCores());
      row.oversubscribed = threads > HardwareCores();
      row.ns_per_iter = ns;
      row.gflops = bench.flops_per_iter / ns;
      row.speedup_vs_seed = seed_ns / ns;
      rows.push_back(row);
      std::cerr << bench.op << " " << bench.shape << " hire t=" << threads
                << ": " << ns << " ns/iter (" << row.gflops
                << " GFLOP/s, x" << row.speedup_vs_seed << ")"
                << (row.oversubscribed ? " [OVERSUBSCRIBED]" : "") << "\n";
    }
  }
  SetGlobalThreads(0);
  return rows;
}

// Satellite check: fails (returns nonzero) when any threaded hire row whose
// requested thread count fits within the machine's cores is slower than the
// single-thread hire row for the same (op, shape) beyond `tolerance`
// (fractional, e.g. 0.05 = 5%). Skipped with a message when the machine has
// one effective core: every threaded row is oversubscribed there and only
// dispatch noise would be measured.
int CheckScaling(const std::vector<BenchRow>& rows, double tolerance) {
  if (HardwareCores() == 1) {
    std::cerr << "check_scaling: skipped (effective cores == 1; all threaded "
                 "rows are oversubscribed)\n";
    return 0;
  }
  std::map<std::pair<std::string, std::string>, double> serial_ns;
  for (const BenchRow& row : rows) {
    if (row.impl == "hire" && row.threads == 1) {
      serial_ns[{row.op, row.shape}] = row.ns_per_iter;
    }
  }
  int failures = 0;
  for (const BenchRow& row : rows) {
    if (row.impl != "hire" || row.threads <= 1 || row.oversubscribed) continue;
    auto it = serial_ns.find({row.op, row.shape});
    if (it == serial_ns.end()) continue;
    if (row.ns_per_iter > it->second * (1.0 + tolerance)) {
      std::cerr << "check_scaling FAIL: " << row.op << " " << row.shape
                << " threads=" << row.threads << " took " << row.ns_per_iter
                << " ns/iter vs " << it->second
                << " ns/iter serial (tolerance " << tolerance * 100 << "%)\n";
      ++failures;
    }
  }
  if (failures == 0) {
    std::cerr << "check_scaling: OK (no threaded row slower than serial "
                 "beyond tolerance)\n";
  }
  return failures == 0 ? 0 : 1;
}

int RunJsonHarness(const std::string& out_path,
                   const std::vector<int>& thread_counts, double min_seconds,
                   bool check_scaling, double scaling_tolerance) {
  Rng rng(42);
  std::vector<BenchCase> cases;

  for (const int64_t n : {128, 256, 512}) {
    Tensor a = RandomNormal({n, n}, 0, 1, &rng);
    Tensor b = RandomNormal({n, n}, 0, 1, &rng);
    std::ostringstream shape;
    shape << n << "x" << n << "x" << n;
    cases.push_back(
        {"gemm", shape.str(), 2.0 * n * n * n,
         [a, b, n] {
           Tensor c({n, n});
           SeedGemm(a.data(), b.data(), c.data(), n, n, n);
           benchmark::DoNotOptimize(c.data());
         },
         [a, b] { benchmark::DoNotOptimize(ops::MatMul(a, b)); }});
  }

  {
    const int64_t n = 256;
    Tensor a = RandomNormal({n, n}, 0, 1, &rng);
    Tensor bt = RandomNormal({n, n}, 0, 1, &rng);
    cases.push_back(
        {"gemm_tb", "256x256x256", 2.0 * n * n * n,
         [a, bt, n] {
           Tensor c({n, n});
           SeedGemmTransposedB(a.data(), bt.data(), c.data(), n, n, n);
           benchmark::DoNotOptimize(c.data());
         },
         [a, bt] {
           benchmark::DoNotOptimize(ops::MatMulTransposedB(a, bt));
         }});
  }

  {
    const int64_t batch = 64, t = 64;
    Tensor a = RandomNormal({batch, t, t}, 0, 1, &rng);
    Tensor b = RandomNormal({batch, t, t}, 0, 1, &rng);
    cases.push_back(
        {"batched_gemm", "64x64x64x64", 2.0 * batch * t * t * t,
         [a, b, batch, t] {
           Tensor c({batch, t, t});
           for (int64_t s = 0; s < batch; ++s) {
             SeedGemm(a.data() + s * t * t, b.data() + s * t * t,
                      c.data() + s * t * t, t, t, t);
           }
           benchmark::DoNotOptimize(c.data());
         },
         [a, b] { benchmark::DoNotOptimize(ops::BatchedMatMul(a, b)); }});
  }

  {
    const int64_t rows = 8192, d = 128;
    Tensor a = RandomNormal({rows, d}, 0, 1, &rng);
    // ~4 "flops" per element: max, subtract+exp, accumulate, scale.
    cases.push_back({"softmax", "8192x128", 4.0 * rows * d,
                     [a] { benchmark::DoNotOptimize(SeedSoftmax(a)); },
                     [a] { benchmark::DoNotOptimize(ops::Softmax(a)); }});
  }

  {
    const int64_t n = 1 << 22;
    Tensor a = RandomNormal({n}, 0, 1, &rng);
    Tensor b = RandomNormal({n}, 0, 1, &rng);
    cases.push_back({"add", "4194304", static_cast<double>(n),
                     [a, b] { benchmark::DoNotOptimize(SeedAdd(a, b)); },
                     [a, b] { benchmark::DoNotOptimize(ops::Add(a, b)); }});
  }

  {
    const int64_t rows = 4096, d = 1024;
    Tensor a = RandomNormal({rows, d}, 0, 1, &rng);
    cases.push_back({"sum_axis0", "4096x1024",
                     static_cast<double>(rows) * d,
                     [a] { benchmark::DoNotOptimize(SeedSumAxis0(a)); },
                     [a] { benchmark::DoNotOptimize(ops::Sum(a, 0)); }});
  }

  bool any_oversubscribed = false;
  for (const int threads : thread_counts) {
    if (threads > HardwareCores()) any_oversubscribed = true;
  }
  if (any_oversubscribed) {
    std::cerr << "\n"
              << "============================================================\n"
              << "WARNING: requested thread counts exceed the "
              << HardwareCores() << " hardware core(s) on this machine.\n"
              << "Oversubscribed rows measure scheduling overhead, not\n"
              << "parallel speedup; they are tagged \"oversubscribed\" in the\n"
              << "JSON output and must not be read as scaling results.\n"
              << "============================================================\n"
              << "\n";
  }

  const std::vector<BenchRow> rows =
      RunCases(cases, thread_counts, min_seconds);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"generated_by\": \"bench_micro_tensor --emit_json\",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"oversubscribed\": " << (any_oversubscribed ? "true" : "false")
      << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    out << "    {\"op\": \"" << row.op << "\", \"shape\": \"" << row.shape
        << "\", \"impl\": \"" << row.impl << "\", \"threads\": "
        << row.threads << ", \"effective_threads\": " << row.effective_threads
        << ", \"oversubscribed\": " << (row.oversubscribed ? "true" : "false")
        << ", \"ns_per_iter\": "
        << static_cast<int64_t>(row.ns_per_iter) << ", \"gflops\": "
        << row.gflops << ", \"speedup_vs_seed\": " << row.speedup_vs_seed
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cerr << "wrote " << rows.size() << " rows to " << out_path << "\n";

  if (check_scaling) {
    return CheckScaling(rows, scaling_tolerance);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit_json;
  std::vector<int> thread_counts = {1, 2, 8};
  double min_seconds = 0.2;
  bool check_scaling = false;
  double scaling_tolerance = 0.05;

  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (hire::StartsWith(arg, "--emit_json=")) {
      emit_json = arg.substr(std::strlen("--emit_json="));
    } else if (hire::StartsWith(arg, "--threads=")) {
      thread_counts.clear();
      for (const std::string& field :
           hire::Split(arg.substr(std::strlen("--threads=")), ',')) {
        thread_counts.push_back(
            static_cast<int>(hire::ParseInt64(hire::Trim(field))));
      }
    } else if (hire::StartsWith(arg, "--min_time=")) {
      min_seconds = hire::ParseDouble(arg.substr(std::strlen("--min_time=")));
    } else if (arg == "--check_scaling") {
      check_scaling = true;
    } else if (hire::StartsWith(arg, "--check_scaling=")) {
      check_scaling = true;
      scaling_tolerance =
          hire::ParseDouble(arg.substr(std::strlen("--check_scaling=")));
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  if (!emit_json.empty()) {
    return RunJsonHarness(emit_json, thread_counts, min_seconds, check_scaling,
                          scaling_tolerance);
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
