#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "utils/check.h"
#include "utils/cost_model.h"
#include "utils/parallel.h"
#include "utils/stopwatch.h"

namespace hire {
namespace ops {

namespace {

// ---------------------------------------------------------------------------
// Parallel dispatch. Every loop's grain comes from the cost model
// (utils/cost_model.h): the kernel describes one loop index as flops +
// bytes, and the planner either picks a chunk size or keeps the loop serial
// when the estimated work is below the measured fan-out payoff threshold.
// Chunk boundaries never affect results — every output element is produced
// entirely by one worker, in the same operation order as the serial kernel
// — so outputs are bitwise identical for any thread count.
// ---------------------------------------------------------------------------

// Below this total MAC count a GEMM skips blocking/packing entirely.
constexpr int64_t kSmallGemmMacs = int64_t{1} << 15;
// An exp/log/tanh costs tens of flops; what the cost model charges for one.
constexpr double kTranscendentalFlops = 40.0;

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  HIRE_CHECK(a.SameShape(b)) << op << ": shape mismatch " << a.ShapeString()
                             << " vs " << b.ShapeString();
}

template <typename BinaryFn>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, const char* name,
                         BinaryFn fn) {
  CheckSameShape(a, b, name);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t grain = PlanGrain(a.size(), {1.0, 12.0});
  ParallelForRange(0, a.size(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
  });
  return out;
}

template <typename UnaryFn>
Tensor ElementwiseUnary(const Tensor& a, UnaryFn fn,
                        double flops_per_element = 1.0) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain = PlanGrain(a.size(), {flops_per_element, 8.0});
  ParallelForRange(0, a.size(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
  });
  return out;
}

// ---------------------------------------------------------------------------
// GEMM backend: C[n, m] += A[n, k] * B(k, m), with B either row-major
// [k, m] or stored transposed as [m, k].
//
// Two paths share identical per-element arithmetic — for each C[i, j] the
// products A[i, p] * B[p, j] are accumulated in ascending p with a single
// rounding chain (no FMA contraction under -std=c++20, no reassociation) —
// so the dispatch never changes results:
//   * SmallGemm: the seed's loop nests, minus its `a_ip == 0` skip. The
//     skip was a mispredicting branch in the hottest loop and silently
//     broke IEEE semantics (0 * inf must be NaN, not "no-op").
//   * BlockedGemm: cache-blocked (MC x KC x NC) with packed panels and a
//     register-tiled MR x NR micro-kernel whose inner loop the compiler
//     auto-vectorizes.
// Parallel dispatch shards rows of A; each row is produced wholly by one
// worker, keeping threaded output bitwise equal to serial.
// ---------------------------------------------------------------------------

constexpr int64_t kMr = 4;     // micro-tile rows (accumulator rows)
constexpr int64_t kMaxNr = 16; // widest micro-tile; packing pads to this
constexpr int64_t kMc = 64;    // A rows per cache block
constexpr int64_t kKc = 256;   // depth per cache block (A panel ~64 KiB)
constexpr int64_t kNc = 256;   // B cols per cache block (B panel ~256 KiB)

static_assert(kMc % kMr == 0 && kNc % kMaxNr == 0, "block/tile mismatch");

// Micro-tile width, chosen once at runtime: 16 floats (two YMM vectors,
// eight YMM accumulator registers) when the host has AVX2, else 8 (two XMM
// vectors) so the 4 x NR accumulator block still fits the 16 SSE registers.
int64_t NrTile() {
  static const int64_t nr = __builtin_cpu_supports("avx2") ? 16 : 8;
  return nr;
}

// Packs the kc x nc block of B starting at (pc, jc) into nr_tile-wide column
// panels: bpack[j0 * kc + p * nr_tile + j] = B[pc + p, jc + j0 + j]. Ragged
// right edges are zero-padded so the micro-kernel always runs full width.
void PackB(const float* b, int64_t ldb, bool b_transposed, int64_t pc,
           int64_t jc, int64_t kc, int64_t nc, int64_t nr_tile,
           float* bpack) {
  for (int64_t j0 = 0; j0 < nc; j0 += nr_tile) {
    const int64_t nr = std::min(nr_tile, nc - j0);
    float* dst = bpack + j0 * kc;
    if (!b_transposed) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + j0;
        for (int64_t j = 0; j < nr; ++j) dst[p * nr_tile + j] = src[j];
        for (int64_t j = nr; j < nr_tile; ++j) dst[p * nr_tile + j] = 0.0f;
      }
    } else {
      // B stored as [m, k]: column j of the logical B is row (jc + j0 + j).
      for (int64_t p = 0; p < kc; ++p) {
        for (int64_t j = 0; j < nr; ++j) {
          dst[p * nr_tile + j] = b[(jc + j0 + j) * ldb + pc + p];
        }
        for (int64_t j = nr; j < nr_tile; ++j) dst[p * nr_tile + j] = 0.0f;
      }
    }
  }
}

// Packs the mc x kc block of A starting at (ic, pc) into kMr-tall row
// panels: apack[i0 * kc + p * kMr + r] = A[ic + i0 + r, pc + p]. Ragged
// bottom edges are zero-padded (the padded rows' results are discarded).
void PackA(const float* a, int64_t lda, int64_t ic, int64_t pc, int64_t mc,
           int64_t kc, float* apack) {
  for (int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const int64_t mr = std::min(kMr, mc - i0);
    float* dst = apack + i0 * kc;
    for (int64_t r = 0; r < mr; ++r) {
      const float* src = a + (ic + i0 + r) * lda + pc;
      for (int64_t p = 0; p < kc; ++p) dst[p * kMr + r] = src[p];
    }
    for (int64_t r = mr; r < kMr; ++r) {
      for (int64_t p = 0; p < kc; ++p) dst[p * kMr + r] = 0.0f;
    }
  }
}

// Register-tiled micro-kernels: C[kMr, NR] += Apanel[kc, kMr] *
// Bpanel[kc, NR] for one packed panel pair. Written with GCC vector
// extensions so the kMr x NR accumulator block provably lives in vector
// registers (the auto-vectorizer picks a shuffle-heavy row-interleaved
// strategy for the equivalent scalar loops). Each lane does a separate
// multiply then add -- no FMA target, so no contraction -- which rounds
// exactly like the seed scalar loop; per C element the products still
// accumulate in ascending-p order.
typedef float v4sf __attribute__((vector_size(16)));
typedef float v8sf __attribute__((vector_size(32)));
// Unaligned-load aliases (C rows and packed panels have no 16/32B promise).
typedef float v4sf_u __attribute__((vector_size(16), aligned(4)));
typedef float v8sf_u __attribute__((vector_size(32), aligned(4)));

// 4 x 16 tile = eight 8-wide accumulators; the AVX2 clone keeps them in YMM
// registers. The baseline clone splits each op into two SSE halves (slower,
// only used on hosts without AVX2, still bit-identical).
__attribute__((target_clones("avx2", "default"))) void MicroKernel16(
    const float* apanel, const float* bpanel, float* c, int64_t ldc,
    int64_t kc) {
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  v8sf acc00 = *(const v8sf_u*)(c0), acc01 = *(const v8sf_u*)(c0 + 8);
  v8sf acc10 = *(const v8sf_u*)(c1), acc11 = *(const v8sf_u*)(c1 + 8);
  v8sf acc20 = *(const v8sf_u*)(c2), acc21 = *(const v8sf_u*)(c2 + 8);
  v8sf acc30 = *(const v8sf_u*)(c3), acc31 = *(const v8sf_u*)(c3 + 8);
  for (int64_t p = 0; p < kc; ++p) {
    const float* arow = apanel + p * kMr;
    const float* brow = bpanel + p * 16;
    const v8sf b0 = *(const v8sf_u*)(brow);
    const v8sf b1 = *(const v8sf_u*)(brow + 8);
    acc00 += arow[0] * b0;
    acc01 += arow[0] * b1;
    acc10 += arow[1] * b0;
    acc11 += arow[1] * b1;
    acc20 += arow[2] * b0;
    acc21 += arow[2] * b1;
    acc30 += arow[3] * b0;
    acc31 += arow[3] * b1;
  }
  *(v8sf_u*)(c0) = acc00;
  *(v8sf_u*)(c0 + 8) = acc01;
  *(v8sf_u*)(c1) = acc10;
  *(v8sf_u*)(c1 + 8) = acc11;
  *(v8sf_u*)(c2) = acc20;
  *(v8sf_u*)(c2 + 8) = acc21;
  *(v8sf_u*)(c3) = acc30;
  *(v8sf_u*)(c3 + 8) = acc31;
}

// 4 x 8 tile = eight 4-wide accumulators; fits the 16 XMM registers on
// SSE-only hosts.
void MicroKernel8(const float* apanel, const float* bpanel, float* c,
                  int64_t ldc, int64_t kc) {
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  v4sf acc00 = *(const v4sf_u*)(c0), acc01 = *(const v4sf_u*)(c0 + 4);
  v4sf acc10 = *(const v4sf_u*)(c1), acc11 = *(const v4sf_u*)(c1 + 4);
  v4sf acc20 = *(const v4sf_u*)(c2), acc21 = *(const v4sf_u*)(c2 + 4);
  v4sf acc30 = *(const v4sf_u*)(c3), acc31 = *(const v4sf_u*)(c3 + 4);
  for (int64_t p = 0; p < kc; ++p) {
    const float* arow = apanel + p * kMr;
    const float* brow = bpanel + p * 8;
    const v4sf b0 = *(const v4sf_u*)(brow);
    const v4sf b1 = *(const v4sf_u*)(brow + 4);
    acc00 += arow[0] * b0;
    acc01 += arow[0] * b1;
    acc10 += arow[1] * b0;
    acc11 += arow[1] * b1;
    acc20 += arow[2] * b0;
    acc21 += arow[2] * b1;
    acc30 += arow[3] * b0;
    acc31 += arow[3] * b1;
  }
  *(v4sf_u*)(c0) = acc00;
  *(v4sf_u*)(c0 + 4) = acc01;
  *(v4sf_u*)(c1) = acc10;
  *(v4sf_u*)(c1 + 4) = acc11;
  *(v4sf_u*)(c2) = acc20;
  *(v4sf_u*)(c2 + 4) = acc21;
  *(v4sf_u*)(c3) = acc30;
  *(v4sf_u*)(c3 + 4) = acc31;
}

// Ragged edge tile: same arithmetic, runtime bounds.
void MicroKernelEdge(const float* apanel, const float* bpanel, float* c,
                     int64_t ldc, int64_t kc, int64_t mr, int64_t nr,
                     int64_t nr_tile) {
  float acc[kMr][kMaxNr];
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* arow = apanel + p * kMr;
    const float* brow = bpanel + p * nr_tile;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = arow[r];
      for (int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// The seed's scalar kernels (minus the zero-skip): best for tiny problems
// where packing overhead dominates.
void SmallGemm(const float* a, const float* b, float* c, int64_t n, int64_t k,
               int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * m;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      const float* b_row = b + p * m;
      for (int64_t j = 0; j < m; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void SmallGemmTransposedB(const float* a, const float* b, float* c, int64_t n,
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

// Serial cache-blocked GEMM over `n` rows of A. jc/pc/ic nesting follows
// BLIS: a packed B panel is reused across every row block, a packed A block
// across every column panel.
void BlockedGemm(const float* a, const float* b, float* c, int64_t n,
                 int64_t k, int64_t m, bool b_transposed) {
  const int64_t ldb = b_transposed ? k : m;
  const int64_t nr_tile = NrTile();
  // Fixed-size pack scratch, allocated once per worker thread and reused by
  // every GEMM it runs: after warm-up the hot path touches no heap, which
  // the tape-free inference forward relies on (zero allocations per serve
  // request). Each ParallelForRange worker runs its row slab serially, so
  // the buffers are never shared.
  thread_local const auto apack = std::make_unique<float[]>(kMc * kKc);
  thread_local const auto bpack = std::make_unique<float[]>(kKc * kNc);

  for (int64_t jc = 0; jc < m; jc += kNc) {
    const int64_t nc = std::min(kNc, m - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      PackB(b, ldb, b_transposed, pc, jc, kc, nc, nr_tile, bpack.get());
      for (int64_t ic = 0; ic < n; ic += kMc) {
        const int64_t mc = std::min(kMc, n - ic);
        PackA(a, k, ic, pc, mc, kc, apack.get());
        for (int64_t j0 = 0; j0 < nc; j0 += nr_tile) {
          const int64_t nr = std::min(nr_tile, nc - j0);
          for (int64_t i0 = 0; i0 < mc; i0 += kMr) {
            const int64_t mr = std::min(kMr, mc - i0);
            const float* ap = apack.get() + i0 * kc;
            const float* bp = bpack.get() + j0 * kc;
            float* ct = c + (ic + i0) * m + jc + j0;
            if (mr == kMr && nr == nr_tile) {
              if (nr_tile == 16) {
                MicroKernel16(ap, bp, ct, m, kc);
              } else {
                MicroKernel8(ap, bp, ct, m, kc);
              }
            } else {
              MicroKernelEdge(ap, bp, ct, m, kc, mr, nr, nr_tile);
            }
          }
        }
      }
    }
  }
}

// Serial GEMM over a row slab, choosing the small or blocked path.
void GemmRows(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m, bool b_transposed) {
  if (n * k * m < kSmallGemmMacs) {
    if (b_transposed) {
      SmallGemmTransposedB(a, b, c, n, k, m);
    } else {
      SmallGemm(a, b, c, n, k, m);
    }
    return;
  }
  BlockedGemm(a, b, c, n, k, m, b_transposed);
}

// Cost of one GEMM output row: 2km MACs; streams the A row and (amortised,
// cache-resident across rows) the B panel.
LoopCost GemmRowCost(int64_t k, int64_t m) {
  return {2.0 * static_cast<double>(k) * static_cast<double>(m),
          4.0 * static_cast<double>(k + m)};
}

// Top-level parallel GEMM: shards rows of A across the runtime, with the
// row grain planned from the per-row cost (and floored at the micro-tile
// height so slabs stay tile-aligned).
void LaunchGemm(const float* a, const float* b, float* c, int64_t n,
                int64_t k, int64_t m, bool b_transposed) {
  const int64_t grain = std::max(kMr, PlanGrain(n, GemmRowCost(k, m)));
  ParallelForRange(0, n, grain, [&](int64_t r0, int64_t r1) {
    GemmRows(a + r0 * k, b, c + r0 * m, r1 - r0, k, m, b_transposed);
  });
}

// Batched variant. When the batch has at least one matrix per lane, tasks
// are whole matrices: each matrix is packed exactly once, and many small
// irregular GEMMs coalesce into one chunk instead of being shredded into
// row slivers that re-pack B and thrash the queues (the profile HIRE's
// per-context MHSA produces). Small batches of large matrices fall back to
// sharding the flattened (batch, row) space so they can still fill lanes.
void LaunchBatchedGemm(const float* a, const float* b, float* c,
                       int64_t batch, int64_t n, int64_t k, int64_t m,
                       bool b_transposed) {
  const int64_t b_stride = b_transposed ? m * k : k * m;
  const LoopCost row_cost = GemmRowCost(k, m);
  if (batch >= GlobalThreads()) {
    const LoopCost matrix_cost = {row_cost.flops_per_index * n,
                                  4.0 * static_cast<double>(n * k + k * m +
                                                            n * m)};
    const int64_t grain = PlanGrain(batch, matrix_cost);
    ParallelForRange(0, batch, grain, [&](int64_t s0, int64_t s1) {
      for (int64_t s = s0; s < s1; ++s) {
        GemmRows(a + s * n * k, b + s * b_stride, c + s * n * m, n, k, m,
                 b_transposed);
      }
    });
    return;
  }
  const int64_t grain = std::max(kMr, PlanGrain(batch * n, row_cost));
  ParallelForRange(0, batch * n, grain, [&](int64_t g0, int64_t g1) {
    int64_t g = g0;
    while (g < g1) {
      const int64_t s = g / n;
      const int64_t r0 = g - s * n;
      const int64_t rows = std::min(n - r0, g1 - g);
      GemmRows(a + (s * n + r0) * k, b + s * b_stride, c + (s * n + r0) * m,
               rows, k, m, b_transposed);
      g += rows;
    }
  });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Add", std::plus<float>());
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Sub", std::minus<float>());
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Mul", std::multiplies<float>());
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, "Div", std::divides<float>());
}

Tensor AddScalar(const Tensor& a, float value) {
  return ElementwiseUnary(a, [value](float x) { return x + value; });
}

Tensor MulScalar(const Tensor& a, float value) {
  return ElementwiseUnary(a, [value](float x) { return x * value; });
}

Tensor Neg(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return -x; });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::exp(x); },
                          kTranscendentalFlops);
}

Tensor Log(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::log(x); },
                          kTranscendentalFlops);
}

Tensor Sqrt(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::sqrt(x); }, 8.0);
}

Tensor Abs(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::fabs(x); });
}

Tensor Square(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x * x; });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(
      a,
      [](float x) {
        return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
      },
      kTranscendentalFlops);
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); },
                          kTranscendentalFlops);
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  HIRE_CHECK_LE(lo, hi);
  return ElementwiseUnary(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HIRE_CHECK_EQ(a.dim(), 2);
  HIRE_CHECK_EQ(b.dim(), 2);
  HIRE_CHECK_EQ(a.shape(1), b.shape(0))
      << "MatMul " << a.ShapeString() << " x " << b.ShapeString();
  ScopedKernelTimer timer(KernelCategory::kMatMul);
  Tensor out({a.shape(0), b.shape(1)});
  LaunchGemm(a.data(), b.data(), out.data(), a.shape(0), a.shape(1),
             b.shape(1), /*b_transposed=*/false);
  return out;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  HIRE_CHECK_EQ(a.dim(), 2);
  HIRE_CHECK_EQ(b.dim(), 2);
  HIRE_CHECK_EQ(a.shape(1), b.shape(1))
      << "MatMulTransposedB " << a.ShapeString() << " x " << b.ShapeString();
  ScopedKernelTimer timer(KernelCategory::kMatMul);
  Tensor out({a.shape(0), b.shape(0)});
  LaunchGemm(a.data(), b.data(), out.data(), a.shape(0), a.shape(1),
             b.shape(0), /*b_transposed=*/true);
  return out;
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b) {
  HIRE_CHECK_EQ(a.dim(), 3);
  HIRE_CHECK_EQ(b.dim(), 3);
  HIRE_CHECK_EQ(a.shape(0), b.shape(0));
  HIRE_CHECK_EQ(a.shape(2), b.shape(1))
      << "BatchedMatMul " << a.ShapeString() << " x " << b.ShapeString();
  ScopedKernelTimer timer(KernelCategory::kMatMul);
  Tensor out({a.shape(0), a.shape(1), b.shape(2)});
  LaunchBatchedGemm(a.data(), b.data(), out.data(), a.shape(0), a.shape(1),
                    a.shape(2), b.shape(2), /*b_transposed=*/false);
  return out;
}

Tensor BatchedMatMulTransposedB(const Tensor& a, const Tensor& b) {
  HIRE_CHECK_EQ(a.dim(), 3);
  HIRE_CHECK_EQ(b.dim(), 3);
  HIRE_CHECK_EQ(a.shape(0), b.shape(0));
  HIRE_CHECK_EQ(a.shape(2), b.shape(2))
      << "BatchedMatMulTransposedB " << a.ShapeString() << " x "
      << b.ShapeString();
  ScopedKernelTimer timer(KernelCategory::kMatMul);
  Tensor out({a.shape(0), a.shape(1), b.shape(1)});
  LaunchBatchedGemm(a.data(), b.data(), out.data(), a.shape(0), a.shape(1),
                    a.shape(2), b.shape(1), /*b_transposed=*/true);
  return out;
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  HIRE_CHECK_EQ(bias.dim(), 1);
  HIRE_CHECK_GE(x.dim(), 1);
  const int64_t d = bias.shape(0);
  HIRE_CHECK_EQ(x.shape(-1), d)
      << "AddBias " << x.ShapeString() << " + " << bias.ShapeString();
  Tensor out = x;
  float* po = out.data();
  const float* pb = bias.data();
  const int64_t rows = x.size() / d;
  const int64_t grain =
      PlanGrain(rows, {static_cast<double>(d), 12.0 * static_cast<double>(d)});
  ParallelForRange(0, rows, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* row = po + r * d;
      for (int64_t j = 0; j < d; ++j) row[j] += pb[j];
    }
  });
  return out;
}

Tensor Permute(const Tensor& a, const std::vector<int>& axes) {
  const int rank = a.dim();
  HIRE_CHECK_EQ(static_cast<int>(axes.size()), rank);
  std::vector<bool> seen(static_cast<size_t>(rank), false);
  std::vector<int64_t> new_shape(static_cast<size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    const int axis = axes[static_cast<size_t>(i)];
    HIRE_CHECK(axis >= 0 && axis < rank && !seen[static_cast<size_t>(axis)])
        << "bad permutation axis " << axis;
    seen[static_cast<size_t>(axis)] = true;
    new_shape[static_cast<size_t>(i)] = a.shape(axis);
  }

  Tensor out(new_shape);
  const std::vector<int64_t> in_strides = a.Strides();
  const std::vector<int64_t> out_strides = out.Strides();
  // For each output element, reconstruct the multi-index and gather from
  // the input. The div/mod chain dominates, charged as flops.
  const int64_t grain = PlanGrain(a.size(), {8.0 * rank, 8.0});
  ParallelForRange(0, a.size(), grain, [&](int64_t lo, int64_t hi) {
    for (int64_t flat = lo; flat < hi; ++flat) {
      int64_t rem = flat;
      int64_t src = 0;
      for (int i = 0; i < rank; ++i) {
        const int64_t coord = rem / out_strides[static_cast<size_t>(i)];
        rem %= out_strides[static_cast<size_t>(i)];
        src +=
            coord * in_strides[static_cast<size_t>(axes[static_cast<size_t>(i)])];
      }
      out.flat(flat) = a.flat(src);
    }
  });
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  const int rank = a.dim();
  HIRE_CHECK_GE(rank, 2);
  std::vector<int> axes(static_cast<size_t>(rank));
  for (int i = 0; i < rank; ++i) axes[static_cast<size_t>(i)] = i;
  std::swap(axes[static_cast<size_t>(rank - 1)],
            axes[static_cast<size_t>(rank - 2)]);
  return Permute(a, axes);
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  HIRE_CHECK(!parts.empty());
  const int rank = parts[0].dim();
  if (axis < 0) axis += rank;
  HIRE_CHECK(axis >= 0 && axis < rank) << "concat axis " << axis;

  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t concat_extent = 0;
  for (const Tensor& part : parts) {
    HIRE_CHECK_EQ(part.dim(), rank);
    for (int i = 0; i < rank; ++i) {
      if (i == axis) continue;
      HIRE_CHECK_EQ(part.shape(i), out_shape[static_cast<size_t>(i)])
          << "concat shape mismatch on axis " << i;
    }
    concat_extent += part.shape(axis);
  }
  out_shape[static_cast<size_t>(axis)] = concat_extent;

  Tensor out(out_shape);
  // Views as [outer, axis_extent, inner] blocks.
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= out_shape[static_cast<size_t>(i)];
  int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) {
    inner *= out_shape[static_cast<size_t>(i)];
  }

  int64_t offset = 0;
  for (const Tensor& part : parts) {
    const int64_t extent = part.shape(axis);
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = part.data() + o * extent * inner;
      float* dst = out.data() + (o * concat_extent + offset) * inner;
      std::copy(src, src + extent * inner, dst);
    }
    offset += extent;
  }
  return out;
}

Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length) {
  const int rank = a.dim();
  if (axis < 0) axis += rank;
  HIRE_CHECK(axis >= 0 && axis < rank) << "slice axis " << axis;
  HIRE_CHECK(start >= 0 && length > 0 && start + length <= a.shape(axis))
      << "slice [" << start << ", " << start + length << ") of axis " << axis
      << " in " << a.ShapeString();

  std::vector<int64_t> out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = length;
  Tensor out(out_shape);

  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= a.shape(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) inner *= a.shape(i);
  const int64_t in_extent = a.shape(axis);

  for (int64_t o = 0; o < outer; ++o) {
    const float* src = a.data() + (o * in_extent + start) * inner;
    float* dst = out.data() + o * length * inner;
    std::copy(src, src + length * inner, dst);
  }
  return out;
}

float SumAll(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += a.flat(i);
  return static_cast<float>(acc);
}

float MeanAll(const Tensor& a) {
  HIRE_CHECK_GT(a.size(), 0);
  return SumAll(a) / static_cast<float>(a.size());
}

float MaxAll(const Tensor& a) {
  HIRE_CHECK_GT(a.size(), 0);
  float best = a.flat(0);
  for (int64_t i = 1; i < a.size(); ++i) best = std::max(best, a.flat(i));
  return best;
}

float MinAll(const Tensor& a) {
  HIRE_CHECK_GT(a.size(), 0);
  float best = a.flat(0);
  for (int64_t i = 1; i < a.size(); ++i) best = std::min(best, a.flat(i));
  return best;
}

float Norm(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double x = a.flat(i);
    acc += x * x;
  }
  return static_cast<float>(std::sqrt(acc));
}

Tensor Sum(const Tensor& a, int axis) {
  const int rank = a.dim();
  if (axis < 0) axis += rank;
  HIRE_CHECK(axis >= 0 && axis < rank) << "sum axis " << axis;

  std::vector<int64_t> out_shape;
  for (int i = 0; i < rank; ++i) {
    if (i != axis) out_shape.push_back(a.shape(i));
  }
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);

  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= a.shape(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) inner *= a.shape(i);
  const int64_t extent = a.shape(axis);

  // Each output element dst[o * inner + i] accumulates its `extent` terms in
  // ascending order on exactly one worker, so sharding either the outer or
  // the inner dimension leaves results bitwise identical to serial.
  if (outer > 1) {
    const double per_outer = static_cast<double>(extent * inner);
    const int64_t grain =
        PlanGrain(outer, {per_outer, 4.0 * per_outer + 8.0 * inner});
    ParallelForRange(0, outer, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t o = lo; o < hi; ++o) {
        for (int64_t e = 0; e < extent; ++e) {
          const float* src = a.data() + (o * extent + e) * inner;
          float* dst = out.data() + o * inner;
          for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
        }
      }
    });
  } else {
    // Leading-axis reduction: each worker owns a contiguous stripe of output
    // columns and streams every row through it, accumulating straight into
    // its out[] slice — exactly the seed's row-major loop restricted to a
    // column range, so the serial path is the seed path and a single chunk
    // costs nothing extra. Stripes are floored at 64 columns (256 B):
    // narrower strips turn the row-major stream into scattered cache-line
    // picks and made the old threaded path 4x *slower* than serial. Row
    // order inside a column never changes, so any thread count (including
    // 1, which runs the whole range inline) is bitwise identical.
    const int64_t grain = std::max<int64_t>(
        64, PlanGrain(inner, {static_cast<double>(extent),
                              4.0 * static_cast<double>(extent)}));
    ParallelForRange(0, inner, grain, [&](int64_t lo, int64_t hi) {
      float* dst = out.data();
      for (int64_t e = 0; e < extent; ++e) {
        const float* src = a.data() + e * inner;
        for (int64_t i = lo; i < hi; ++i) dst[i] += src[i];
      }
    });
  }
  return out;
}

Tensor Mean(const Tensor& a, int axis) {
  const int rank = a.dim();
  const int resolved = axis < 0 ? axis + rank : axis;
  Tensor sum = Sum(a, axis);
  return MulScalar(sum, 1.0f / static_cast<float>(a.shape(resolved)));
}

Tensor Softmax(const Tensor& a) {
  HIRE_CHECK_GE(a.dim(), 1);
  ScopedKernelTimer timer(KernelCategory::kSoftmax);
  const int64_t d = a.shape(-1);
  const int64_t rows = a.size() / d;
  Tensor out(a.shape());
  const int64_t grain = PlanGrain(
      rows, {(kTranscendentalFlops + 4.0) * static_cast<double>(d),
             8.0 * static_cast<double>(d)});
  ParallelForRange(0, rows, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
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
  });
  return out;
}

namespace {

// Epilogue rounding mirrors the unfused chain exactly: one round for the
// bias add (AddBias), one for the activation (ops::Sigmoid's sign-split
// form / Relu), one for the scalar (MulScalar).
inline float ApplyEpilogue(float x, const float* bias, int64_t j,
                           Activation act, float post_scale) {
  float v = bias != nullptr ? x + bias[j] : x;
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kSigmoid:
      v = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                    : std::exp(v) / (1.0f + std::exp(v));
      break;
    case Activation::kRelu:
      v = v > 0.0f ? v : 0.0f;
      break;
  }
  return v * post_scale;
}

}  // namespace

void GemmBiasActInto(const float* a, const float* b, const float* bias,
                     float* c, int64_t n, int64_t k, int64_t m,
                     bool b_transposed, Activation act, float post_scale) {
  ScopedKernelTimer timer(KernelCategory::kInferFusedGemm);
  std::fill(c, c + n * m, 0.0f);
  LaunchGemm(a, b, c, n, k, m, b_transposed);
  const double act_flops =
      act == Activation::kSigmoid ? kTranscendentalFlops : 1.0;
  const int64_t grain = PlanGrain(
      n, {(2.0 + act_flops) * static_cast<double>(m),
          12.0 * static_cast<double>(m)});
  ParallelForRange(0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* row = c + i * m;
      for (int64_t j = 0; j < m; ++j) {
        row[j] = ApplyEpilogue(row[j], bias, j, act, post_scale);
      }
    }
  });
}

Tensor GemmBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
                   Activation act, float post_scale) {
  HIRE_CHECK_EQ(a.dim(), 2);
  HIRE_CHECK_EQ(b.dim(), 2);
  HIRE_CHECK_EQ(a.shape(1), b.shape(0))
      << "GemmBiasAct " << a.ShapeString() << " x " << b.ShapeString();
  HIRE_CHECK_EQ(bias.dim(), 1);
  HIRE_CHECK_EQ(bias.shape(0), b.shape(1));
  Tensor out({a.shape(0), b.shape(1)});
  GemmBiasActInto(a.data(), b.data(), bias.data(), out.data(), a.shape(0),
                  a.shape(1), b.shape(1), /*b_transposed=*/false, act,
                  post_scale);
  return out;
}

void OnlineSoftmaxWeightedSumInto(const float* q, int64_t q_stride,
                                  const float* k, int64_t k_stride,
                                  const float* v, int64_t v_stride,
                                  float* out, int64_t out_stride,
                                  int64_t queries, int64_t tokens,
                                  int64_t head_dim, float scale) {
  for (int64_t i = 0; i < queries; ++i) {
    const float* qi = q + i * q_stride;
    float* oi = out + i * out_stride;
    // The output row doubles as the weighted-value accumulator: when the
    // running max rises, the accumulated row and mass are rescaled by
    // exp(m_old - m_new), so no per-row scratch is needed. The row must
    // start at exactly zero (not merely be rescaled by exp(-inf) == 0 on
    // the first step): 0 * NaN from stale arena bits would poison it.
    for (int64_t c = 0; c < head_dim; ++c) oi[c] = 0.0f;
    float m = -std::numeric_limits<float>::infinity();
    double mass = 0.0;  // double like Softmax's denominator
    for (int64_t j = 0; j < tokens; ++j) {
      const float* kj = k + j * k_stride;
      float dot = 0.0f;
      for (int64_t p = 0; p < head_dim; ++p) dot += qi[p] * kj[p];
      const float s = dot * scale;
      // Two exps are constants for a finite score and are not computed: a
      // key that becomes the running max has weight exp(s - s) == 1
      // exactly, and the first key's rescale exp(-inf) == 0 would only
      // scale the all-zero row and mass.
      float w = 1.0f;
      if (s > m) {
        if (j > 0) {
          const float rescale = std::exp(m - s);
          for (int64_t c = 0; c < head_dim; ++c) oi[c] *= rescale;
          mass *= rescale;
        }
        m = s;
      } else {
        w = std::exp(s - m);
      }
      mass += w;
      const float* vj = v + j * v_stride;
      for (int64_t c = 0; c < head_dim; ++c) oi[c] += w * vj[c];
    }
    const float inv = static_cast<float>(1.0 / mass);
    for (int64_t c = 0; c < head_dim; ++c) oi[c] *= inv;
  }
}

Tensor OnlineSoftmaxWeightedSum(const Tensor& q, const Tensor& k,
                                const Tensor& v, float scale) {
  HIRE_CHECK_EQ(q.dim(), 3);
  HIRE_CHECK(q.SameShape(k) && q.SameShape(v))
      << "OnlineSoftmaxWeightedSum " << q.ShapeString() << " / "
      << k.ShapeString() << " / " << v.ShapeString();
  ScopedKernelTimer timer(KernelCategory::kInferFusedAttention);
  const int64_t batch = q.shape(0);
  const int64_t tokens = q.shape(1);
  const int64_t dim = q.shape(2);
  Tensor out(q.shape());
  const double t = static_cast<double>(tokens);
  const double d = static_cast<double>(dim);
  const int64_t grain = PlanGrain(
      batch, {t * t * (4.0 * d + kTranscendentalFlops), 12.0 * t * d});
  ParallelForRange(0, batch, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const int64_t offset = s * tokens * dim;
      OnlineSoftmaxWeightedSumInto(q.data() + offset, dim, k.data() + offset,
                                   dim, v.data() + offset, dim,
                                   out.data() + offset, dim, tokens, tokens,
                                   dim, scale);
    }
  });
  return out;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float diff = std::fabs(a.flat(i) - b.flat(i));
    if (diff > atol + rtol * std::fabs(b.flat(i))) return false;
  }
  return true;
}

}  // namespace ops
}  // namespace hire
