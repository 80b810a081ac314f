#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "obs/kernel_timers.h"
#include "tensor/kernel_dispatch.h"
#include "utils/check.h"
#include "utils/cost_model.h"
#include "utils/parallel.h"

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
//     register-tiled MR x NR micro-kernel chosen from the kernel table
//     (4 x 16 and 4 x 8 AVX2 tiles, or the portable 4 x 8 SSE2 tile).
// Parallel dispatch shards rows of A; each row is produced wholly by one
// worker, keeping threaded output bitwise equal to serial.
// ---------------------------------------------------------------------------

constexpr int64_t kMr = 4;     // micro-tile rows (accumulator rows)
constexpr int64_t kMaxNr = 16; // widest micro-tile; packing pads to this
constexpr int64_t kMc = 64;    // A rows per cache block
constexpr int64_t kKc = 256;   // depth per cache block (A panel ~64 KiB)
constexpr int64_t kNc = 256;   // B cols per cache block (B panel ~256 KiB)

static_assert(kMc % kMr == 0 && kNc % kMaxNr == 0, "block/tile mismatch");

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

// Full-tile kernel signature: C[kMr, width] += Apanel * Bpanel, where the
// packed B panel rows are the table's panel width apart.
using TileFn = void (*)(const float* apanel, const float* bpanel, float* c,
                        int64_t ldc, int64_t kc);

#if defined(__x86_64__) || defined(__i386__)
// 4 x 16 tile = eight 8-wide accumulators in YMM registers.
__attribute__((target("avx2"))) void MicroKernel16Avx2(const float* apanel,
                                                       const float* bpanel,
                                                       float* c, int64_t ldc,
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
#endif

// 4 x 8 tile = eight 4-wide accumulators; fits the 16 XMM registers of the
// portable (SSE2) baseline.
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

#if defined(__x86_64__) || defined(__i386__)
// 4 x 8 tile over the first 8 columns of a 16-wide packed panel: the 8-wide
// column remainder (N = 8, 24, 72, ...) that the 16-wide tiling leaves.
__attribute__((target("avx2"))) void MicroKernel8Avx2(const float* apanel,
                                                      const float* bpanel,
                                                      float* c, int64_t ldc,
                                                      int64_t kc) {
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  v8sf acc0 = *(const v8sf_u*)(c0);
  v8sf acc1 = *(const v8sf_u*)(c1);
  v8sf acc2 = *(const v8sf_u*)(c2);
  v8sf acc3 = *(const v8sf_u*)(c3);
  for (int64_t p = 0; p < kc; ++p) {
    const float* arow = apanel + p * kMr;
    const v8sf b = *(const v8sf_u*)(bpanel + p * 16);
    acc0 += arow[0] * b;
    acc1 += arow[1] * b;
    acc2 += arow[2] * b;
    acc3 += arow[3] * b;
  }
  *(v8sf_u*)(c0) = acc0;
  *(v8sf_u*)(c1) = acc1;
  *(v8sf_u*)(c2) = acc2;
  *(v8sf_u*)(c3) = acc3;
}
#endif

// The GEMM row of the kernel table (tensor/kernel_dispatch.h), indexed by
// KernelIsa: the panel width B is packed at, the full kMr x nr tile, and an
// optional kMr x 8 tile for an 8-wide column remainder (null: that
// remainder goes to MicroKernelEdge).
struct GemmKernels {
  int64_t nr;
  TileFn tile;
  TileFn tile8;
};

constexpr GemmKernels kGemmKernels[] = {
    {8, &MicroKernel8, nullptr},
#if defined(__x86_64__) || defined(__i386__)
    {16, &MicroKernel16Avx2, &MicroKernel8Avx2},
#endif
};

const GemmKernels& ActiveGemmKernels() {
  return kGemmKernels[static_cast<int>(ActiveKernelIsa())];
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
  const GemmKernels& kernels = ActiveGemmKernels();
  const int64_t nr_tile = kernels.nr;
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
              kernels.tile(ap, bp, ct, m, kc);
            } else if (mr == kMr && nr == 8 && kernels.tile8 != nullptr) {
              kernels.tile8(ap, bp, ct, m, kc);
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

// Head-dim kernels for the batched GEMMs, which only the tape's attention
// runs (the fused forward has its own kernels). In all six of its forward
// and backward products the shared extent is the head dim: the contraction
// k of Q K^T and dP = dO V^T (B transposed), the column count m of P V,
// dQ = dS K, dK = dS^T Q and dV = P^T dO (B plain). With that extent fixed
// at compile time the loops unroll into registers. Each C element keeps
// the generic loops' chain: products added in ascending p, multiply then
// add, starting from C (B plain) or from +0 and then added to C (B
// transposed).
template <typename V>
V LoadLanes(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
void StoreLanes(float* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

// C[R, M] += A[R, k] * B[k, M] for R rows of A (row stride k): each C row
// is M / W accumulators of W lanes (V is a vector type or a plain float),
// held in registers across the whole k loop.
template <typename V, int M, int R>
void HeadDimBlock(const float* a, const float* b, float* c, int64_t k) {
  constexpr int W = sizeof(V) / sizeof(float);
  constexpr int NV = M / W;
  static_assert(M % W == 0, "head dim must fill whole lanes");
  V acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = LoadLanes<V>(c + r * M + v * W);
  }
  for (int64_t p = 0; p < k; ++p) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = LoadLanes<V>(b + p * M + v * W);
    for (int r = 0; r < R; ++r) {
      const float a_rp = a[r * k + p];
      for (int v = 0; v < NV; ++v) acc[r][v] += a_rp * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) StoreLanes(c + r * M + v * W, acc[r][v]);
  }
}

// C[n, M] += A[n, k] * B[k, M], R rows at a time.
template <typename V, int M, int R>
void HeadDimGemm(const float* a, const float* b, float* c, int64_t n,
                 int64_t k) {
  int64_t i = 0;
  for (; i + R <= n; i += R) HeadDimBlock<V, M, R>(a + i * k, b, c + i * M, k);
  for (; i < n; ++i) HeadDimBlock<V, M, 1>(a + i * k, b, c + i * M, k);
}

// C[n, m] += A[n, K] * B[m, K]^T: one K-long dot product per element, with
// the A row held in registers across the row of C.
template <int K>
void HeadDimGemmTransposedB(const float* a, const float* b, float* c,
                            int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    float a_row[K];
    for (int p = 0; p < K; ++p) a_row[p] = a[i * K + p];
    float* c_row = c + i * m;
    for (int64_t j = 0; j < m; ++j) {
      const float* b_row = b + j * K;
      float acc = 0.0f;
      for (int p = 0; p < K; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += acc;
    }
  }
}

// One matrix (or a slab of its rows) of a batched GEMM: a head-dim kernel
// when the shared extent is 2, 4, 8 or 16, GemmRows otherwise.
void BatchedGemmRows(const float* a, const float* b, float* c, int64_t n,
                     int64_t k, int64_t m, bool b_transposed) {
  if (b_transposed) {
    switch (k) {
      case 2: return HeadDimGemmTransposedB<2>(a, b, c, n, m);
      case 4: return HeadDimGemmTransposedB<4>(a, b, c, n, m);
      case 8: return HeadDimGemmTransposedB<8>(a, b, c, n, m);
      case 16: return HeadDimGemmTransposedB<16>(a, b, c, n, m);
    }
  } else {
    switch (m) {
      case 2: return HeadDimGemm<float, 2, 4>(a, b, c, n, k);
      case 4: return HeadDimGemm<v4sf, 4, 4>(a, b, c, n, k);
      case 8: return HeadDimGemm<v4sf, 8, 4>(a, b, c, n, k);
      case 16: return HeadDimGemm<v4sf, 16, 2>(a, b, c, n, k);
    }
  }
  GemmRows(a, b, c, n, k, m, b_transposed);
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
        BatchedGemmRows(a + s * n * k, b + s * b_stride, c + s * n * m, n, k,
                        m, b_transposed);
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
      BatchedGemmRows(a + (s * n + r0) * k, b + s * b_stride,
                      c + (s * n + r0) * m, rows, k, m, b_transposed);
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
  const int64_t total = a.size();
  if (rank == 0 || total == 0) {
    // A shaped rank-0 tensor holds one element, a default-constructed one
    // none (and Tensor rejects zero extents, so no other tensor is empty).
    if (total > 0) out.flat(0) = a.flat(0);
    return out;
  }
  // The output is walked in order as runs along its last axis. Each run
  // reads the input at that axis's input stride, so it is a contiguous copy
  // whenever the permutation keeps the last axis last. Consecutive runs of
  // one plane (the second-to-last output axis) step by that axis's input
  // stride; an odometer over the outer axes carries from plane to plane. A
  // chunk derives its start coordinates once with div/mod, and may start
  // and end mid-run. Rank 1 walks as one plane of one run.
  const std::vector<int64_t> in_strides = a.Strides();
  std::vector<int64_t> extents = new_shape;
  std::vector<int64_t> strides(static_cast<size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    strides[static_cast<size_t>(i)] =
        in_strides[static_cast<size_t>(axes[static_cast<size_t>(i)])];
  }
  if (rank == 1) {
    extents.insert(extents.begin(), 1);
    strides.insert(strides.begin(), 0);
  }
  const size_t last = extents.size() - 1;
  const int64_t run = extents[last];
  const int64_t run_stride = strides[last];
  const int64_t plane = extents[last - 1];
  const int64_t plane_stride = strides[last - 1];
  const float* in = a.data();
  float* po = out.data();
  // One load and one store per element; the carries amortise over runs.
  const int64_t grain = PlanGrain(total, {1.0, 8.0});
  ParallelForRange(0, total, grain, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> coord(extents.size());
    int64_t rem = lo;
    int64_t src = 0;
    for (size_t i = last + 1; i-- > 0;) {
      coord[i] = rem % extents[i];
      rem /= extents[i];
      src += coord[i] * strides[i];
    }
    int64_t flat = lo;
    while (true) {
      for (int64_t x = coord[last - 1], y = coord[last]; x < plane; ++x) {
        const int64_t len = std::min(run - y, hi - flat);
        const float* from = in + src;
        float* to = po + flat;
        if (run_stride == 1) {
          for (int64_t t = 0; t < len; ++t) to[t] = from[t];
        } else {
          for (int64_t t = 0; t < len; ++t) to[t] = from[t * run_stride];
        }
        flat += len;
        if (flat == hi) return;
        src += plane_stride - y * run_stride;
        y = 0;
      }
      // The plane is done: rewind it and carry into the outer axes.
      src -= plane * plane_stride;
      coord[last - 1] = 0;
      coord[last] = 0;
      for (size_t i = last - 1; i-- > 0;) {
        src += strides[i];
        if (++coord[i] < extents[i]) break;
        src -= extents[i] * strides[i];
        coord[i] = 0;
      }
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
  // The common Linear epilogue, bias only: x * 1.0f == x for every value
  // a GEMM or a bias add produces (none is a signalling NaN), so a plain
  // add is the same bits, and it vectorises.
  const bool bias_only = act == Activation::kNone && post_scale == 1.0f;
  if (bias_only && bias == nullptr) return;
  ParallelForRange(0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* row = c + i * m;
      if (bias_only) {
        for (int64_t j = 0; j < m; ++j) row[j] += bias[j];
        continue;
      }
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
