#include "nn/fused_attention.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/kernel_timers.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"
#include "utils/check.h"
#include "utils/cost_model.h"
#include "utils/parallel.h"

namespace hire {
namespace nn {

namespace {

// Compile-time-specialised clone of ops::OnlineSoftmaxWeightedSumInto for
// one (batch, head) sequence: q/k/v share the QKV buffer's token stride,
// the output is written head-merged, the first `queries` tokens attend over
// all `tokens`. The constant trip count lets the compiler fully unroll the
// dot product and the accumulator updates; the operation order is
// identical to the generic kernel (float additions are never reassociated
// without -ffast-math), so specialised and fallback results are bitwise
// equal.
template <int kDim>
void AttendSequenceFixed(const float* q, const float* k, const float* v,
                         int64_t qkv_stride, float* out, int64_t out_stride,
                         int64_t queries, int64_t tokens, float scale) {
  for (int64_t i = 0; i < queries; ++i) {
    const float* qi = q + i * qkv_stride;
    float* oi = out + i * out_stride;
    for (int c = 0; c < kDim; ++c) oi[c] = 0.0f;  // see the generic kernel
    float m = -std::numeric_limits<float>::infinity();
    double mass = 0.0;
    for (int64_t j = 0; j < tokens; ++j) {
      const float* kj = k + j * qkv_stride;
      float dot = 0.0f;
      for (int p = 0; p < kDim; ++p) dot += qi[p] * kj[p];
      const float s = dot * scale;
      float w = 1.0f;  // the generic kernel's constant-exp skips
      if (s > m) {
        if (j > 0) {
          const float rescale = std::exp(m - s);
          for (int c = 0; c < kDim; ++c) oi[c] *= rescale;
          mass *= rescale;
        }
        m = s;
      } else {
        w = std::exp(s - m);
      }
      mass += w;
      const float* vj = v + j * qkv_stride;
      for (int c = 0; c < kDim; ++c) oi[c] += w * vj[c];
    }
    const float inv = static_cast<float>(1.0 / mass);
    for (int c = 0; c < kDim; ++c) oi[c] *= inv;
  }
}

void AttendSequence(int64_t head_dim, const float* q, const float* k,
                    const float* v, int64_t qkv_stride, float* out,
                    int64_t out_stride, int64_t queries, int64_t tokens,
                    float scale) {
  switch (head_dim) {
    case 2:
      AttendSequenceFixed<2>(q, k, v, qkv_stride, out, out_stride, queries,
                             tokens, scale);
      return;
    case 4:
      AttendSequenceFixed<4>(q, k, v, qkv_stride, out, out_stride, queries,
                             tokens, scale);
      return;
    case 8:
      AttendSequenceFixed<8>(q, k, v, qkv_stride, out, out_stride, queries,
                             tokens, scale);
      return;
    case 16:
      AttendSequenceFixed<16>(q, k, v, qkv_stride, out, out_stride, queries,
                              tokens, scale);
      return;
    default:
      ops::OnlineSoftmaxWeightedSumInto(q, qkv_stride, k, qkv_stride, v,
                                        qkv_stride, out, out_stride, queries,
                                        tokens, head_dim, scale);
  }
}

#if defined(__x86_64__) || defined(__i386__)
// ---------------------------------------------------------------------------
// AVX2 lane-parallel attention. Each of the eight lanes is one independent
// (query, head) sequence and runs exactly AttendSequenceFixed's operation
// sequence for it: the dot product from 0.0f in ascending p, multiply then
// add (no FMA), the scale, the running max, a double mass, the exp, the
// final 1/mass in double. The exp is ExpAvx2 (tensor/kernel_dispatch.h),
// bitwise the glibc expf that the portable kernel's std::exp calls. It is
// compiled with FMA and lives out of line in another file, so none of the
// functions here is. So every output element is bitwise the portable
// kernel's. Two layouts:
//   * AttendQueryLanes: head_dim 8 or 16, eight queries of one (batch,
//     head) sequence in the lanes, each token's K/V element broadcast to
//     all of them (MBU/MBI);
//   * AttendHeadPairLanes: head_dim 2, (query, head) pairs in the lanes, so
//     one load of a token's K (or V) row covers every head, permuted to the
//     lanes' heads (MBA, where the tokens are few and the heads narrow).
// ---------------------------------------------------------------------------

#define HIRE_AVX2 __attribute__((target("avx2")))

// Keys per pass of OnlineSoftmaxLanes; bounds its stack buffers.
constexpr int kKeyChunk = 16;

// The online softmax of AttendSequenceFixed for kGroups vectors of eight
// lanes, over `tokens` keys. Per key, the portable kernel's branch
//   s > m: rescale the accumulators and mass by exp(m - s), weight 1, m = s
//   else:  weight exp(s - m)
// becomes one exp per lane of (s > m ? m - s : s - m), selected
// branch-free. The first key's rescale, which the portable kernel skips,
// multiplies an all-zero row and mass by exp(-inf) == 0, which leaves them
// as they are. The running max depends on the scores alone, so each chunk
// of keys runs in three passes: scores, max and exp arguments; the exps,
// one ExpAvx2 call over the chunk; then the mass and the caller's
// accumulators. That only regroups independent operations: each lane's
// sequence is unchanged. Several vectors at once give the core independent
// chains to overlap.
//
// Every vector is full except the last, which holds `lanes` sequences; its
// other lanes' exps are computed but they read weight 0. score(j, s) writes
// key j's scaled scores, one vector per group; accumulate(j, grew, rescale,
// w) applies key j to the caller's accumulators (see Accumulate). Writes
// static_cast<float>(1.0 / mass) per lane into inv.
template <int kGroups, typename ScoreFn, typename AccumulateFn>
HIRE_AVX2 inline void OnlineSoftmaxLanes(int64_t tokens, int lanes,
                                         ScoreFn score,
                                         AccumulateFn accumulate,
                                         __m256* inv) {
  constexpr int kLanes = 8 * kGroups;
  const int used = 8 * (kGroups - 1) + lanes;
  alignas(32) float weight[kKeyChunk][kLanes];
  alignas(32) float grew[kKeyChunk][kLanes];
  alignas(32) int32_t valid_bits[kLanes];
  for (int l = 0; l < kLanes; ++l) valid_bits[l] = l < used ? -1 : 0;
  __m256 valid[kGroups];
  __m256 m[kGroups];
  __m256d mass_lo[kGroups];  // double, four lanes a register
  __m256d mass_hi[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    valid[g] = _mm256_load_ps(
        reinterpret_cast<const float*>(valid_bits + 8 * g));
    m[g] = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    mass_lo[g] = _mm256_setzero_pd();
    mass_hi[g] = _mm256_setzero_pd();
  }
  for (int64_t j0 = 0; j0 < tokens; j0 += kKeyChunk) {
    const int chunk =
        static_cast<int>(std::min<int64_t>(kKeyChunk, tokens - j0));
    for (int t = 0; t < chunk; ++t) {
      __m256 s[kGroups];
      score(j0 + t, s);
      for (int g = 0; g < kGroups; ++g) {
        const __m256 gt = _mm256_cmp_ps(s[g], m[g], _CMP_GT_OQ);
        _mm256_store_ps(weight[t] + 8 * g,
                        _mm256_blendv_ps(_mm256_sub_ps(s[g], m[g]),
                                         _mm256_sub_ps(m[g], s[g]), gt));
        _mm256_store_ps(grew[t] + 8 * g, gt);
        m[g] = _mm256_blendv_ps(m[g], s[g], gt);
      }
    }
    ExpAvx2(weight[0], chunk * kLanes);
    for (int t = 0; t < chunk; ++t) {
      __m256 gt[kGroups];
      __m256 e[kGroups];
      __m256 w[kGroups];
      for (int g = 0; g < kGroups; ++g) {
        gt[g] = _mm256_load_ps(grew[t] + 8 * g);
        e[g] = _mm256_and_ps(_mm256_load_ps(weight[t] + 8 * g), valid[g]);
        w[g] = _mm256_blendv_ps(e[g], _mm256_set1_ps(1.0f), gt[g]);
        const __m256d gt_lo = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
            _mm_castps_si128(_mm256_castps256_ps128(gt[g]))));
        const __m256d gt_hi = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
            _mm_castps_si128(_mm256_extractf128_ps(gt[g], 1))));
        const __m256d e_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(e[g]));
        const __m256d e_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(e[g], 1));
        mass_lo[g] = _mm256_blendv_pd(
            mass_lo[g], _mm256_mul_pd(mass_lo[g], e_lo), gt_lo);
        mass_hi[g] = _mm256_blendv_pd(
            mass_hi[g], _mm256_mul_pd(mass_hi[g], e_hi), gt_hi);
        mass_lo[g] = _mm256_add_pd(
            mass_lo[g], _mm256_cvtps_pd(_mm256_castps256_ps128(w[g])));
        mass_hi[g] = _mm256_add_pd(
            mass_hi[g], _mm256_cvtps_pd(_mm256_extractf128_ps(w[g], 1)));
      }
      accumulate(j0 + t, gt, e, w);
    }
  }
  const __m256d one = _mm256_set1_pd(1.0);
  for (int g = 0; g < kGroups; ++g) {
    inv[g] = _mm256_set_m128(_mm256_cvtpd_ps(_mm256_div_pd(one, mass_hi[g])),
                             _mm256_cvtpd_ps(_mm256_div_pd(one, mass_lo[g])));
  }
}

// o = (grew ? o * rescale : o) + w * v, the portable kernel's two updates.
HIRE_AVX2 inline __m256 Accumulate(__m256 o, __m256 grew, __m256 rescale,
                                   __m256 w, __m256 v) {
  o = _mm256_blendv_ps(o, _mm256_mul_ps(o, rescale), grew);
  return _mm256_add_ps(o, _mm256_mul_ps(w, v));
}

// Fewer queries than this left for a vector run the portable kernel: a
// vector's per-key work does not shrink with its lanes, and below three
// (q = 1 is the last HIM block of an evaluation forward) it costs more
// than the scalar loop.
constexpr int kMinQueryLanes = 3;

// Queries in lanes: eight queries of one (batch, head) sequence, each
// token's K/V element broadcast to all of them. kDim (8 or 16) accumulator
// chains per vector keep the core busy without grouping vectors.
template <int kDim>
HIRE_AVX2 void AttendQueryLanes(const float* q, const float* k,
                                const float* v, int64_t qkv_stride,
                                float* out, int64_t out_stride,
                                int64_t queries, int64_t tokens,
                                float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  for (int64_t i0 = 0; i0 < queries; i0 += 8) {
    const int lanes = static_cast<int>(std::min<int64_t>(8, queries - i0));
    if (lanes < kMinQueryLanes) {
      AttendSequenceFixed<kDim>(q + i0 * qkv_stride, k, v, qkv_stride,
                                out + i0 * out_stride, out_stride, lanes,
                                tokens, scale);
      return;
    }
    // Transpose the lanes' queries: qv[p] holds element p of each query.
    alignas(32) float staging[kDim][8] = {};
    for (int l = 0; l < lanes; ++l) {
      const float* qi = q + (i0 + l) * qkv_stride;
      for (int p = 0; p < kDim; ++p) staging[p][l] = qi[p];
    }
    __m256 qv[kDim];
    __m256 o[kDim];
    for (int p = 0; p < kDim; ++p) {
      qv[p] = _mm256_load_ps(staging[p]);
      o[p] = _mm256_setzero_ps();
    }
    __m256 inv;
    OnlineSoftmaxLanes<1>(
        tokens, lanes,
        [&](int64_t j, __m256* s) HIRE_AVX2 {
          const float* kj = k + j * qkv_stride;
          __m256 dot = _mm256_setzero_ps();
          for (int p = 0; p < kDim; ++p) {
            dot = _mm256_add_ps(
                dot, _mm256_mul_ps(qv[p], _mm256_set1_ps(kj[p])));
          }
          s[0] = _mm256_mul_ps(dot, vscale);
        },
        [&](int64_t j, const __m256* grew, const __m256* rescale,
            const __m256* w) HIRE_AVX2 {
          const float* vj = v + j * qkv_stride;
          for (int c = 0; c < kDim; ++c) {
            o[c] = Accumulate(o[c], grew[0], rescale[0], w[0],
                              _mm256_set1_ps(vj[c]));
          }
        },
        &inv);
    for (int c = 0; c < kDim; ++c) {
      _mm256_store_ps(staging[c], _mm256_mul_ps(o[c], inv));
    }
    for (int l = 0; l < lanes; ++l) {
      float* oi = out + (i0 + l) * out_stride;
      for (int c = 0; c < kDim; ++c) oi[c] = staging[c][l];
    }
  }
}

// (query, head) pairs in lanes for head_dim 2 with kHeads heads (inner =
// 2 * kHeads = 8 or 16 floats): lane l of the block starting at query i0
// is query i0 + l / kHeads, head l % kHeads. `base` is one batch element's
// QKV block (q at +0, k at +inner, v at +2 * inner, rows qkv_stride apart),
// `out` its head-merged rows, out_stride apart. kGroups vectors run at
// once: two accumulators a vector are too few chains to hide latency.
template <int kHeads, int kGroups>
HIRE_AVX2 void AttendHeadPairBlock(const float* base, int64_t qkv_stride,
                                   float* out, int64_t out_stride,
                                   int64_t i0, int64_t queries,
                                   int64_t tokens, float scale) {
  static_assert(kHeads == 4 || kHeads == 8, "one or two loads per row");
  constexpr int kInner = 2 * kHeads;
  constexpr int kQueriesPerVector = 8 / kHeads;
  const float* k = base + kInner;
  const float* v = base + 2 * kInner;
  const int used = static_cast<int>(
      std::min<int64_t>(kQueriesPerVector * kGroups, queries - i0) * kHeads);
  // Splits one token's row [h0 p0, h0 p1, h1 p0, ...] into the lanes'
  // element 0 and element 1: with four heads both lane halves read the one
  // 8-float row; with eight the low half reads heads 0-3, the high 4-7.
  auto split = [](const float* row, __m256* p0, __m256* p1) HIRE_AVX2 {
    const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    const __m256i odd = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
    const __m256 lo = _mm256_loadu_ps(row);
    if constexpr (kHeads == 4) {
      *p0 = _mm256_permutevar8x32_ps(lo, even);
      *p1 = _mm256_permutevar8x32_ps(lo, odd);
    } else {
      const __m256 hi = _mm256_loadu_ps(row + 8);
      *p0 = _mm256_blend_ps(_mm256_permutevar8x32_ps(lo, even),
                            _mm256_permutevar8x32_ps(hi, even), 0xF0);
      *p1 = _mm256_blend_ps(_mm256_permutevar8x32_ps(lo, odd),
                            _mm256_permutevar8x32_ps(hi, odd), 0xF0);
    }
  };
  alignas(32) float staging[2][8 * kGroups] = {};
  for (int l = 0; l < used; ++l) {
    const float* qi = base + (i0 + l / kHeads) * qkv_stride;
    staging[0][l] = qi[2 * (l % kHeads)];
    staging[1][l] = qi[2 * (l % kHeads) + 1];
  }
  __m256 q0[kGroups], q1[kGroups], o0[kGroups], o1[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    q0[g] = _mm256_load_ps(staging[0] + 8 * g);
    q1[g] = _mm256_load_ps(staging[1] + 8 * g);
    o0[g] = _mm256_setzero_ps();
    o1[g] = _mm256_setzero_ps();
  }
  const __m256 vscale = _mm256_set1_ps(scale);
  __m256 inv[kGroups];
  OnlineSoftmaxLanes<kGroups>(
      tokens, used - 8 * (kGroups - 1),
      [&](int64_t j, __m256* s) HIRE_AVX2 {
        __m256 k0, k1;
        split(k + j * qkv_stride, &k0, &k1);
        for (int g = 0; g < kGroups; ++g) {
          __m256 dot =
              _mm256_add_ps(_mm256_setzero_ps(), _mm256_mul_ps(q0[g], k0));
          dot = _mm256_add_ps(dot, _mm256_mul_ps(q1[g], k1));
          s[g] = _mm256_mul_ps(dot, vscale);
        }
      },
      [&](int64_t j, const __m256* grew, const __m256* rescale,
          const __m256* w) HIRE_AVX2 {
        __m256 v0, v1;
        split(v + j * qkv_stride, &v0, &v1);
        for (int g = 0; g < kGroups; ++g) {
          o0[g] = Accumulate(o0[g], grew[g], rescale[g], w[g], v0);
          o1[g] = Accumulate(o1[g], grew[g], rescale[g], w[g], v1);
        }
      },
      inv);
  for (int g = 0; g < kGroups; ++g) {
    _mm256_store_ps(staging[0] + 8 * g, _mm256_mul_ps(o0[g], inv[g]));
    _mm256_store_ps(staging[1] + 8 * g, _mm256_mul_ps(o1[g], inv[g]));
  }
  for (int l = 0; l < used; ++l) {
    float* oi = out + (i0 + l / kHeads) * out_stride + 2 * (l % kHeads);
    oi[0] = staging[0][l];
    oi[1] = staging[1][l];
  }
}

// All queries of one batch element: blocks of four vectors, then one
// vector at a time for the rest.
template <int kHeads>
HIRE_AVX2 void AttendHeadPairLanes(const float* base, int64_t qkv_stride,
                                   float* out, int64_t out_stride,
                                   int64_t queries, int64_t tokens,
                                   float scale) {
  constexpr int kGroups = 4;
  constexpr int64_t kQueriesPerVector = 8 / kHeads;
  int64_t i0 = 0;
  for (; i0 + kGroups * kQueriesPerVector <= queries;
       i0 += kGroups * kQueriesPerVector) {
    AttendHeadPairBlock<kHeads, kGroups>(base, qkv_stride, out, out_stride,
                                         i0, queries, tokens, scale);
  }
  for (; i0 < queries; i0 += kQueriesPerVector) {
    AttendHeadPairBlock<kHeads, 1>(base, qkv_stride, out, out_stride, i0,
                                   queries, tokens, scale);
  }
}

HIRE_AVX2 void AttendSequenceAvx2(int64_t head_dim, const float* q,
                                  const float* k, const float* v,
                                  int64_t qkv_stride, float* out,
                                  int64_t out_stride, int64_t queries,
                                  int64_t tokens, float scale) {
  switch (head_dim) {
    case 8:
      AttendQueryLanes<8>(q, k, v, qkv_stride, out, out_stride, queries,
                          tokens, scale);
      return;
    case 16:
      AttendQueryLanes<16>(q, k, v, qkv_stride, out, out_stride, queries,
                           tokens, scale);
      return;
    default:
      AttendSequence(head_dim, q, k, v, qkv_stride, out, out_stride, queries,
                     tokens, scale);
  }
}

#undef HIRE_AVX2
#endif  // x86

// The attention row of the kernel table (tensor/kernel_dispatch.h), indexed
// by KernelIsa.
struct AttentionKernels {
  // One (batch, head) sequence, any head_dim.
  void (*sequence)(int64_t head_dim, const float* q, const float* k,
                   const float* v, int64_t qkv_stride, float* out,
                   int64_t out_stride, int64_t queries, int64_t tokens,
                   float scale);
  // head_dim 2: one batch element, every head at once; null when the ISA
  // has no such layout. Indexed [0] for 4 heads, [1] for 8.
  void (*head_pairs[2])(const float* base, int64_t qkv_stride, float* out,
                        int64_t out_stride, int64_t queries, int64_t tokens,
                        float scale);
};

constexpr AttentionKernels kAttentionKernels[] = {
    {&AttendSequence, {nullptr, nullptr}},
#if defined(__x86_64__) || defined(__i386__)
    {&AttendSequenceAvx2,
     {&AttendHeadPairLanes<4>, &AttendHeadPairLanes<8>}},
#endif
};

const Tensor& FindParameter(
    const std::vector<std::pair<std::string, ag::Variable>>& params,
    const std::string& name) {
  for (const auto& [param_name, variable] : params) {
    if (param_name == name) return variable.value();
  }
  HIRE_CHECK(false) << "missing MHSA parameter " << name;
  // Unreachable; HIRE_CHECK throws.
  static const Tensor* kEmpty = new Tensor();
  return *kEmpty;
}

}  // namespace

FusedAttentionWeights PackAttentionWeights(
    const MultiHeadSelfAttention& mhsa) {
  const auto params = mhsa.NamedParameters();
  const MhsaConfig& config = mhsa.config();
  return PackAttentionWeights(
      config.embed_dim, config.num_heads, config.head_dim,
      FindParameter(params, "query.weight"), FindParameter(params, "query.bias"),
      FindParameter(params, "key.weight"), FindParameter(params, "key.bias"),
      FindParameter(params, "value.weight"), FindParameter(params, "value.bias"),
      FindParameter(params, "output.weight"),
      FindParameter(params, "output.bias"));
}

FusedAttentionWeights PackAttentionWeights(
    int64_t embed_dim, int64_t num_heads, int64_t head_dim, const Tensor& wq,
    const Tensor& bq, const Tensor& wk, const Tensor& bk, const Tensor& wv,
    const Tensor& bv, const Tensor& wo, const Tensor& bo) {
  FusedAttentionWeights packed;
  packed.embed_dim = embed_dim;
  packed.num_heads = num_heads;
  packed.head_dim = head_dim;
  const int64_t inner = packed.inner();
  HIRE_CHECK_GT(inner, 0);
  for (const Tensor* w : {&wq, &wk, &wv}) {
    HIRE_CHECK_EQ(w->dim(), 2);
    HIRE_CHECK_EQ(w->shape(0), embed_dim);
    HIRE_CHECK_EQ(w->shape(1), inner);
  }
  HIRE_CHECK_EQ(wo.shape(0), inner);
  HIRE_CHECK_EQ(wo.shape(1), embed_dim);

  packed.qkv_weight = Tensor({embed_dim, 3 * inner});
  packed.qkv_bias = Tensor({3 * inner});
  for (int64_t p = 0; p < embed_dim; ++p) {
    float* row = packed.qkv_weight.data() + p * 3 * inner;
    std::copy(wq.data() + p * inner, wq.data() + (p + 1) * inner, row);
    std::copy(wk.data() + p * inner, wk.data() + (p + 1) * inner,
              row + inner);
    std::copy(wv.data() + p * inner, wv.data() + (p + 1) * inner,
              row + 2 * inner);
  }
  std::copy(bq.data(), bq.data() + inner, packed.qkv_bias.data());
  std::copy(bk.data(), bk.data() + inner, packed.qkv_bias.data() + inner);
  std::copy(bv.data(), bv.data() + inner, packed.qkv_bias.data() + 2 * inner);
  packed.out_weight = wo;
  packed.out_bias = bo;
  return packed;
}

void FusedAttentionCore(int64_t num_heads, int64_t head_dim,
                        const float* qkv, int64_t batch, int64_t tokens,
                        int64_t queries, float* merged) {
  HIRE_CHECK(queries > 0 && queries <= tokens)
      << "queries " << queries << " of " << tokens << " tokens";
  ScopedKernelTimer timer(KernelCategory::kInferFusedAttention);
  const AttentionKernels& kernels =
      kAttentionKernels[static_cast<int>(ActiveKernelIsa())];
  const int64_t inner = num_heads * head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const double qt = static_cast<double>(queries);
  const double t = static_cast<double>(tokens);
  const double d = static_cast<double>(head_dim);
  const LoopCost sequence_cost = {qt * t * (4.0 * d + 40.0),
                                  4.0 * (qt + 2.0 * t) * d};

  const int pairs = num_heads == 4 ? 0 : num_heads == 8 ? 1 : -1;
  if (head_dim == 2 && pairs >= 0 && kernels.head_pairs[pairs] != nullptr) {
    // (query, head) lanes: the work unit is one batch element, all heads.
    const auto attend = kernels.head_pairs[pairs];
    const double h = static_cast<double>(num_heads);
    const int64_t grain =
        PlanGrain(batch, {sequence_cost.flops_per_index * h,
                          sequence_cost.bytes_per_index * h});
    ParallelForRange(0, batch, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        attend(qkv + b * tokens * 3 * inner, 3 * inner,
               merged + b * queries * inner, inner, queries, tokens, scale);
      }
    });
    return;
  }

  // Per-(batch, head) sequences, strided reads from the QKV buffer,
  // head-merged writes — no split/merge permutes. Sequences are
  // independent, so sharding them over the runtime never changes results.
  const int64_t sequences = batch * num_heads;
  const int64_t grain = PlanGrain(sequences, sequence_cost);
  ParallelForRange(0, sequences, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const int64_t b = s / num_heads;
      const int64_t h = s - b * num_heads;
      const float* base = qkv + b * tokens * 3 * inner + h * head_dim;
      kernels.sequence(head_dim, base, base + inner, base + 2 * inner,
                       3 * inner, merged + b * queries * inner + h * head_dim,
                       inner, queries, tokens, scale);
    }
  });
}

void FusedAttentionForward(const FusedAttentionWeights& w, const float* x,
                           int64_t batch, int64_t tokens, int64_t queries,
                           float* out, float* scratch) {
  const int64_t e = w.embed_dim;
  const int64_t inner = w.inner();
  const int64_t rows = batch * tokens;
  float* qkv = scratch;                        // [rows, 3*inner]
  float* merged = scratch + rows * 3 * inner;  // [batch, queries, inner]

  // Fused QKV projection: one GEMM instead of three Linear forwards. It
  // covers every token: keys and values need them all, and the packed
  // weight stays whole, so rows >= queries also get unread query columns.
  ops::GemmBiasActInto(x, w.qkv_weight.data(), w.qkv_bias.data(), qkv, rows,
                       e, 3 * inner);

  FusedAttentionCore(w.num_heads, w.head_dim, qkv, batch, tokens, queries,
                     merged);

  // Output projection W_O over the query rows only.
  ops::GemmBiasActInto(merged, w.out_weight.data(), w.out_bias.data(), out,
                       batch * queries, inner, e);
}

Tensor FusedAttentionForward(const FusedAttentionWeights& w, const Tensor& x) {
  HIRE_CHECK_EQ(x.dim(), 3);
  HIRE_CHECK_EQ(x.shape(2), w.embed_dim);
  const int64_t batch = x.shape(0);
  const int64_t tokens = x.shape(1);
  Tensor out(x.shape());
  std::vector<float> scratch(
      static_cast<size_t>(w.ScratchFloats(batch, tokens)));
  FusedAttentionForward(w, x.data(), batch, tokens, tokens, out.data(),
                        scratch.data());
  return out;
}

}  // namespace nn
}  // namespace hire
