#include "nn/fused_attention.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "utils/check.h"
#include "utils/cost_model.h"
#include "utils/parallel.h"
#include "utils/stopwatch.h"

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

void FusedAttentionForward(const FusedAttentionWeights& w, const float* x,
                           int64_t batch, int64_t tokens, int64_t queries,
                           float* out, float* scratch) {
  HIRE_CHECK(queries > 0 && queries <= tokens)
      << "queries " << queries << " of " << tokens << " tokens";
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

  // Per-(batch, head) single-pass attention, strided reads from the QKV
  // buffer, head-merged writes — no split/merge permutes. Sequences are
  // independent, so sharding them over the runtime never changes results.
  {
    ScopedKernelTimer timer(KernelCategory::kInferFusedAttention);
    const float scale =
        1.0f / std::sqrt(static_cast<float>(w.head_dim));
    const int64_t sequences = batch * w.num_heads;
    const double qt = static_cast<double>(queries);
    const double t = static_cast<double>(tokens);
    const double d = static_cast<double>(w.head_dim);
    const int64_t grain = PlanGrain(
        sequences, {qt * t * (4.0 * d + 40.0), 4.0 * (qt + 2.0 * t) * d});
    ParallelForRange(0, sequences, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        const int64_t b = s / w.num_heads;
        const int64_t h = s - b * w.num_heads;
        const float* base = qkv + b * tokens * 3 * inner + h * w.head_dim;
        AttendSequence(w.head_dim, base, base + inner, base + 2 * inner,
                       3 * inner,
                       merged + b * queries * inner + h * w.head_dim, inner,
                       queries, tokens, scale);
      }
    });
  }

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
