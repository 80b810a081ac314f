#ifndef HIRE_NN_FUSED_ATTENTION_H_
#define HIRE_NN_FUSED_ATTENTION_H_

#include <cstdint>

#include "nn/multi_head_self_attention.h"
#include "tensor/tensor.h"

namespace hire {
namespace nn {

/// One MHSA layer's weights packed for the tape-free fused forward
/// (core/inference_forward.h). The three input projections are concatenated
/// column-wise into a single [e, 3*inner] matrix, so Q, K and V come out of
/// one GEMM over the input — bitwise identical to three separate Linear
/// forwards, because every GEMM output column accumulates independently in
/// ascending-p order. Packing happens once (at snapshot load / predictor
/// construction), never per forward.
struct FusedAttentionWeights {
  int64_t embed_dim = 0;
  int64_t num_heads = 0;
  int64_t head_dim = 0;
  Tensor qkv_weight;  // [embed_dim, 3*inner]: Q columns, then K, then V
  Tensor qkv_bias;    // [3*inner]
  Tensor out_weight;  // [inner, embed_dim]
  Tensor out_bias;    // [embed_dim]

  int64_t inner() const { return num_heads * head_dim; }

  /// Scratch floats one Forward over [batch, tokens, embed_dim] needs: the
  /// QKV projection buffer plus the head-merged attention output.
  int64_t ScratchFloats(int64_t batch, int64_t tokens) const {
    return batch * tokens * 4 * inner();
  }
};

/// Packs a trained MultiHeadSelfAttention (via its named parameters) into
/// the fused layout.
FusedAttentionWeights PackAttentionWeights(const MultiHeadSelfAttention& mhsa);

/// Packs raw projection weights (Linear layout [in, out]) and biases.
FusedAttentionWeights PackAttentionWeights(
    int64_t embed_dim, int64_t num_heads, int64_t head_dim,
    const Tensor& wq, const Tensor& bq, const Tensor& wk, const Tensor& bk,
    const Tensor& wv, const Tensor& bv, const Tensor& wo, const Tensor& bo);

/// Fused MHSA forward: x [batch, tokens, e] -> out [batch, queries, e],
/// over caller-provided scratch of at least w.ScratchFloats(batch, tokens)
/// floats (normally arena-backed; nothing is heap-allocated here). The
/// first `queries` tokens of each sequence are queries (1 <= queries <=
/// tokens); keys and values span all `tokens`. One QKV GEMM over all
/// tokens, then per-(batch, head) single-pass online-softmax attention for
/// the query tokens, read strided out of the QKV buffer and written
/// head-merged (the tape path's split/merge permutes disappear), then the
/// output projection over the query rows. The attention inner loops are
/// compile-time specialised for the common head dims (2, 4, 8, 16) and fall
/// back to the generic strided kernel (ops::OnlineSoftmaxWeightedSumInto)
/// otherwise; on AVX2 hosts head dims 8 and 16, and head dim 2 with 4 or
/// 8 heads, run eight sequences in the lanes of a vector
/// (tensor/kernel_dispatch.h). Every variant keeps
/// the generic kernel's operation order, so the choice changes nothing but
/// speed.
///
/// Every step after the QKV GEMM is row-local and each GEMM row
/// accumulates in the same order whatever the row count, so out row i is
/// bitwise the same for every queries > i: queries == tokens is the full
/// self-attention, a smaller count is its leading rows.
///
/// Agrees with MultiHeadSelfAttention::Forward within ~1e-6 per element:
/// the projections are bitwise identical, the online softmax re-associates
/// only the softmax normalisation (tests/nn_test.cc pins the bound).
void FusedAttentionForward(const FusedAttentionWeights& w, const float* x,
                           int64_t batch, int64_t tokens, int64_t queries,
                           float* out, float* scratch);

/// The attention step of FusedAttentionForward on its own, for tests and the
/// kernel bench: reads the QKV projection `qkv` [batch, tokens, 3*inner]
/// (Q columns, then K, then V; inner = num_heads * head_dim) and writes the
/// head-merged attention output `merged` [batch, queries, inner]. Runs on
/// the dispatched kernels (tensor/kernel_dispatch.h); every ISA gives the
/// same bits.
void FusedAttentionCore(int64_t num_heads, int64_t head_dim,
                        const float* qkv, int64_t batch, int64_t tokens,
                        int64_t queries, float* merged);

/// Allocating convenience wrapper for tests and benchmarks: full
/// self-attention (queries == tokens).
Tensor FusedAttentionForward(const FusedAttentionWeights& w, const Tensor& x);

}  // namespace nn
}  // namespace hire

#endif  // HIRE_NN_FUSED_ATTENTION_H_
