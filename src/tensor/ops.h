#ifndef HIRE_TENSOR_OPS_H_
#define HIRE_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hire {
namespace ops {

// ---------------------------------------------------------------------------
// Elementwise binary operations (shapes must match exactly).
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Scalar and unary operations.
// ---------------------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float value);
Tensor MulScalar(const Tensor& a, float value);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// [n, k] x [k, m] -> [n, m].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// [n, k] x [m, k]^T -> [n, m]; avoids materialising the transpose.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// [b, n, k] x [b, k, m] -> [b, n, m].
Tensor BatchedMatMul(const Tensor& a, const Tensor& b);

/// [b, n, k] x [b, m, k]^T -> [b, n, m].
Tensor BatchedMatMulTransposedB(const Tensor& a, const Tensor& b);

/// Adds a bias row vector [d] to every row of X [..., d].
Tensor AddBias(const Tensor& x, const Tensor& bias);

// ---------------------------------------------------------------------------
// Shape manipulation.
// ---------------------------------------------------------------------------

/// Generalised transpose; `axes` must be a permutation of [0, dim).
Tensor Permute(const Tensor& a, const std::vector<int>& axes);

/// Swaps the last two axes (dim >= 2).
Tensor TransposeLast2(const Tensor& a);

/// Concatenates tensors along `axis`; all other extents must match.
Tensor Concat(const std::vector<Tensor>& parts, int axis);

/// Slices `length` entries starting at `start` along `axis`.
Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length);

// ---------------------------------------------------------------------------
// Reductions and normalisation.
// ---------------------------------------------------------------------------

float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

/// L2 norm of the whole tensor (used by LAMB and gradient clipping).
float Norm(const Tensor& a);

/// Sums over `axis`, dropping it from the shape.
Tensor Sum(const Tensor& a, int axis);

/// Means over `axis`, dropping it from the shape.
Tensor Mean(const Tensor& a, int axis);

/// Numerically stable softmax along the last axis.
Tensor Softmax(const Tensor& a);

/// True when |a - b| <= atol + rtol*|b| elementwise (same shape required).
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// ---------------------------------------------------------------------------
// Fused inference primitives. These power the tape-free forward path
// (core/inference_forward.h): the Into variants write into caller-owned
// storage (normally an InferenceArena buffer) and allocate nothing, so a
// warmed-up serve forward touches no heap. The Tensor wrappers exist for
// tests and benchmarks.
// ---------------------------------------------------------------------------

/// Epilogue activation fused into GemmBiasAct.
enum class Activation { kNone, kSigmoid, kRelu };

/// C = post_scale * act(A[n, k] x B + bias): a Linear forward (MatMul +
/// AddBias) plus an optional activation and scalar, fused into the GEMM's
/// epilogue pass instead of three tensor-sized round trips. `b` is
/// row-major [k, m], or stored transposed as [m, k] when `b_transposed`;
/// `bias` ([m] floats) may be nullptr. Per C element the arithmetic is
/// bitwise identical to the unfused chain: the shared GEMM backend
/// accumulates products in ascending-p order into a zeroed C, then one
/// rounding each for + bias, act, and * post_scale — the same order
/// MatMul / AddBias / Sigmoid / MulScalar produce.
void GemmBiasActInto(const float* a, const float* b, const float* bias,
                     float* c, int64_t n, int64_t k, int64_t m,
                     bool b_transposed = false,
                     Activation act = Activation::kNone,
                     float post_scale = 1.0f);

/// Tensor wrapper: act(a x b + bias) * post_scale, a [n, k] x b [k, m].
Tensor GemmBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
                   Activation act = Activation::kNone,
                   float post_scale = 1.0f);

/// Single-sequence single-pass attention: out[i, :] = sum_j a_ij * v[j, :]
/// with a_ij = softmax_j(scale * <q_i, k_j>), computed in one sweep over j
/// per query via online (running-max) softmax — the score matrix is never
/// materialised. Only the first `queries` tokens are queries (i < queries,
/// out holds `queries` rows); keys and values span all `tokens` (j <
/// tokens). Each output row depends only on its own query, so row i is
/// bitwise the same for every queries > i. Token i of q/k/v/out lives at
/// base + i*stride (strides in floats), so per-head q/k/v can be read
/// strided straight out of a fused QKV projection buffer and the result
/// written head-merged. Serial by design; callers parallelise over
/// (batch, head) sequences.
void OnlineSoftmaxWeightedSumInto(const float* q, int64_t q_stride,
                                  const float* k, int64_t k_stride,
                                  const float* v, int64_t v_stride,
                                  float* out, int64_t out_stride,
                                  int64_t queries, int64_t tokens,
                                  int64_t head_dim, float scale);

/// Batched tensor wrapper: q/k/v [b, t, d] -> [b, t, d], sharded over the
/// batch through the cost model.
Tensor OnlineSoftmaxWeightedSum(const Tensor& q, const Tensor& k,
                                const Tensor& v, float scale);

}  // namespace ops
}  // namespace hire

#endif  // HIRE_TENSOR_OPS_H_
