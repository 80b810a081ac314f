#include "nn/multi_head_self_attention.h"

#include <cmath>
#include <memory>

#include "autograd/ops.h"
#include "obs/kernel_timers.h"
#include "obs/trace.h"
#include "utils/check.h"

namespace hire {
namespace nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(const MhsaConfig& config,
                                               Rng* rng)
    : config_(config) {
  HIRE_CHECK_GT(config_.embed_dim, 0);
  HIRE_CHECK_GT(config_.num_heads, 0);
  if (config_.head_dim == 0) {
    HIRE_CHECK_EQ(config_.embed_dim % config_.num_heads, 0)
        << "embed_dim must divide evenly across heads when head_dim is "
           "defaulted";
    config_.head_dim = config_.embed_dim / config_.num_heads;
  }
  const int64_t inner = config_.num_heads * config_.head_dim;
  query_ = std::make_unique<Linear>(config_.embed_dim, inner, rng);
  key_ = std::make_unique<Linear>(config_.embed_dim, inner, rng);
  value_ = std::make_unique<Linear>(config_.embed_dim, inner, rng);
  output_ = std::make_unique<Linear>(inner, config_.embed_dim, rng);
  RegisterSubmodule("query", query_.get());
  RegisterSubmodule("key", key_.get());
  RegisterSubmodule("value", value_.get());
  RegisterSubmodule("output", output_.get());
}

ag::Variable MultiHeadSelfAttention::Forward(const ag::Variable& x) const {
  ScopedKernelTimer timer(KernelCategory::kAttention);
  HIRE_TRACE_SCOPE("mhsa_forward");
  HIRE_CHECK_EQ(x.value().dim(), 3)
      << "MHSA expects [batch, tokens, dim], got " << x.value().ShapeString();
  const int64_t batch = x.value().shape(0);
  const int64_t tokens = x.value().shape(1);
  HIRE_CHECK_EQ(x.value().shape(2), config_.embed_dim);
  const int64_t heads = config_.num_heads;
  const int64_t head_dim = config_.head_dim;

  // Backward-span bracket: the hook on the *input* runs last in backward
  // (records the span), the hook on the *output* runs first (stamps the
  // start). Only attached while tracing, as the hooks deep-copy values.
  ag::Variable input = x;
  std::shared_ptr<uint64_t> backward_start;
  if (obs::Tracer::Enabled() && x.requires_grad()) {
    backward_start = std::make_shared<uint64_t>(0);
    auto start = backward_start;
    input = ag::WithBackwardHook(x, [start] {
      obs::EmitSpan("mhsa_backward", *start, obs::TraceNowNanos());
    });
  }

  // Project and split into heads: [B, t, l*dk] -> [B*l, t, dk].
  auto split_heads = [&](const ag::Variable& proj) {
    ag::Variable reshaped =
        ag::Reshape(proj, {batch, tokens, heads, head_dim});
    ag::Variable permuted = ag::Permute(reshaped, {0, 2, 1, 3});
    return ag::Reshape(permuted, {batch * heads, tokens, head_dim});
  };

  ag::Variable q = split_heads(query_->Forward(input));
  ag::Variable k = split_heads(key_->Forward(input));
  ag::Variable v = split_heads(value_->Forward(input));

  // Attention weights A = softmax(QK^T / sqrt(d_k)): [B*l, t, t].
  ag::Variable scores = ag::BatchedMatMulTransposedB(q, k);
  scores = ag::MulScalar(
      scores, 1.0f / std::sqrt(static_cast<float>(head_dim)));
  ag::Variable attention = ag::Softmax(scores);

  if (capture_attention_) {
    captured_attention_ =
        attention.value().Reshape({batch, heads, tokens, tokens});
  }

  // Fused values: [B*l, t, dv] -> [B, t, l*dv] -> W_O.
  ag::Variable fused = ag::BatchedMatMul(attention, v);
  fused = ag::Reshape(fused, {batch, heads, tokens, head_dim});
  fused = ag::Permute(fused, {0, 2, 1, 3});
  fused = ag::Reshape(fused, {batch, tokens, heads * head_dim});
  ag::Variable out = output_->Forward(fused);
  if (backward_start != nullptr && out.requires_grad()) {
    auto start = backward_start;
    out = ag::WithBackwardHook(
        out, [start] { *start = obs::TraceNowNanos(); });
  }
  return out;
}

}  // namespace nn
}  // namespace hire
