#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/fused_attention.h"
#include "nn/multi_head_self_attention.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "utils/check.h"

namespace hire {
namespace nn {
namespace {

TEST(InitTest, XavierUniformWithinLimit) {
  Rng rng(1);
  Tensor w = XavierUniform(64, 64, &rng);
  const float limit = std::sqrt(6.0f / 128.0f);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.flat(i)), limit);
  }
}

TEST(InitTest, HeNormalHasRightScale) {
  Rng rng(2);
  Tensor w = HeNormal(200, 50, &rng);
  double sum_sq = 0.0;
  for (int64_t i = 0; i < w.size(); ++i) sum_sq += w.flat(i) * w.flat(i);
  EXPECT_NEAR(sum_sq / static_cast<double>(w.size()), 2.0 / 200.0, 0.002);
}

TEST(LinearTest, ShapeAndDeterminism) {
  Rng rng(3);
  Linear layer(4, 3, &rng);
  ag::Variable x(Tensor::Ones({2, 4}), false);
  ag::Variable y1 = layer.Forward(x);
  ag::Variable y2 = layer.Forward(x);
  EXPECT_EQ(y1.shape(), (std::vector<int64_t>{2, 3}));
  EXPECT_TRUE(ops::AllClose(y1.value(), y2.value()));
}

TEST(LinearTest, SupportsLeadingBatchAxes) {
  Rng rng(4);
  Linear layer(5, 2, &rng);
  ag::Variable x(Tensor::Ones({3, 4, 5}), false);
  EXPECT_EQ(layer.Forward(x).shape(), (std::vector<int64_t>{3, 4, 2}));
}

TEST(LinearTest, RejectsWrongInputWidth) {
  Rng rng(5);
  Linear layer(4, 3, &rng);
  ag::Variable x(Tensor::Ones({2, 5}), false);
  EXPECT_THROW(layer.Forward(x), CheckError);
}

TEST(LinearTest, ParametersAreRegistered) {
  Rng rng(6);
  Linear with_bias(4, 3, &rng);
  EXPECT_EQ(with_bias.Parameters().size(), 2u);
  EXPECT_EQ(with_bias.NumParameters(), 4 * 3 + 3);
  Linear without_bias(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(without_bias.Parameters().size(), 1u);
}

TEST(LinearTest, GradientsFlowToParameters) {
  Rng rng(7);
  Linear layer(3, 2, &rng);
  ag::Variable x(RandomUniform({4, 3}, -1, 1, &rng), false);
  ag::Variable loss = ag::MeanAll(ag::Square(layer.Forward(x)));
  loss.Backward();
  for (const ag::Variable& parameter : layer.Parameters()) {
    EXPECT_TRUE(parameter.has_grad());
  }
}

TEST(EmbeddingTest, LookupReturnsTableRows) {
  Rng rng(8);
  Embedding embedding(5, 3, &rng);
  ag::Variable a = embedding.Forward({2});
  ag::Variable b = embedding.Forward({2, 2, 4});
  EXPECT_TRUE(ops::AllClose(ops::Slice(b.value(), 0, 0, 1),
                            a.value().Reshape({1, 3})));
  EXPECT_TRUE(ops::AllClose(ops::Slice(b.value(), 0, 0, 1),
                            ops::Slice(b.value(), 0, 1, 1)));
}

TEST(EmbeddingTest, MaskedIndexIsZero) {
  Rng rng(9);
  Embedding embedding(5, 3, &rng);
  ag::Variable out = embedding.Forward({-1});
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.value().flat(i), 0.0f);
  }
}

TEST(LayerNormTest, NormalisesLastAxis) {
  LayerNorm norm(6);
  Rng rng(10);
  ag::Variable x(RandomUniform({4, 6}, -5, 5, &rng), false);
  Tensor y = norm.Forward(x).value();
  for (int64_t r = 0; r < 4; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t c = 0; c < 6; ++c) mean += y.at(r, c);
    mean /= 6.0;
    for (int64_t c = 0; c < 6; ++c) {
      var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    }
    var /= 6.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, WrongWidthThrows) {
  LayerNorm norm(6);
  ag::Variable x(Tensor::Ones({2, 5}), false);
  EXPECT_THROW(norm.Forward(x), CheckError);
}

TEST(MlpTest, EndToEndShapesAndActivations) {
  Rng rng(11);
  Mlp mlp({4, 8, 1}, Activation::kRelu, &rng, Activation::kSigmoid);
  ag::Variable x(Tensor::Ones({3, 4}), false);
  Tensor y = mlp.Forward(x).value();
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 1}));
  for (int64_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y.flat(i), 0.0f);
    EXPECT_LT(y.flat(i), 1.0f);
  }
}

TEST(MlpTest, RequiresAtLeastTwoDims) {
  Rng rng(12);
  EXPECT_THROW(Mlp({4}, Activation::kRelu, &rng), CheckError);
}

TEST(ModuleTest, NamedParametersHaveHierarchicalNames) {
  Rng rng(13);
  Mlp mlp({2, 3, 1}, Activation::kRelu, &rng);
  const auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[3].first, "layer1.bias");
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(14);
  Mlp mlp({2, 3, 1}, Activation::kRelu, &rng);
  mlp.SetTraining(false);
  EXPECT_FALSE(mlp.training());
  mlp.SetTraining(true);
  EXPECT_TRUE(mlp.training());
}

// ---------------------------------------------------------------------------
// Multi-head self-attention.
// ---------------------------------------------------------------------------

MhsaConfig SmallMhsa(int64_t dim = 8, int64_t heads = 2) {
  MhsaConfig config;
  config.embed_dim = dim;
  config.num_heads = heads;
  return config;
}

TEST(MhsaTest, OutputShapeMatchesInput) {
  Rng rng(15);
  MultiHeadSelfAttention mhsa(SmallMhsa(), &rng);
  ag::Variable x(RandomUniform({3, 5, 8}, -1, 1, &rng), false);
  EXPECT_EQ(mhsa.Forward(x).shape(), (std::vector<int64_t>{3, 5, 8}));
}

TEST(MhsaTest, ExplicitHeadDimension) {
  Rng rng(16);
  MhsaConfig config;
  config.embed_dim = 6;
  config.num_heads = 4;
  config.head_dim = 3;  // inner = 12 != embed_dim
  MultiHeadSelfAttention mhsa(config, &rng);
  ag::Variable x(RandomUniform({2, 4, 6}, -1, 1, &rng), false);
  EXPECT_EQ(mhsa.Forward(x).shape(), (std::vector<int64_t>{2, 4, 6}));
}

TEST(MhsaTest, IndivisibleDefaultHeadDimThrows) {
  Rng rng(17);
  MhsaConfig config;
  config.embed_dim = 6;
  config.num_heads = 4;
  EXPECT_THROW(MultiHeadSelfAttention(config, &rng), CheckError);
}

TEST(MhsaTest, RejectsNon3DInput) {
  Rng rng(18);
  MultiHeadSelfAttention mhsa(SmallMhsa(), &rng);
  ag::Variable x(Tensor::Ones({5, 8}), false);
  EXPECT_THROW(mhsa.Forward(x), CheckError);
}

TEST(MhsaTest, BatchElementsAreIndependent) {
  // Processing [x; y] as a batch must equal processing x and y separately.
  Rng rng(19);
  MultiHeadSelfAttention mhsa(SmallMhsa(), &rng);
  Tensor x = RandomUniform({1, 4, 8}, -1, 1, &rng);
  Tensor y = RandomUniform({1, 4, 8}, -1, 1, &rng);
  Tensor batched = ops::Concat({x, y}, 0);

  Tensor out_batched = mhsa.Forward(ag::Variable(batched, false)).value();
  Tensor out_x = mhsa.Forward(ag::Variable(x, false)).value();
  Tensor out_y = mhsa.Forward(ag::Variable(y, false)).value();
  EXPECT_TRUE(ops::AllClose(ops::Slice(out_batched, 0, 0, 1), out_x, 1e-4f,
                            1e-3f));
  EXPECT_TRUE(ops::AllClose(ops::Slice(out_batched, 0, 1, 1), out_y, 1e-4f,
                            1e-3f));
}

TEST(MhsaTest, AttentionCaptureShapeAndRowSums) {
  Rng rng(21);
  MultiHeadSelfAttention mhsa(SmallMhsa(8, 2), &rng);
  mhsa.EnableAttentionCapture(true);
  ag::Variable x(RandomUniform({2, 5, 8}, -1, 1, &rng), false);
  mhsa.Forward(x);
  const Tensor& attention = mhsa.captured_attention();
  ASSERT_EQ(attention.shape(), (std::vector<int64_t>{2, 2, 5, 5}));
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t h = 0; h < 2; ++h) {
      for (int64_t i = 0; i < 5; ++i) {
        float row = 0.0f;
        for (int64_t j = 0; j < 5; ++j) row += attention.at(b, h, i, j);
        EXPECT_NEAR(row, 1.0f, 1e-4f);
      }
    }
  }
}

TEST(MhsaTest, GradientsFlowThroughAttention) {
  Rng rng(22);
  MultiHeadSelfAttention mhsa(SmallMhsa(), &rng);
  ag::Variable x(RandomUniform({2, 3, 8}, -1, 1, &rng), true);
  ag::Variable loss = ag::MeanAll(ag::Square(mhsa.Forward(x)));
  loss.Backward();
  EXPECT_TRUE(x.has_grad());
  for (const ag::Variable& parameter : mhsa.Parameters()) {
    EXPECT_TRUE(parameter.has_grad());
  }
}

// Property test (paper Eq. 5): MHSA is permutation equivariant over tokens.
class MhsaPermutationTest : public ::testing::TestWithParam<int> {};

TEST_P(MhsaPermutationTest, PermutationEquivariance) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  MultiHeadSelfAttention mhsa(SmallMhsa(8, 2), &rng);

  const int64_t tokens = 6;
  Tensor x = RandomUniform({1, tokens, 8}, -1, 1, &rng);
  Tensor out = mhsa.Forward(ag::Variable(x, false)).value();

  // Build a random permutation of the token axis.
  std::vector<int64_t> perm(static_cast<size_t>(tokens));
  for (int64_t i = 0; i < tokens; ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(&perm);

  Tensor x_permuted({1, tokens, 8});
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t d = 0; d < 8; ++d) {
      x_permuted.at(0, t, d) = x.at(0, perm[static_cast<size_t>(t)], d);
    }
  }
  Tensor out_permuted =
      mhsa.Forward(ag::Variable(x_permuted, false)).value();

  // MHSA(P(x)) must equal P(MHSA(x)).
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t d = 0; d < 8; ++d) {
      ASSERT_NEAR(out_permuted.at(0, t, d),
                  out.at(0, perm[static_cast<size_t>(t)], d), 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MhsaPermutationTest,
                         ::testing::Range(100, 110));

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

TEST(SerializeTest, RoundTripRestoresParameters) {
  Rng rng(23);
  Mlp original({3, 4, 1}, Activation::kRelu, &rng);
  Mlp restored({3, 4, 1}, Activation::kRelu, &rng);  // different init

  const std::string path = testing::TempDir() + "/hire_params_test.bin";
  SaveParameters(original, path);
  LoadParameters(&restored, path);

  ag::Variable x(Tensor::Ones({2, 3}), false);
  EXPECT_TRUE(ops::AllClose(original.Forward(x).value(),
                            restored.Forward(x).value()));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchThrows) {
  Rng rng(24);
  Mlp original({3, 4, 1}, Activation::kRelu, &rng);
  Mlp different({3, 5, 1}, Activation::kRelu, &rng);
  const std::string path = testing::TempDir() + "/hire_params_mismatch.bin";
  SaveParameters(original, path);
  EXPECT_THROW(LoadParameters(&different, path), CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileThrows) {
  Rng rng(25);
  Mlp mlp({2, 2}, Activation::kNone, &rng);
  EXPECT_THROW(LoadParameters(&mlp, "/nonexistent/path/params.bin"),
               CheckError);
}

TEST(SerializeTest, CorruptMagicThrows) {
  Rng rng(26);
  Mlp mlp({2, 2}, Activation::kNone, &rng);
  const std::string path = testing::TempDir() + "/hire_params_corrupt.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("NOTAHIREFILE", f);
  fclose(f);
  EXPECT_THROW(LoadParameters(&mlp, path), CheckError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fused attention (tape-free serve path).
// ---------------------------------------------------------------------------

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  float max_abs = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(a.flat(i) - b.flat(i)));
  }
  return max_abs;
}

TEST(FusedAttentionTest, MatchesTapeMhsaAcrossHeadConfigs) {
  Rng rng(91);
  // head_dim 16/8/4/2 hit the compile-time-specialised inner loops, 3 and 5
  // the generic strided fallback; inner != embed_dim is also covered.
  const std::vector<std::pair<int64_t, int64_t>> head_configs = {
      {1, 16}, {2, 8}, {4, 4}, {8, 2}, {2, 3}, {1, 5}};
  for (const auto& [heads, head_dim] : head_configs) {
    MhsaConfig config;
    config.embed_dim = 16;
    config.num_heads = heads;
    config.head_dim = head_dim;
    MultiHeadSelfAttention mhsa(config, &rng);
    mhsa.SetTraining(false);
    Tensor x = RandomUniform({3, 6, 16}, -1, 1, &rng);
    const Tensor tape = mhsa.Forward(ag::Variable(x, false)).value();
    const Tensor fused =
        FusedAttentionForward(PackAttentionWeights(mhsa), x);
    EXPECT_LE(MaxAbsDiff(fused, tape), 1e-5f)
        << "heads=" << heads << " head_dim=" << head_dim;
  }
}

TEST(FusedAttentionTest, SpecialisedAndGenericKernelsAreBitwiseEqual) {
  // The fixed-dim template and the generic strided kernel share one
  // operation order; dispatching between them must never change bits. Run
  // the same problem through the packed fast path (head_dim 4 dispatches to
  // the template) and through the raw generic kernel.
  Rng rng(92);
  const int64_t tokens = 9;
  const int64_t dim = 4;
  Tensor q = RandomUniform({1, tokens, dim}, -1, 1, &rng);
  // Self-attention over q with Q = K = V = q, matching what the identity
  // projections below feed the packed fast path.
  const Tensor generic = ops::OnlineSoftmaxWeightedSum(q, q, q, 0.5f);

  MhsaConfig config;
  config.embed_dim = dim;
  config.num_heads = 1;
  config.head_dim = dim;
  MultiHeadSelfAttention mhsa(config, &rng);
  FusedAttentionWeights w = PackAttentionWeights(mhsa);
  // Make the projections and output transform the identity so the fused
  // forward reduces to exactly one attention pass over x with scale
  // 1/sqrt(4) = 0.5.
  w.qkv_weight.Fill(0.0f);
  w.qkv_bias.Fill(0.0f);
  for (int64_t p = 0; p < dim; ++p) {
    w.qkv_weight.at(p, p) = 1.0f;                // Q = x
    w.qkv_weight.at(p, dim + p) = 1.0f;          // K = x
    w.qkv_weight.at(p, 2 * dim + p) = 1.0f;      // V = x
  }
  w.out_weight.Fill(0.0f);
  w.out_bias.Fill(0.0f);
  for (int64_t p = 0; p < dim; ++p) w.out_weight.at(p, p) = 1.0f;

  // With identity projections, Q = K = V = q must reproduce the generic
  // kernel applied to q bitwise.
  const Tensor fused = FusedAttentionForward(w, q);
  ASSERT_TRUE(fused.SameShape(generic));
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.flat(i), generic.flat(i)) << "flat index " << i;
  }
}

TEST(FusedAttentionTest, QueryPrefixMatchesGenericKernelAndFullRows) {
  // With queries < tokens only the first `queries` tokens attend (over all
  // tokens). The specialised kernels (head_dim 2/4/8/16) and the generic
  // one (3) must agree bitwise, and both must equal the leading rows of the
  // full self-attention.
  Rng rng(94);
  const int64_t batch = 3;
  const int64_t tokens = 7;
  for (const int64_t dim : {2, 3, 4, 8, 16}) {
    MhsaConfig config;
    config.embed_dim = dim;
    config.num_heads = 1;
    config.head_dim = dim;
    MultiHeadSelfAttention mhsa(config, &rng);
    FusedAttentionWeights w = PackAttentionWeights(mhsa);
    w.qkv_weight.Fill(0.0f);
    w.qkv_bias.Fill(0.0f);
    w.out_weight.Fill(0.0f);
    w.out_bias.Fill(0.0f);
    for (int64_t p = 0; p < dim; ++p) {
      w.qkv_weight.at(p, p) = 1.0f;            // Q = x
      w.qkv_weight.at(p, dim + p) = 1.0f;      // K = x
      w.qkv_weight.at(p, 2 * dim + p) = 1.0f;  // V = x
      w.out_weight.at(p, p) = 1.0f;
    }
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
    Tensor x = RandomUniform({batch, tokens, dim}, -2, 2, &rng);
    std::vector<float> scratch(
        static_cast<size_t>(w.ScratchFloats(batch, tokens)));
    Tensor full({batch, tokens, dim});
    FusedAttentionForward(w, x.data(), batch, tokens, tokens, full.data(),
                          scratch.data());
    for (const int64_t queries : {1, 3, 7}) {
      Tensor fused({batch, queries, dim});
      FusedAttentionForward(w, x.data(), batch, tokens, queries, fused.data(),
                            scratch.data());
      Tensor generic({batch, queries, dim});
      for (int64_t b = 0; b < batch; ++b) {
        const float* seq = x.data() + b * tokens * dim;
        ops::OnlineSoftmaxWeightedSumInto(seq, dim, seq, dim, seq, dim,
                                          generic.data() + b * queries * dim,
                                          dim, queries, tokens, dim, scale);
      }
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t i = 0; i < queries; ++i) {
          for (int64_t c = 0; c < dim; ++c) {
            EXPECT_EQ(fused.at(b, i, c), generic.at(b, i, c))
                << "dim=" << dim << " queries=" << queries << " (" << b
                << ", " << i << ", " << c << ")";
            EXPECT_EQ(fused.at(b, i, c), full.at(b, i, c))
                << "dim=" << dim << " queries=" << queries << " (" << b
                << ", " << i << ", " << c << ")";
          }
        }
      }
    }
  }

  // Trained-looking (random) multi-head weights: the pruned rows are still
  // the full forward's leading rows bit for bit.
  MhsaConfig config;
  config.embed_dim = 12;
  config.num_heads = 3;
  config.head_dim = 4;
  MultiHeadSelfAttention mhsa(config, &rng);
  const FusedAttentionWeights w = PackAttentionWeights(mhsa);
  Tensor x = RandomUniform({batch, tokens, 12}, -1, 1, &rng);
  const Tensor full = FusedAttentionForward(w, x);
  std::vector<float> scratch(
      static_cast<size_t>(w.ScratchFloats(batch, tokens)));
  Tensor pruned({batch, 2, 12});
  FusedAttentionForward(w, x.data(), batch, tokens, 2, pruned.data(),
                        scratch.data());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < 2; ++i) {
      for (int64_t c = 0; c < 12; ++c) {
        EXPECT_EQ(pruned.at(b, i, c), full.at(b, i, c))
            << "(" << b << ", " << i << ", " << c << ")";
      }
    }
  }
}

TEST(FusedAttentionTest, QkvProjectionIsBitwiseThreeLinears) {
  // The packed [e, 3*inner] GEMM must reproduce the three tape Linears
  // bit-for-bit: each output column accumulates independently.
  Rng rng(93);
  MhsaConfig config;
  config.embed_dim = 12;
  config.num_heads = 3;
  config.head_dim = 5;
  MultiHeadSelfAttention mhsa(config, &rng);
  const FusedAttentionWeights w = PackAttentionWeights(mhsa);
  const int64_t inner = w.inner();

  Tensor x = RandomUniform({7, 12}, -1, 1, &rng);
  Tensor qkv({7, 3 * inner});
  ops::GemmBiasActInto(x.data(), w.qkv_weight.data(), w.qkv_bias.data(),
                       qkv.data(), 7, 12, 3 * inner);

  const auto params = mhsa.NamedParameters();
  auto linear = [&](const std::string& name) {
    const Tensor* weight = nullptr;
    const Tensor* bias = nullptr;
    for (const auto& [param_name, variable] : params) {
      if (param_name == name + ".weight") weight = &variable.value();
      if (param_name == name + ".bias") bias = &variable.value();
    }
    HIRE_CHECK(weight != nullptr && bias != nullptr);
    return ops::AddBias(ops::MatMul(x, *weight), *bias);
  };
  const Tensor expected[3] = {linear("query"), linear("key"),
                              linear("value")};
  for (int64_t r = 0; r < 7; ++r) {
    for (int part = 0; part < 3; ++part) {
      for (int64_t c = 0; c < inner; ++c) {
        ASSERT_EQ(qkv.at(r, part * inner + c), expected[part].at(r, c))
            << "row " << r << " part " << part << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace hire
