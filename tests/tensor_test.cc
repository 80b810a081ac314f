#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/ops.h"
#include "tensor/random.h"
#include "utils/check.h"
#include "utils/cost_model.h"
#include "utils/parallel.h"

namespace hire {
namespace {

using ::hire::ops::AllClose;

TEST(TensorTest, DefaultConstructedIsEmpty) {
  Tensor tensor;
  EXPECT_EQ(tensor.dim(), 0);
  EXPECT_EQ(tensor.size(), 0);
  EXPECT_TRUE(tensor.empty());
}

TEST(TensorTest, ShapeConstructorZeroFills) {
  Tensor tensor({2, 3});
  EXPECT_EQ(tensor.dim(), 2);
  EXPECT_EQ(tensor.size(), 6);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    EXPECT_EQ(tensor.flat(i), 0.0f);
  }
}

TEST(TensorTest, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), CheckError);
}

TEST(TensorTest, RejectsNonPositiveDimensions) {
  EXPECT_THROW(Tensor({2, 0}), CheckError);
  EXPECT_THROW(Tensor({-1}), CheckError);
}

TEST(TensorTest, FactoryHelpers) {
  EXPECT_EQ(Tensor::Scalar(3.5f).at(0), 3.5f);
  EXPECT_EQ(Tensor::Ones({4}).at(2), 1.0f);
  EXPECT_EQ(Tensor::Full({2, 2}, -2.0f).at(1, 1), -2.0f);
  Tensor v = Tensor::FromVector({5, 6, 7});
  EXPECT_EQ(v.dim(), 1);
  EXPECT_EQ(v.at(1), 6.0f);
}

TEST(TensorTest, MultiDimAccessors) {
  Tensor tensor({2, 3, 4});
  tensor.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(tensor.at(1, 2, 3), 9.0f);
  EXPECT_EQ(tensor.flat(1 * 12 + 2 * 4 + 3), 9.0f);

  Tensor four({2, 2, 2, 2});
  four.at(1, 0, 1, 0) = 4.0f;
  EXPECT_EQ(four.flat(8 + 0 + 2 + 0), 4.0f);
}

TEST(TensorTest, AccessorsAreBoundsChecked) {
  Tensor tensor({2, 3});
  EXPECT_THROW(tensor.at(2, 0), CheckError);
  EXPECT_THROW(tensor.at(0, 3), CheckError);
  EXPECT_THROW(tensor.at(-1, 0), CheckError);
  EXPECT_THROW(tensor.at(5), CheckError);  // wrong arity
}

TEST(TensorTest, NegativeAxisShape) {
  Tensor tensor({2, 3, 4});
  EXPECT_EQ(tensor.shape(-1), 4);
  EXPECT_EQ(tensor.shape(-3), 2);
  EXPECT_THROW(tensor.shape(3), CheckError);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor tensor({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor reshaped = tensor.Reshape({3, 2});
  EXPECT_EQ(reshaped.at(2, 1), 6.0f);
  EXPECT_EQ(reshaped.at(0, 1), 2.0f);
}

TEST(TensorTest, ReshapeInfersMinusOne) {
  Tensor tensor({2, 6});
  EXPECT_EQ(tensor.Reshape({-1, 4}).shape(0), 3);
  EXPECT_EQ(tensor.Reshape({12, -1}).shape(1), 1);
  EXPECT_THROW(tensor.Reshape({-1, -1}), CheckError);
  EXPECT_THROW(tensor.Reshape({5, -1}), CheckError);
}

TEST(TensorTest, StridesAreRowMajor) {
  Tensor tensor({2, 3, 4});
  const std::vector<int64_t> expected{12, 4, 1};
  EXPECT_EQ(tensor.Strides(), expected);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  b.at(0) = 9;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(OpsTest, ElementwiseBinary) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {4, 3, 2, 1});
  EXPECT_TRUE(AllClose(ops::Add(a, b), Tensor::Full({2, 2}, 5.0f)));
  EXPECT_TRUE(AllClose(ops::Sub(a, b), Tensor({2, 2}, {-3, -1, 1, 3})));
  EXPECT_TRUE(AllClose(ops::Mul(a, b), Tensor({2, 2}, {4, 6, 6, 4})));
  EXPECT_TRUE(AllClose(ops::Div(a, b), Tensor({2, 2}, {0.25f, 2.0f / 3.0f,
                                                       1.5f, 4.0f})));
}

TEST(OpsTest, BinaryShapeMismatchThrows) {
  EXPECT_THROW(ops::Add(Tensor({2}), Tensor({3})), CheckError);
}

TEST(OpsTest, ScalarAndUnary) {
  Tensor a({3}, {-1, 0, 4});
  EXPECT_TRUE(AllClose(ops::AddScalar(a, 1.0f), Tensor({3}, {0, 1, 5})));
  EXPECT_TRUE(AllClose(ops::MulScalar(a, -2.0f), Tensor({3}, {2, 0, -8})));
  EXPECT_TRUE(AllClose(ops::Neg(a), Tensor({3}, {1, 0, -4})));
  EXPECT_TRUE(AllClose(ops::Abs(a), Tensor({3}, {1, 0, 4})));
  EXPECT_TRUE(AllClose(ops::Square(a), Tensor({3}, {1, 0, 16})));
  EXPECT_TRUE(AllClose(ops::Relu(a), Tensor({3}, {0, 0, 4})));
  EXPECT_TRUE(AllClose(ops::Clamp(a, -0.5f, 2.0f),
                       Tensor({3}, {-0.5f, 0.0f, 2.0f})));
}

TEST(OpsTest, TranscendentalFunctions) {
  Tensor a({2}, {0.0f, 1.0f});
  EXPECT_NEAR(ops::Exp(a).at(1), 2.71828f, 1e-4f);
  EXPECT_NEAR(ops::Sigmoid(a).at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(ops::Tanh(a).at(1), 0.76159f, 1e-4f);
  Tensor b({2}, {1.0f, 4.0f});
  EXPECT_NEAR(ops::Sqrt(b).at(1), 2.0f, 1e-6f);
  EXPECT_NEAR(ops::Log(b).at(1), 1.38629f, 1e-4f);
}

TEST(OpsTest, SigmoidIsStableForLargeInputs) {
  Tensor a({2}, {100.0f, -100.0f});
  Tensor s = ops::Sigmoid(a);
  EXPECT_NEAR(s.at(0), 1.0f, 1e-6f);
  EXPECT_NEAR(s.at(1), 0.0f, 1e-6f);
}

TEST(OpsTest, MatMulMatchesHandComputed) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(OpsTest, MatMulShapeMismatchThrows) {
  EXPECT_THROW(ops::MatMul(Tensor({2, 3}), Tensor({2, 3})), CheckError);
}

TEST(OpsTest, MatMulTransposedBMatchesMatMul) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({4, 3}, {1, 0, 2, 3, 1, 0, 0, 2, 1, 1, 1, 1});
  Tensor direct = ops::MatMul(a, ops::TransposeLast2(b));
  EXPECT_TRUE(AllClose(ops::MatMulTransposedB(a, b), direct));
}

TEST(OpsTest, BatchedMatMul) {
  // Two independent 2x2 multiplications.
  Tensor a({2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b({2, 2, 2}, {1, 2, 3, 4, 1, 2, 3, 4});
  Tensor c = ops::BatchedMatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2, 2}, {1, 2, 3, 4, 2, 4, 6, 8})));
}

TEST(OpsTest, BatchedMatMulTransposedB) {
  Tensor a({1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({1, 2, 3}, {1, 0, 0, 0, 1, 0});
  Tensor c = ops::BatchedMatMulTransposedB(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({1, 2, 2}, {1, 2, 4, 5})));
}

TEST(OpsTest, AddBiasBroadcastsOverRows) {
  Tensor x({2, 3}, {1, 1, 1, 2, 2, 2});
  Tensor bias({3}, {10, 20, 30});
  Tensor y = ops::AddBias(x, bias);
  EXPECT_TRUE(AllClose(y, Tensor({2, 3}, {11, 21, 31, 12, 22, 32})));
  // Works for 3-D inputs too.
  Tensor x3 = x.Reshape({1, 2, 3});
  EXPECT_TRUE(AllClose(ops::AddBias(x3, bias),
                       y.Reshape({1, 2, 3})));
}

TEST(OpsTest, PermuteTransposes) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::Permute(a, {1, 0});
  EXPECT_EQ(t.shape(0), 3);
  EXPECT_EQ(t.at(0, 1), 4.0f);
  EXPECT_EQ(t.at(2, 0), 3.0f);
}

TEST(OpsTest, Permute3D) {
  Tensor a({2, 3, 4});
  for (int64_t i = 0; i < a.size(); ++i) a.flat(i) = static_cast<float>(i);
  Tensor p = ops::Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(0), 4);
  EXPECT_EQ(p.shape(1), 2);
  EXPECT_EQ(p.shape(2), 3);
  EXPECT_EQ(p.at(3, 1, 2), a.at(1, 2, 3));
}

TEST(OpsTest, PermuteRoundTripIsIdentity) {
  Tensor a({2, 3, 4});
  for (int64_t i = 0; i < a.size(); ++i) a.flat(i) = static_cast<float>(i);
  Tensor p = ops::Permute(ops::Permute(a, {1, 2, 0}), {2, 0, 1});
  EXPECT_TRUE(AllClose(p, a));
}

TEST(OpsTest, PermuteRejectsBadAxes) {
  Tensor a({2, 3});
  EXPECT_THROW(ops::Permute(a, {0, 0}), CheckError);
  EXPECT_THROW(ops::Permute(a, {0}), CheckError);
  EXPECT_THROW(ops::Permute(a, {0, 2}), CheckError);
}

TEST(OpsTest, ConcatAxis0And1) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({1, 2}, {3, 4});
  EXPECT_TRUE(AllClose(ops::Concat({a, b}, 0),
                       Tensor({2, 2}, {1, 2, 3, 4})));
  EXPECT_TRUE(AllClose(ops::Concat({a, b}, 1),
                       Tensor({1, 4}, {1, 2, 3, 4})));
  EXPECT_TRUE(AllClose(ops::Concat({a, b}, -1),
                       Tensor({1, 4}, {1, 2, 3, 4})));
}

TEST(OpsTest, ConcatValidatesShapes) {
  EXPECT_THROW(ops::Concat({Tensor({1, 2}), Tensor({1, 3})}, 0), CheckError);
  EXPECT_THROW(ops::Concat({}, 0), CheckError);
}

TEST(OpsTest, SliceExtractsBlocks) {
  Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(ops::Slice(a, 0, 1, 2),
                       Tensor({2, 2}, {3, 4, 5, 6})));
  EXPECT_TRUE(AllClose(ops::Slice(a, 1, 1, 1), Tensor({3, 1}, {2, 4, 6})));
  EXPECT_THROW(ops::Slice(a, 0, 2, 2), CheckError);
}

TEST(OpsTest, SliceConcatRoundTrip) {
  Tensor a({4, 3});
  for (int64_t i = 0; i < a.size(); ++i) a.flat(i) = static_cast<float>(i);
  Tensor joined = ops::Concat({ops::Slice(a, 0, 0, 2), ops::Slice(a, 0, 2, 2)},
                              0);
  EXPECT_TRUE(AllClose(joined, a));
}

TEST(OpsTest, Reductions) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(ops::SumAll(a), 21.0f);
  EXPECT_FLOAT_EQ(ops::MeanAll(a), 3.5f);
  EXPECT_FLOAT_EQ(ops::MaxAll(a), 6.0f);
  EXPECT_FLOAT_EQ(ops::MinAll(a), 1.0f);
  EXPECT_TRUE(AllClose(ops::Sum(a, 0), Tensor({3}, {5, 7, 9})));
  EXPECT_TRUE(AllClose(ops::Sum(a, 1), Tensor({2}, {6, 15})));
  EXPECT_TRUE(AllClose(ops::Mean(a, 1), Tensor({2}, {2, 5})));
  EXPECT_TRUE(AllClose(ops::Mean(a, -1), Tensor({2}, {2, 5})));
}

TEST(OpsTest, NormMatchesHandComputed) {
  Tensor a({2}, {3, 4});
  EXPECT_FLOAT_EQ(ops::Norm(a), 5.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a({3, 4});
  for (int64_t i = 0; i < a.size(); ++i) {
    a.flat(i) = static_cast<float>(i % 5) - 2.0f;
  }
  Tensor s = ops::Softmax(a);
  for (int64_t r = 0; r < 3; ++r) {
    float row_sum = 0.0f;
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_GT(s.at(r, c), 0.0f);
      row_sum += s.at(r, c);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor b({1, 3}, {0.0f, 1.0f, 2.0f});
  EXPECT_TRUE(AllClose(ops::Softmax(a), ops::Softmax(b), 1e-6f, 1e-5f));
}

TEST(OpsTest, AllCloseDetectsDifferences) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.5f});
  EXPECT_FALSE(AllClose(a, b));
  EXPECT_FALSE(AllClose(a, Tensor({3})));
  EXPECT_TRUE(AllClose(a, Tensor({2}, {1.0f, 2.0f})));
}

// Parameterized sweep: matmul against a naive reference implementation for
// many shapes.
class MatMulSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSweepTest, MatchesNaiveReference) {
  const auto [n, k, m] = GetParam();
  Tensor a({n, k});
  Tensor b({k, m});
  for (int64_t i = 0; i < a.size(); ++i) {
    a.flat(i) = static_cast<float>((i * 7 % 11)) - 5.0f;
  }
  for (int64_t i = 0; i < b.size(); ++i) {
    b.flat(i) = static_cast<float>((i * 5 % 13)) - 6.0f;
  }
  Tensor c = ops::MatMul(a, b);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      ASSERT_NEAR(c.at(i, j), acc, 1e-3f) << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweepTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(1, 8, 1),
                      std::make_tuple(16, 16, 16), std::make_tuple(7, 13, 3),
                      std::make_tuple(32, 17, 9)));

// ---------------------------------------------------------------------------
// Parallel/blocked kernel consistency. The blocked GEMM and every threaded
// kernel are designed to keep each output element's accumulation order
// identical to the seed scalar loops, so results must be *bitwise* equal to
// a naive reference — serial or threaded, for any shape.
// ---------------------------------------------------------------------------

// Forces the cost model to shard against the requested thread count (the
// planner otherwise clamps to effective cores, which would make these tests
// vacuous on a single-core CI machine), and restores the ambient settings
// after each test.
class ParallelKernelsTest : public ::testing::Test {
 protected:
  ParallelKernelsTest() { SetCostModelForcedParallelForTesting(true); }
  ~ParallelKernelsTest() override {
    SetCostModelForcedParallelForTesting(false);
    SetGlobalThreads(0);
  }
};

// The seed's scalar GEMM (single accumulation chain per element, ascending
// p), without the `a_ip == 0` skip.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.shape(0), b.shape(1)});
  const int64_t n = a.shape(0), k = a.shape(1), m = b.shape(1);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a.at(i, p);
      for (int64_t j = 0; j < m; ++j) {
        c.at(i, j) += a_ip * b.at(p, j);
      }
    }
  }
  return c;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << "flat index " << i;
  }
}

// Odd shapes: 1x1, prime dims, micro-tile/cache-block stragglers, and sizes
// straddling the parallel grain threshold.
const std::vector<std::tuple<int, int, int>> kGemmShapes = {
    {1, 1, 1},    {3, 5, 7},    {4, 16, 16},  {17, 31, 13},
    {64, 64, 64}, {65, 257, 35}, {128, 96, 72}, {61, 259, 67}};

TEST_F(ParallelKernelsTest, BlockedGemmBitwiseMatchesNaive) {
  Rng rng(11);
  for (const auto& [n, k, m] : kGemmShapes) {
    Tensor a = RandomNormal({n, k}, 0, 1, &rng);
    Tensor b = RandomNormal({k, m}, 0, 1, &rng);
    const Tensor expected = NaiveMatMul(a, b);
    SetGlobalThreads(1);
    ExpectBitwiseEqual(ops::MatMul(a, b), expected);
    for (const int threads : {2, 4, 7}) {
      SetGlobalThreads(threads);
      ExpectBitwiseEqual(ops::MatMul(a, b), expected);
    }
  }
}

TEST_F(ParallelKernelsTest, TransposedBGemmBitwiseMatchesNaive) {
  Rng rng(12);
  for (const auto& [n, k, m] : kGemmShapes) {
    Tensor a = RandomNormal({n, k}, 0, 1, &rng);
    Tensor bt = RandomNormal({m, k}, 0, 1, &rng);
    const Tensor expected = NaiveMatMul(a, ops::TransposeLast2(bt));
    SetGlobalThreads(1);
    ExpectBitwiseEqual(ops::MatMulTransposedB(a, bt), expected);
    for (const int threads : {2, 4, 7}) {
      SetGlobalThreads(threads);
      ExpectBitwiseEqual(ops::MatMulTransposedB(a, bt), expected);
    }
  }
}

TEST_F(ParallelKernelsTest, GemmPropagatesNonFinite) {
  // The seed kernel's zero-skip silently dropped 0 * inf terms; the blocked
  // kernel must produce NaN as IEEE demands.
  Tensor a({1, 2}, {0.0f, 1.0f});
  Tensor b({2, 1}, {std::numeric_limits<float>::infinity(), 2.0f});
  const Tensor c = ops::MatMul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
}

TEST_F(ParallelKernelsTest, SerialAndThreadedAgree) {
  Rng rng(13);
  // Straddle the parallel grain thresholds from both sides.
  for (const int64_t rows : {1L, 7L, 64L, 1031L}) {
    Tensor x = RandomNormal({rows, 33}, 0, 2, &rng);
    Tensor y = RandomNormal({rows, 33}, 0, 2, &rng);
    Tensor bias = RandomNormal({33}, 0, 1, &rng);

    SetGlobalThreads(1);
    const Tensor add1 = ops::Add(x, y);
    const Tensor sig1 = ops::Sigmoid(x);
    const Tensor soft1 = ops::Softmax(x);
    const Tensor bias1 = ops::AddBias(x, bias);
    const Tensor sum0_1 = ops::Sum(x, 0);
    const Tensor sum1_1 = ops::Sum(x, 1);

    for (const int threads : {2, 4, 7}) {
      SetGlobalThreads(threads);
      EXPECT_TRUE(AllClose(ops::Sigmoid(x), sig1));
      EXPECT_TRUE(AllClose(ops::AddBias(x, bias), bias1));

      // The sharding preserves per-element operation order, so threaded
      // results are in fact bitwise identical, not merely close.
      ExpectBitwiseEqual(ops::Add(x, y), add1);
      ExpectBitwiseEqual(ops::Softmax(x), soft1);
      ExpectBitwiseEqual(ops::Sum(x, 0), sum0_1);
      ExpectBitwiseEqual(ops::Sum(x, 1), sum1_1);
      ExpectBitwiseEqual(ops::AddBias(x, bias), bias1);
    }
  }
}

TEST_F(ParallelKernelsTest, SumAxis0TiledPathBitwiseStable) {
  // Wide enough that the column-sharded reduction splits into several
  // 256-column tiles per chunk; each column keeps the serial ascending-row
  // accumulation chain regardless of which lane runs it.
  Rng rng(15);
  Tensor x = RandomNormal({2048, 512}, 0, 2, &rng);
  SetGlobalThreads(1);
  const Tensor serial = ops::Sum(x, 0);
  for (const int threads : {2, 4, 7}) {
    SetGlobalThreads(threads);
    ExpectBitwiseEqual(ops::Sum(x, 0), serial);
  }
}

// ---------------------------------------------------------------------------
// Fused inference primitives (GemmBiasAct, OnlineSoftmaxWeightedSum).
// ---------------------------------------------------------------------------

TEST(FusedKernelsTest, GemmBiasActMatchesUnfusedChainBitwise) {
  Rng rng(31);
  for (const auto& [n, k, m] : kGemmShapes) {
    Tensor a = RandomNormal({n, k}, 0, 1, &rng);
    Tensor b = RandomNormal({k, m}, 0, 1, &rng);
    Tensor bias = RandomNormal({m}, 0, 1, &rng);
    ExpectBitwiseEqual(ops::GemmBiasAct(a, b, bias),
                       ops::AddBias(ops::MatMul(a, b), bias));
  }
}

TEST(FusedKernelsTest, GemmBiasActEpilogueMatchesUnfusedActivations) {
  Rng rng(32);
  Tensor a = RandomNormal({9, 24}, 0, 1, &rng);
  Tensor b = RandomNormal({24, 7}, 0, 1, &rng);
  Tensor bias = RandomNormal({7}, 0, 1, &rng);
  const Tensor linear = ops::AddBias(ops::MatMul(a, b), bias);
  ExpectBitwiseEqual(
      ops::GemmBiasAct(a, b, bias, ops::Activation::kSigmoid, 5.0f),
      ops::MulScalar(ops::Sigmoid(linear), 5.0f));
  ExpectBitwiseEqual(ops::GemmBiasAct(a, b, bias, ops::Activation::kRelu),
                     ops::Relu(linear));
}

TEST(FusedKernelsTest, OnlineSoftmaxWeightedSumMatchesSoftmaxMatmul) {
  Rng rng(33);
  for (const auto& [batch, tokens, dim] :
       std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {1, 1, 4}, {2, 5, 3}, {4, 16, 16}, {3, 33, 7}}) {
    Tensor q = RandomNormal({batch, tokens, dim}, 0, 1, &rng);
    Tensor k = RandomNormal({batch, tokens, dim}, 0, 1, &rng);
    Tensor v = RandomNormal({batch, tokens, dim}, 0, 1, &rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
    const Tensor scores =
        ops::MulScalar(ops::BatchedMatMulTransposedB(q, k), scale);
    const Tensor reference = ops::BatchedMatMul(ops::Softmax(scores), v);
    const Tensor fused = ops::OnlineSoftmaxWeightedSum(q, k, v, scale);
    ASSERT_TRUE(fused.SameShape(reference));
    // Only the softmax normalisation is re-associated by the single-pass
    // rescaling; everything else shares the reference rounding chain.
    for (int64_t i = 0; i < fused.size(); ++i) {
      EXPECT_NEAR(fused.flat(i), reference.flat(i), 1e-5f)
          << "flat index " << i;
    }
  }
}

TEST(FusedKernelsTest, OnlineSoftmaxOverwritesStaleOutputMemory) {
  // The output row doubles as the accumulator; stale NaNs in the
  // destination (an arena hands out dirty memory) must not leak in.
  Rng rng(34);
  Tensor q = RandomNormal({1, 3, 4}, 0, 1, &rng);
  Tensor k = RandomNormal({1, 3, 4}, 0, 1, &rng);
  Tensor v = RandomNormal({1, 3, 4}, 0, 1, &rng);
  Tensor out({1, 3, 4});
  out.Fill(std::numeric_limits<float>::quiet_NaN());
  ops::OnlineSoftmaxWeightedSumInto(q.data(), 4, k.data(), 4, v.data(), 4,
                                    out.data(), 4, /*queries=*/3,
                                    /*tokens=*/3, /*head_dim=*/4, 0.5f);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_FALSE(std::isnan(out.flat(i))) << "flat index " << i;
  }
}

TEST_F(ParallelKernelsTest, FusedKernelsSerialVsThreaded) {
  Rng rng(35);
  Tensor a = RandomNormal({65, 48}, 0, 1, &rng);
  Tensor b = RandomNormal({48, 33}, 0, 1, &rng);
  Tensor bias = RandomNormal({33}, 0, 1, &rng);
  Tensor q = RandomNormal({24, 17, 8}, 0, 1, &rng);
  Tensor k = RandomNormal({24, 17, 8}, 0, 1, &rng);
  Tensor v = RandomNormal({24, 17, 8}, 0, 1, &rng);
  SetGlobalThreads(1);
  const Tensor gemm1 = ops::GemmBiasAct(a, b, bias, ops::Activation::kRelu);
  const Tensor attn1 = ops::OnlineSoftmaxWeightedSum(q, k, v, 0.25f);
  for (const int threads : {2, 4, 7}) {
    SetGlobalThreads(threads);
    ExpectBitwiseEqual(ops::GemmBiasAct(a, b, bias, ops::Activation::kRelu),
                       gemm1);
    ExpectBitwiseEqual(ops::OnlineSoftmaxWeightedSum(q, k, v, 0.25f), attn1);
  }
}

TEST_F(ParallelKernelsTest, BatchedMatMulSerialVsThreaded) {
  Rng rng(14);
  for (const int64_t batch : {1L, 3L, 32L}) {
    Tensor a = RandomNormal({batch, 17, 23}, 0, 1, &rng);
    Tensor b = RandomNormal({batch, 23, 19}, 0, 1, &rng);
    Tensor bt = RandomNormal({batch, 19, 23}, 0, 1, &rng);
    SetGlobalThreads(1);
    const Tensor c1 = ops::BatchedMatMul(a, b);
    const Tensor ct1 = ops::BatchedMatMulTransposedB(a, bt);
    for (const int threads : {2, 4, 7}) {
      SetGlobalThreads(threads);
      ExpectBitwiseEqual(ops::BatchedMatMul(a, b), c1);
      ExpectBitwiseEqual(ops::BatchedMatMulTransposedB(a, bt), ct1);
    }
  }
}

}  // namespace
}  // namespace hire
