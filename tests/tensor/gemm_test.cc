#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "common/rng.h"

namespace saffire {
namespace {

Int8Tensor RandomInt8(Rng& rng, std::int64_t rows, std::int64_t cols) {
  Int8Tensor t({rows, cols});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
  }
  return t;
}

TEST(GemmRefTest, TwoByTwoKnownAnswer) {
  const auto a = Int8Tensor::FromRows({{1, 2}, {3, 4}});
  const auto b = Int8Tensor::FromRows({{5, 6}, {7, 8}});
  const auto c = GemmRef(a, b);
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(GemmRefTest, IdentityIsNeutral) {
  Rng rng(1);
  const auto a = RandomInt8(rng, 5, 5);
  auto eye = Int8Tensor({5, 5});
  for (std::int64_t i = 0; i < 5; ++i) eye(i, i) = 1;
  EXPECT_EQ(GemmRef(a, eye), a.Cast<std::int32_t>());
  EXPECT_EQ(GemmRef(eye, a), a.Cast<std::int32_t>());
}

TEST(GemmRefTest, AllOnesCountsInnerDimension) {
  // The paper's pattern-extraction workload: all-ones operands make every
  // output equal K (Challenge 2, Sec. III-A).
  const auto a = Int8Tensor::Full({4, 7}, 1);
  const auto b = Int8Tensor::Full({7, 3}, 1);
  const auto c = GemmRef(a, b);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.flat(i), 7);
  }
}

TEST(GemmRefTest, RejectsMismatchedShapes) {
  const auto a = Int8Tensor({2, 3});
  const auto b = Int8Tensor({4, 2});
  EXPECT_THROW(GemmRef(a, b), std::invalid_argument);
}

TEST(GemmRefTest, RejectsNonMatrix) {
  const auto a = Int8Tensor({2, 3, 4});
  const auto b = Int8Tensor({4, 2});
  EXPECT_THROW(GemmRef(a, b), std::invalid_argument);
}

TEST(GemmRefTest, ExtremeOperandValuesDoNotOverflowInt32) {
  // 16 accumulations of (-128 × -128) stay well inside int32.
  const auto a = Int8Tensor::Full({1, 16}, -128);
  const auto b = Int8Tensor::Full({16, 1}, -128);
  const auto c = GemmRef(a, b);
  EXPECT_EQ(c(0, 0), 16 * 128 * 128);
}

TEST(GemmRefTest, Int32AccumulationWrapsLikeTheArray) {
  // 131,073 products of 128·128 sum to 2^31 + 2^14, one past what an int32
  // holds; the result wraps mod 2^32 as the array's 32-bit accumulator
  // does, instead of overflowing a signed sum.
  constexpr std::int64_t kLongK = 131'073;
  const auto a = Int8Tensor::Full({1, kLongK}, -128);
  const auto b = Int8Tensor::Full({kLongK, 1}, -128);
  EXPECT_EQ(GemmRef(a, b)(0, 0),
            std::numeric_limits<std::int32_t>::min() + 16'384);
}

// The i-j-p dot-product loop GemmRef must stay bit-identical to: every
// C(i, j) starts from its prior value and adds its products in ascending p.
template <typename In, typename Acc>
void NaiveGemmInto(const Tensor<In>& a, const Tensor<In>& b, Tensor<Acc>& c) {
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(1); ++j) {
      Acc acc = c(i, j);
      for (std::int64_t p = 0; p < a.dim(1); ++p) {
        acc += static_cast<Acc>(a(i, p)) * static_cast<Acc>(b(p, j));
      }
      c(i, j) = acc;
    }
  }
}

FloatTensor RandomFloat(Rng& rng, std::int64_t rows, std::int64_t cols) {
  FloatTensor t({rows, cols});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    // Mixed magnitudes make float sums order-sensitive.
    const int exponent = static_cast<int>(rng.UniformInt(-8, 8));
    t.flat(i) = static_cast<float>(std::ldexp(rng.Normal(0.0, 1.0), exponent));
  }
  return t;
}

template <typename T>
bool SameBytes(const Tensor<T>& x, const Tensor<T>& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size_bytes()) == 0;
}

TEST(GemmRefTest, MatchesNaiveOracleOnRandomShapes) {
  Rng rng(1234);
  bool unit_dim[3] = {false, false, false};
  for (int iteration = 0; iteration < 150; ++iteration) {
    // A quarter of the draws pin a dimension to 1.
    const auto draw = [&rng] {
      return rng.UniformInt(0, 3) == 0 ? std::int64_t{1}
                                        : rng.UniformInt(1, 70);
    };
    const std::int64_t m = draw();
    const std::int64_t k = draw();
    const std::int64_t n = draw();
    unit_dim[0] |= m == 1;
    unit_dim[1] |= k == 1;
    unit_dim[2] |= n == 1;
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration << ": "
                                      << m << "x" << k << "x" << n);

    const auto a = RandomInt8(rng, m, k);
    const auto b = RandomInt8(rng, k, n);
    Int32Tensor expected({m, n});
    NaiveGemmInto(a, b, expected);
    EXPECT_EQ(GemmRef(a, b), expected);

    // Prior values far from the int32 limits, so the naive signed sum
    // cannot overflow.
    Int32Tensor prior({m, n});
    for (std::int64_t i = 0; i < prior.size(); ++i) {
      prior.flat(i) = static_cast<std::int32_t>(
          rng.UniformInt(-1'000'000'000, 1'000'000'000));
    }
    Int32Tensor accumulated = prior;
    GemmAccumulateRef(a, b, accumulated);
    NaiveGemmInto(a, b, prior);
    EXPECT_EQ(accumulated, prior);

    const auto fa = RandomFloat(rng, m, k);
    const auto fb = RandomFloat(rng, k, n);
    FloatTensor fexpected({m, n});
    NaiveGemmInto(fa, fb, fexpected);
    EXPECT_TRUE(SameBytes(GemmRef(fa, fb), fexpected));
  }
  EXPECT_TRUE(unit_dim[0] && unit_dim[1] && unit_dim[2]);
}

// GemmDeltaRef against a full GemmRef, byte for byte: `a` is golden_a with
// `changed` of its elements redrawn (0 = none, a.size() = all).
void ExpectDeltaMatchesFull(Rng& rng, const Int8Tensor& golden_a,
                            const Int8Tensor& b, std::int64_t changed) {
  Int8Tensor a = golden_a;
  for (const std::int64_t index :
       rng.SampleWithoutReplacement(a.size(), changed)) {
    a.flat(index) = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
  }
  const Int32Tensor golden_c = GemmRef(golden_a, b);
  // A copy of the weights: GemmDeltaRef needs them equal, not the same
  // object.
  const Int8Tensor b_copy = b;
  EXPECT_TRUE(SameBytes(GemmDeltaRef(a, golden_a, b_copy, golden_c),
                        GemmRef(a, b)))
      << changed << " of " << a.size() << " input elements changed";
}

TEST(GemmDeltaRefTest, MatchesGemmRefOnZeroSparseAndDenseDeltas) {
  Rng rng(2027);
  for (int iteration = 0; iteration < 120; ++iteration) {
    const auto draw = [&rng] {
      return rng.UniformInt(0, 3) == 0 ? std::int64_t{1}
                                        : rng.UniformInt(1, 40);
    };
    const std::int64_t m = draw();
    const std::int64_t k = draw();
    const std::int64_t n = draw();
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration << ": "
                                      << m << "x" << k << "x" << n);
    const auto golden_a = RandomInt8(rng, m, k);
    const auto b = RandomInt8(rng, k, n);
    const std::int64_t size = m * k;
    ExpectDeltaMatchesFull(rng, golden_a, b, 0);
    ExpectDeltaMatchesFull(rng, golden_a, b, 1);
    ExpectDeltaMatchesFull(rng, golden_a, b, rng.UniformInt(1, size));
    ExpectDeltaMatchesFull(rng, golden_a, b, size);
  }
}

TEST(GemmDeltaRefTest, WrapsModTwoToTheThirtyTwoLikeGemmRef) {
  // Both the golden product and the faulty one wrap: a long K of extreme
  // operands, with deltas of up to ±255 that move sums across the int32
  // limits in both directions.
  constexpr std::int64_t kLongK = 131'073;
  Rng rng(9);
  const auto golden_a = Int8Tensor::Full({2, kLongK}, -128);
  auto b = Int8Tensor::Full({kLongK, 3}, -128);
  b(5, 1) = 127;
  ExpectDeltaMatchesFull(rng, golden_a, b, 0);
  ExpectDeltaMatchesFull(rng, golden_a, b, 17);
  ExpectDeltaMatchesFull(rng, golden_a, b, kLongK);

  // A golden product far from the limits whose faulty product wraps.
  Int8Tensor zeros({1, kLongK});
  const auto a = Int8Tensor::Full({1, kLongK}, -128);
  const Int32Tensor delta = GemmDeltaRef(a, zeros, b, GemmRef(zeros, b));
  EXPECT_TRUE(SameBytes(delta, GemmRef(a, b)));
  EXPECT_EQ(delta(0, 0), std::numeric_limits<std::int32_t>::min() + 16'384);
}

TEST(GemmDeltaRefTest, RejectsShapeMismatches) {
  const Int8Tensor a({2, 3});
  const Int8Tensor b({3, 4});
  const Int32Tensor c({2, 4});
  EXPECT_NO_THROW(GemmDeltaRef(a, a, b, c));
  EXPECT_THROW(GemmDeltaRef(a, Int8Tensor({3, 2}), b, c),
               std::invalid_argument);
  EXPECT_THROW(GemmDeltaRef(a, Int8Tensor({2, 3, 1}), b, c),
               std::invalid_argument);
  EXPECT_THROW(GemmDeltaRef(a, a, Int8Tensor({4, 4}), c),
               std::invalid_argument);
  EXPECT_THROW(GemmDeltaRef(a, a, b, Int32Tensor({2, 5})),
               std::invalid_argument);
  EXPECT_THROW(GemmDeltaRef(a, a, b, Int32Tensor({3, 4})),
               std::invalid_argument);
  EXPECT_THROW(GemmDeltaRef(Int8Tensor({2, 3, 1}), Int8Tensor({2, 3, 1}), b,
                            c),
               std::invalid_argument);
}

TEST(GemmAccumulateRefTest, AddsIntoExisting) {
  const auto a = Int8Tensor::FromRows({{1, 1}});
  const auto b = Int8Tensor::FromRows({{2}, {3}});
  auto c = Int32Tensor::FromRows({{100}});
  GemmAccumulateRef(a, b, c);
  EXPECT_EQ(c(0, 0), 105);
  GemmAccumulateRef(a, b, c);
  EXPECT_EQ(c(0, 0), 110);
}

TEST(GemmAccumulateRefTest, RejectsWrongOutputShape) {
  const auto a = Int8Tensor({2, 2});
  const auto b = Int8Tensor({2, 2});
  auto c = Int32Tensor({2, 3});
  EXPECT_THROW(GemmAccumulateRef(a, b, c), std::invalid_argument);
}

TEST(GemmRefTest, FloatVariantMatchesManual) {
  const auto a = FloatTensor::FromRows({{0.5f, 1.5f}});
  const auto b = FloatTensor::FromRows({{2.0f}, {4.0f}});
  const auto c = GemmRef(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 7.0f);
}

// Property: GEMM distributes over K-splits — A·B == A1·B1 + A2·B2 where
// A = [A1 | A2], B = [B1 ; B2]. This is the algebraic identity tiling
// relies on (Eq. 4 in the paper).
class GemmSplitPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmSplitPropertyTest, KSplitAccumulates) {
  const auto [m, k, n, split] = GetParam();
  if (split >= k) GTEST_SKIP() << "split outside K";
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n * 10 + split));
  const auto a = RandomInt8(rng, m, k);
  const auto b = RandomInt8(rng, k, n);
  const auto full = GemmRef(a, b);

  Int8Tensor a1({m, split});
  Int8Tensor a2({m, k - split});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      if (j < split) {
        a1(i, j) = a(i, j);
      } else {
        a2(i, j - split) = a(i, j);
      }
    }
  }
  Int8Tensor b1({split, n});
  Int8Tensor b2({k - split, n});
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (i < split) {
        b1(i, j) = b(i, j);
      } else {
        b2(i - split, j) = b(i, j);
      }
    }
  }
  Int32Tensor sum({m, n});
  GemmAccumulateRef(a1, b1, sum);
  GemmAccumulateRef(a2, b2, sum);
  EXPECT_EQ(sum, full);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSplitPropertyTest,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Values(2, 5, 16),
                       ::testing::Values(1, 4, 9), ::testing::Values(1, 3)));

}  // namespace
}  // namespace saffire
