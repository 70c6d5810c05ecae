//===- tests/affine_test.cpp - ir/AffineExpr unit tests ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/AffineExpr.h"
#include "ir/AffineRange.h"

#include <gtest/gtest.h>

using namespace dra;

TEST(AffineExprTest, ConstantExpr) {
  AffineExpr E = AffineExpr::constant(7);
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constTerm(), 7);
  EXPECT_EQ(E.evaluate(IterVec{1, 2, 3}), 7);
  EXPECT_EQ(E.evaluate({}), 7);
}

TEST(AffineExprTest, SingleVar) {
  AffineExpr E = AffineExpr::var(1, 2, -3); // 2*i1 - 3
  EXPECT_FALSE(E.isConstant());
  EXPECT_EQ(E.coeff(0), 0);
  EXPECT_EQ(E.coeff(1), 2);
  EXPECT_EQ(E.coeff(5), 0);
  EXPECT_EQ(E.evaluate(IterVec{10, 4}), 5);
}

TEST(AffineExprTest, Addition) {
  AffineExpr E = iv(0) + iv(1) * 3 + 5; // i0 + 3*i1 + 5
  EXPECT_EQ(E.coeff(0), 1);
  EXPECT_EQ(E.coeff(1), 3);
  EXPECT_EQ(E.constTerm(), 5);
  EXPECT_EQ(E.evaluate(IterVec{2, 3}), 16);
}

TEST(AffineExprTest, Subtraction) {
  AffineExpr E = iv(0) - iv(0); // cancels to 0
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constTerm(), 0);

  AffineExpr F = iv(1) - 4;
  EXPECT_EQ(F.evaluate(IterVec{0, 10}), 6);
}

TEST(AffineExprTest, ScalingTrimsZeroCoeffs) {
  AffineExpr E = iv(2) * 0;
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.numCoeffs(), 0u);
}

TEST(AffineExprTest, Equality) {
  EXPECT_EQ(iv(0) + 1, AffineExpr::var(0, 1, 1));
  EXPECT_FALSE(iv(0) == iv(1));
  EXPECT_FALSE(iv(0) + 1 == iv(0));
  // Trailing zero coefficients must not break equality.
  EXPECT_EQ(iv(0) + (iv(1) - iv(1)), iv(0));
}

TEST(AffineExprTest, ToString) {
  EXPECT_EQ(AffineExpr::constant(4).toString(), "4");
  EXPECT_EQ(iv(0).toString(), "i0");
  EXPECT_EQ((iv(0) * 2 + iv(2) - 3).toString(), "2*i0 + i2 - 3");
  EXPECT_EQ((iv(1) * -1).toString(), "-i1");
  EXPECT_EQ(AffineExpr::constant(0).toString(), "0");
}

TEST(AffineExprTest, EvaluateLongerIterVecThanCoeffs) {
  AffineExpr E = iv(0);
  EXPECT_EQ(E.evaluate(IterVec{5, 100, 200}), 5);
}

// Parameterized sweep: evaluate must be linear in each variable.
class AffineLinearity : public ::testing::TestWithParam<int64_t> {};

TEST_P(AffineLinearity, LinearInEachVar) {
  int64_t K = GetParam();
  AffineExpr E = iv(0) * 3 + iv(1) * -2 + 7;
  IterVec Base{K, K + 1};
  int64_t V0 = E.evaluate(Base);
  IterVec BumpI0{K + 1, K + 1};
  IterVec BumpI1{K, K + 2};
  EXPECT_EQ(E.evaluate(BumpI0) - V0, 3);
  EXPECT_EQ(E.evaluate(BumpI1) - V0, -2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AffineLinearity,
                         ::testing::Values(-10, -1, 0, 1, 5, 1000));

//===----------------------------------------------------------------------===//
// Simplification edge cases (the inverted-interval regression)
//===----------------------------------------------------------------------===//

TEST(AffineExprTest, MultiplicationByZeroConstantFolds) {
  AffineExpr E = (iv(0) * 3 + iv(2) - 7) * 0;
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constTerm(), 0);
  EXPECT_EQ(E.numCoeffs(), 0u);
  EXPECT_TRUE(E == AffineExpr::constant(0));
}

TEST(AffineExprTest, VarWithZeroCoefficientIsConstant) {
  AffineExpr E = AffineExpr::var(3, 0, 9);
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constTerm(), 9);
  EXPECT_EQ(E.numCoeffs(), 0u);
}

TEST(AffineRangeTest, ScaledByNegativeSwapsEndpoints) {
  AffineRange R{2, 5};
  AffineRange S = R.scaled(-3);
  EXPECT_FALSE(S.isEmpty()) << "negative scaling must not invert the range";
  EXPECT_EQ(S.Lo, -15);
  EXPECT_EQ(S.Hi, -6);
  EXPECT_EQ(R.scaled(0), AffineRange::point(0));
  EXPECT_EQ(R.scaled(1), R);
  EXPECT_TRUE(AffineRange::empty().scaled(-2).isEmpty());
}

TEST(AffineRangeTest, RangePropagationNeverInverts) {
  // i0 in [0, 9], i1 in [2, 4]: 3 - 2*i0 + i1 spans [3-18+2, 3-0+4].
  std::vector<AffineRange> Ivs{{0, 9}, {2, 4}};
  AffineExpr E = iv(0) * -2 + iv(1) + 3;
  AffineRange R = rangeOf(E, Ivs);
  EXPECT_LE(R.Lo, R.Hi);
  EXPECT_EQ(R.Lo, -13);
  EXPECT_EQ(R.Hi, 7);
  // A zero-scaled term contributes nothing (the constant-fold regression).
  EXPECT_EQ(rangeOf(E * 0, Ivs), AffineRange::point(0));
  // Empty iv range propagates to an empty result, not an inverted one.
  EXPECT_TRUE(rangeOf(E, {{0, 9}, AffineRange::empty()}).isEmpty());
}

TEST(StridedRangeTest, NegativeStepRebasesAtSmallestElement) {
  // 10, 7, 4, 1 descending == {1 + 3k : k < 4} ascending.
  StridedRange R = StridedRange::make(10, -3, 4);
  EXPECT_EQ(R.Base, 1);
  EXPECT_EQ(R.Stride, 3u);
  EXPECT_EQ(R.Count, 4u);
  EXPECT_EQ(R.last(), 10);
  EXPECT_TRUE(R.contains(7));
  EXPECT_FALSE(R.contains(2));
  // Canonicalization: step 0 and count 1 collapse to a point.
  EXPECT_EQ(StridedRange::make(5, 0, 3), StridedRange::make(5, 1, 1));
  EXPECT_EQ(StridedRange::make(5, -9, 1).Stride, 1u);
  EXPECT_TRUE(StridedRange::make(5, 2, 0).isEmpty());
}

TEST(StridedRangeTest, IntersectionViaCrt) {
  // {0,3,6,...,30} and {2,7,12,...,47}: lcm 15, first common value 12.
  StridedRange A = StridedRange::make(0, 3, 11);
  StridedRange B = StridedRange::make(2, 5, 10);
  StridedRange X = intersect(A, B);
  EXPECT_EQ(X, StridedRange::make(12, 15, 2)); // 12, 27
  // Incompatible residues: empty.
  EXPECT_TRUE(intersect(StridedRange::make(0, 2, 50),
                        StridedRange::make(1, 4, 50))
                  .isEmpty());
  // Disjoint hulls: empty even with compatible residues.
  EXPECT_TRUE(intersect(StridedRange::make(0, 2, 3),
                        StridedRange::make(100, 2, 3))
                  .isEmpty());
  // Identical ranges intersect to themselves.
  EXPECT_EQ(intersect(A, A), A);
  // Point vs range.
  EXPECT_EQ(intersect(StridedRange::make(6, 1, 1), A),
            StridedRange::make(6, 1, 1));
}
