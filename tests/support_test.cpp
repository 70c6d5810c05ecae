//===- tests/support_test.cpp - support/ unit tests -------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"
#include "support/Format.h"
#include "support/IterVec.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

using namespace dra;

TEST(IterVecTest, LexLessBasic) {
  EXPECT_TRUE(lexLess({0, 0}, {0, 1}));
  EXPECT_TRUE(lexLess({0, 5}, {1, 0}));
  EXPECT_FALSE(lexLess({1, 0}, {0, 5}));
  EXPECT_FALSE(lexLess({2, 3}, {2, 3}));
}

TEST(IterVecTest, LexPositive) {
  EXPECT_TRUE(lexPositive({1, -5}));
  EXPECT_TRUE(lexPositive({0, 0, 2}));
  EXPECT_FALSE(lexPositive({0, 0, 0}));
  EXPECT_FALSE(lexPositive({-1, 100}));
  EXPECT_FALSE(lexPositive({0, -1, 7}));
}

TEST(IterVecTest, ZeroVec) {
  EXPECT_TRUE(isZeroVec({0, 0, 0}));
  EXPECT_FALSE(isZeroVec({0, 1}));
  EXPECT_TRUE(isZeroVec({}));
}

TEST(IterVecTest, VecDiff) {
  EXPECT_EQ(vecDiff({3, 4}, {1, 1}), (IterVec{2, 3}));
  EXPECT_EQ(vecDiff({1, 1}, {3, 4}), (IterVec{-2, -3}));
}

TEST(IterVecTest, ToString) {
  EXPECT_EQ(toString(IterVec{1, -2, 3}), "(1, -2, 3)");
  EXPECT_EQ(toString(IterVec{}), "()");
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
  EXPECT_EQ(fmtDouble(1.0, 0), "1");
  EXPECT_EQ(fmtDouble(-2.5, 1), "-2.5");
}

TEST(FormatTest, FmtPercent) {
  EXPECT_EQ(fmtPercent(0.1817), "18.17%");
  EXPECT_EQ(fmtPercent(0.0), "0.00%");
  EXPECT_EQ(fmtPercent(-0.05), "-5.00%");
}

TEST(FormatTest, FmtPercentOfNonFiniteIsNotApplicable) {
  EXPECT_EQ(fmtPercent(std::nan("")), "n/a");
  EXPECT_EQ(fmtPercent(-std::nan("")), "n/a");
  EXPECT_EQ(fmtPercent(std::numeric_limits<double>::infinity()), "n/a");
  EXPECT_EQ(fmtPercent(-std::numeric_limits<double>::infinity()), "n/a");
}

TEST(FormatTest, FmtGrouped) {
  EXPECT_EQ(fmtGrouped(148526), "148,526");
  EXPECT_EQ(fmtGrouped(0), "0");
  EXPECT_EQ(fmtGrouped(999), "999");
  EXPECT_EQ(fmtGrouped(1000), "1,000");
  EXPECT_EQ(fmtGrouped(-1234567), "-1,234,567");
}

TEST(FormatTest, TextTableRendersAlignedColumns) {
  TextTable T({"Name", "Value"});
  T.addRow({"AST", "42"});
  T.addRow({"Cholesky", "7"});
  std::string S = T.render();
  EXPECT_NE(S.find("Name"), std::string::npos);
  EXPECT_NE(S.find("Cholesky"), std::string::npos);
  // Columns are padded: "AST" row must align "42" under "Value".
  size_t HeaderVal = S.find("Value");
  size_t Row1Val = S.find("42");
  ASSERT_NE(HeaderVal, std::string::npos);
  ASSERT_NE(Row1Val, std::string::npos);
  size_t HeaderCol = HeaderVal - S.rfind('\n', HeaderVal) - 1;
  size_t RowCol = Row1Val - S.rfind('\n', Row1Val) - 1;
  EXPECT_EQ(HeaderCol, RowCol);
}

TEST(FormatTest, ParseUnsignedAcceptsStrictDecimal) {
  unsigned V = 99;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("4096", V, 1, 4096));
  EXPECT_EQ(V, 4096u);
  EXPECT_TRUE(parseUnsigned("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
}

TEST(FormatTest, ParseUnsignedRejectsJunkAndRange) {
  unsigned V = 99;
  EXPECT_FALSE(parseUnsigned("", V));
  EXPECT_FALSE(parseUnsigned("-1", V));
  EXPECT_FALSE(parseUnsigned("+1", V));
  EXPECT_FALSE(parseUnsigned("12x", V));
  EXPECT_FALSE(parseUnsigned(" 12", V));
  EXPECT_FALSE(parseUnsigned("1.5", V));
  EXPECT_FALSE(parseUnsigned("0", V, 1, 8));    // below Min
  EXPECT_FALSE(parseUnsigned("9", V, 1, 8));    // above Max
  EXPECT_FALSE(parseUnsigned("4294967296", V)); // overflows unsigned
  EXPECT_FALSE(parseUnsigned("99999999999999999999", V));
  EXPECT_EQ(V, 99u) << "Out must be untouched on failure";
}

TEST(RunningStatsTest, Empty) {
  RunningStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats S;
  S.addSample(42.0);
  EXPECT_DOUBLE_EQ(S.mean(), 42.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(RunningStatsTest, WelfordVarianceMatchesClosedForm) {
  RunningStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.addSample(X);
  // Classic textbook data set: population variance 4, stddev 2.
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.variance(), 4.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 2.0);
}

TEST(RunningStatsTest, WelfordIsStableAroundLargeOffsets) {
  // Naive sum-of-squares cancels catastrophically here; Welford does not.
  RunningStats S;
  double Offset = 1e9;
  for (double X : {Offset + 4.0, Offset + 7.0, Offset + 13.0, Offset + 16.0})
    S.addSample(X);
  EXPECT_NEAR(S.variance(), 22.5, 1e-6);
}

TEST(RunningStatsTest, Accumulates) {
  RunningStats S;
  S.addSample(1.0);
  S.addSample(3.0);
  S.addSample(2.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.sum(), 6.0);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
}

TEST(DurationHistogramTest, CountsAndDurations) {
  DurationHistogram H(1.0, 2.0, 4);
  H.addSample(0.5);  // below first edge -> bucket 0
  H.addSample(1.5);  // [1,2)
  H.addSample(3.0);  // [2,4)
  H.addSample(100.0); // overflow
  EXPECT_EQ(H.totalCount(), 4u);
  EXPECT_DOUBLE_EQ(H.totalDuration(), 105.0);
}

TEST(DurationHistogramTest, BucketAccessorsExposeEdgesAndSums) {
  DurationHistogram H(1.0, 2.0, 3); // buckets [0,2) [2,4) [4,8) [8,inf)
  EXPECT_EQ(H.numBuckets(), 4u);
  EXPECT_DOUBLE_EQ(H.bucketLowerEdge(0), 0.0);
  EXPECT_DOUBLE_EQ(H.bucketUpperEdge(0), 2.0);
  EXPECT_DOUBLE_EQ(H.bucketLowerEdge(2), 4.0);
  EXPECT_DOUBLE_EQ(H.bucketUpperEdge(2), 8.0);
  EXPECT_DOUBLE_EQ(H.bucketLowerEdge(3), 8.0);
  EXPECT_TRUE(std::isinf(H.bucketUpperEdge(3)));
  H.addSample(0.5);
  H.addSample(1.0);
  H.addSample(5.0);
  H.addSample(20.0);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_DOUBLE_EQ(H.bucketDuration(0), 1.5);
  EXPECT_EQ(H.bucketCount(1), 0u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_DOUBLE_EQ(H.bucketDuration(3), 20.0);
}

TEST(DurationHistogramTest, FractionIsComputedFromBucketSums) {
  // Bounded memory: the histogram keeps only per-bucket counts and sums,
  // so the threshold fraction is bucket-granular. A bucket whose lower
  // edge clears the threshold counts in full; the straddling bucket counts
  // iff its mean sample does.
  DurationHistogram H(1.0, 2.0, 4); // edges 1 2 4 8 16
  H.addSample(3.0);                 // [2,4), mean 3
  H.addSample(3.5);                 // [2,4)
  H.addSample(10.0);                // [8,16)
  // Threshold inside [2,4): bucket mean 3.25 >= 3.0, so both short samples
  // count along with the long one.
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(3.0), 1.0);
  // Threshold 3.6 > mean 3.25: the whole [2,4) bucket drops out.
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(3.6),
                   10.0 / 16.5);
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(0.0), 1.0);
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(100.0), 0.0);
}

TEST(DurationHistogramTest, FractionOfTimeInLongPeriods) {
  DurationHistogram H;
  H.addSample(10.0);
  H.addSample(30.0);
  // 30 of 40 seconds live in periods >= 15.2 s.
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(15.2), 0.75);
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(5.0), 1.0);
  EXPECT_DOUBLE_EQ(H.fractionOfTimeInPeriodsAtLeast(31.0), 0.0);
}

TEST(DurationHistogramTest, PercentilesInterpolateWithinBuckets) {
  DurationHistogram H(1.0, 2.0, 4); // edges 1 2 4 8 16
  EXPECT_DOUBLE_EQ(H.percentile(0.5), 0.0); // empty
  for (int I = 0; I != 10; ++I)
    H.addSample(3.0); // all ten samples in [2,4)
  // Every quantile lands in the one occupied bucket, linearly interpolated
  // between its edges: p50 crosses at half the bucket's count span.
  EXPECT_GE(H.percentile(0.5), 2.0);
  EXPECT_LE(H.percentile(0.5), 4.0);
  EXPECT_LE(H.percentile(0.1), H.percentile(0.9));
  // Extremes pin to the bucket edges.
  EXPECT_DOUBLE_EQ(H.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(H.percentile(1.0), 4.0);
}

TEST(DurationHistogramTest, PercentileSpansBucketsAndOverflow) {
  DurationHistogram H(1.0, 2.0, 2); // buckets [0,2) [2,4) [4,inf)
  H.addSample(1.0);
  H.addSample(3.0);
  H.addSample(100.0);
  H.addSample(100.0);
  // Cumulative counts 1, 2, 4: the median sits at the [2,4) boundary
  // region and high quantiles land in the overflow bucket, which reports
  // its mean sample (100) rather than an infinite edge.
  EXPECT_LE(H.percentile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(H.percentile(0.99), 100.0);
  // Monotone in Q.
  double Last = 0.0;
  for (double Q : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    EXPECT_GE(H.percentile(Q) + 1e-12, Last);
    Last = H.percentile(Q);
  }
}

TEST(DurationHistogramTest, MergeAddsCountsAndDurations) {
  DurationHistogram A(1.0, 2.0, 4), B(1.0, 2.0, 4);
  A.addSample(1.5);
  A.addSample(3.0);
  B.addSample(3.5);
  B.addSample(100.0);
  A.merge(B);
  EXPECT_EQ(A.totalCount(), 4u);
  EXPECT_DOUBLE_EQ(A.totalDuration(), 108.0);
  // Merged percentiles behave like a histogram built from all samples.
  DurationHistogram All(1.0, 2.0, 4);
  for (double S : {1.5, 3.0, 3.5, 100.0})
    All.addSample(S);
  for (double Q : {0.25, 0.5, 0.75, 0.95})
    EXPECT_DOUBLE_EQ(A.percentile(Q), All.percentile(Q));
}

TEST(DurationHistogramTest, RenderMentionsEveryBucket) {
  DurationHistogram H(1e-3, 4.0, 3);
  H.addSample(0.5);
  std::string S = H.render();
  EXPECT_NE(S.find(">="), std::string::npos);
  EXPECT_NE(S.find("periods"), std::string::npos);
}

namespace {

/// A fresh, empty scratch directory per test, removed afterwards.
class FileIOTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::temp_directory_path() /
          (std::string("dra-fileio-") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }
  std::string path(const char *Name) const { return (Dir / Name).string(); }

  std::filesystem::path Dir;
};

} // namespace

TEST_F(FileIOTest, MissingFileIsNotReadAndMissingDirIsNotCreated) {
  EXPECT_FALSE(readFile(path("absent.json")).has_value());
  WriteResult R = writeFile(path("no-such-dir/out.json"), "x");
  EXPECT_FALSE(R.Opened);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(bool(R));
}

TEST_F(FileIOTest, DirectoryIsNeitherReadNorWritten) {
  // fopen accepts a directory for reading; the read itself must fail.
  EXPECT_FALSE(readFile(Dir.string()).has_value());
  WriteResult R = writeFile(Dir.string(), "x");
  EXPECT_FALSE(R.Opened);
  EXPECT_FALSE(bool(R));
}

TEST_F(FileIOTest, ShortWriteIsAFailure) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  // /dev/full opens fine and refuses every byte (ENOSPC), so the failure
  // surfaces on the write or on the flush inside fclose.
  WriteResult R = writeFile("/dev/full", std::string(1 << 16, 'x'));
  EXPECT_TRUE(R.Opened);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(bool(R));
}

TEST_F(FileIOTest, RoundTripKeepsEveryByteAndTruncates) {
  const char Raw[] = "line one\n\0binary\r\n\xff";
  std::string Data(Raw, sizeof(Raw) - 1);
  Data += std::string(10000, 'z'); // Spans several read buffers.
  ASSERT_TRUE(bool(writeFile(path("doc.bin"), Data)));
  std::optional<std::string> Back = readFile(path("doc.bin"));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Data);

  WriteResult R = writeFile(path("doc.bin"), "short");
  EXPECT_TRUE(R.Opened && R.Ok);
  EXPECT_EQ(readFile(path("doc.bin")), std::optional<std::string>("short"));

  ASSERT_TRUE(bool(writeFile(path("empty.txt"), "")));
  EXPECT_EQ(readFile(path("empty.txt")), std::optional<std::string>(""));
}
