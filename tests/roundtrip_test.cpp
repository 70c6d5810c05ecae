//===- tests/roundtrip_test.cpp - source printer round-trips -----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// printProgramAsSource must emit text the parser accepts, and the parsed
// program must be behaviourally identical: same iteration spaces, same
// touched tiles per iteration, same compute estimates. Verified over the
// six paper applications and random programs.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Report.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

/// Behavioural equivalence of two programs.
void expectSamePrograms(const Program &A, const Program &B) {
  ASSERT_EQ(A.arrays().size(), B.arrays().size());
  for (size_t I = 0; I != A.arrays().size(); ++I) {
    EXPECT_EQ(A.arrays()[I].Name, B.arrays()[I].Name);
    EXPECT_EQ(A.arrays()[I].DimsInTiles, B.arrays()[I].DimsInTiles);
  }
  ASSERT_EQ(A.nests().size(), B.nests().size());
  IterationSpace SA(A), SB(B);
  ASSERT_EQ(SA.size(), SB.size());
  for (GlobalIter G = 0; G != SA.size(); ++G) {
    ASSERT_EQ(SA.nestOf(G), SB.nestOf(G));
    ASSERT_EQ(toIterVec(SA.iterOf(G)), toIterVec(SB.iterOf(G)));
    auto TA = A.touchedTiles(SA.nestOf(G), SA.iterOf(G));
    auto TB = B.touchedTiles(SB.nestOf(G), SB.iterOf(G));
    ASSERT_EQ(TA.size(), TB.size());
    for (size_t K = 0; K != TA.size(); ++K) {
      EXPECT_TRUE(TA[K].Tile == TB[K].Tile);
      EXPECT_EQ(TA[K].Kind, TB[K].Kind);
    }
  }
  for (NestId N = 0; N != A.nests().size(); ++N)
    EXPECT_DOUBLE_EQ(A.nest(N).computePerIterMs(), B.nest(N).computePerIterMs());
}

} // namespace

class AppRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(AppRoundTrip, PrintParseIsIdentity) {
  auto Apps = paperApps(0.1);
  const AppUnderTest &App = Apps[size_t(GetParam())];
  Program P = App.Build();
  std::string Src = printProgramAsSource(P);
  std::string Error;
  auto Q = Parser::parse(Src, Error);
  ASSERT_TRUE(Q.has_value()) << App.Name << ": " << Error << "\n" << Src;
  expectSamePrograms(P, *Q);
}

INSTANTIATE_TEST_SUITE_P(AllSixApps, AppRoundTrip, ::testing::Range(0, 6));

TEST(SourcePrinterTest, EmitsParsableKeywords) {
  Program P = makeFft(0.05);
  std::string Src = printProgramAsSource(P);
  EXPECT_EQ(Src.rfind("program FFT", 0), 0u);
  EXPECT_NE(Src.find("array D"), std::string::npos);
  EXPECT_NE(Src.find("nest transpose compute"), std::string::npos);
  EXPECT_NE(Src.find(".."), std::string::npos);
}

TEST(SourcePrinterTest, TriangularBoundsSurvive) {
  Program P = makeCholesky(0.05);
  std::string Error;
  auto Q = Parser::parse(printProgramAsSource(P), Error);
  ASSERT_TRUE(Q.has_value()) << Error;
  // The triangular inner loop (i1 <= i0) survives the trip.
  EXPECT_EQ(Q->nest(0).numIterations(), P.nest(0).numIterations());
}

TEST(ReportTest, CsvHasHeaderAndAllRows) {
  PipelineConfig Cfg = paperConfig(1);
  Report Rep(Cfg, {Scheme::Base, Scheme::Tpm});
  AppUnderTest App{"mini", [] { return makeFft(0.05); }};
  std::vector<AppResults> All{Rep.evaluate(App)};
  std::string Csv = Rep.renderCsv(All);
  EXPECT_EQ(Csv.rfind("app,scheme,", 0), 0u);
  // Header + 2 scheme rows.
  EXPECT_EQ(size_t(std::count(Csv.begin(), Csv.end(), '\n')), 3u);
  EXPECT_NE(Csv.find("mini,Base,"), std::string::npos);
  EXPECT_NE(Csv.find("mini,TPM,"), std::string::npos);
}

TEST(ReportTest, DiskBreakdownListsEveryDisk) {
  PipelineConfig Cfg = paperConfig(1);
  Pipeline Pipe(makeFft(0.05), Cfg);
  SchemeRun R = Pipe.run(Scheme::TTpmS);
  std::string S = Report::renderDiskBreakdown(R.Sim);
  EXPECT_NE(S.find("Utilization"), std::string::npos);
  // 8 disk rows (plus header + separator).
  EXPECT_EQ(size_t(std::count(S.begin(), S.end(), '\n')), 10u);
}
