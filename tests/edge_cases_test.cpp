//===- tests/edge_cases_test.cpp - boundary behaviour across modules ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "driver/ExperimentRunner.h"
#include "frontend/Parser.h"
#include "ir/ProgramBuilder.h"
#include "obs/CompareReport.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {
constexpr uint64_t KiB32 = 32 * 1024;
} // namespace

TEST(EngineEdge, EmptyTraceCompletesImmediately) {
  Program P = makeFft(0.05);
  DiskLayout L(P, StripingConfig());
  SimEngine E(L, DiskParams(), PowerPolicyKind::Tpm);
  SimResults R = E.run(Trace(1));
  EXPECT_EQ(R.NumRequests, 0u);
  EXPECT_DOUBLE_EQ(R.WallTimeMs, 0.0);
  EXPECT_DOUBLE_EQ(R.EnergyJ, 0.0); // Zero-length run burns nothing.
}

TEST(EngineEdge, SingleRequestTrace) {
  Program P = makeFft(0.05);
  DiskLayout L(P, StripingConfig());
  SimEngine E(L, DiskParams(), PowerPolicyKind::None);
  Trace T(1, 4096);
  Request R;
  R.SizeBytes = KiB32;
  R.ThinkMs = 3.0;
  T.addRequest(R);
  SimResults Res = E.run(T);
  EXPECT_EQ(Res.NumRequests, 1u);
  PowerModel PM((DiskParams()));
  EXPECT_NEAR(Res.WallTimeMs,
              3.0 + PM.serviceMs(KiB32, DiskParams().MaxRpm, false), 1e-9);
}

TEST(EngineEdge, ProcessorWithNoRequestsIsHarmless) {
  Program P = makeFft(0.05);
  DiskLayout L(P, StripingConfig());
  SimEngine E(L, DiskParams(), PowerPolicyKind::None);
  Trace T(3, 4096); // procs 1 and 2 never issue anything
  Request R;
  R.SizeBytes = KiB32;
  R.Proc = 0;
  T.addRequest(R);
  SimResults Res = E.run(T);
  EXPECT_EQ(Res.NumRequests, 1u);
}

TEST(EngineEdge, NonContiguousPhasesStillOrder) {
  // Phases 0 and 5 with nothing in between: the phase-5 request must still
  // wait for phase 0.
  Program P = makeFft(0.05);
  DiskLayout L(P, StripingConfig());
  SimEngine E(L, DiskParams(), PowerPolicyKind::None);
  Trace T(2, 4096);
  Request A;
  A.SizeBytes = KiB32;
  A.Proc = 0;
  A.ThinkMs = 50.0;
  A.Phase = 0;
  T.addRequest(A);
  Request B;
  B.SizeBytes = KiB32;
  B.Proc = 1;
  B.Phase = 5;
  B.StartBlock = KiB32 / 4096; // different disk
  T.addRequest(B);
  SimResults Res = E.run(T);
  PowerModel PM((DiskParams()));
  double Svc = PM.serviceMs(KiB32, DiskParams().MaxRpm, false);
  EXPECT_NEAR(Res.WallTimeMs, 50.0 + 2 * Svc, 1e-9);
}

TEST(PipelineEdge, SingleIterationProgram) {
  ProgramBuilder B("one");
  ArrayId U = B.addArray("U", {1});
  B.beginNest("n", 1.0).loop(0, 1).read(U, {iv(0)}).endNest();
  Program P = B.build();
  Pipeline Pipe(P, PipelineConfig());
  for (Scheme S : singleProcSchemes()) {
    SchemeRun R = Pipe.run(S);
    EXPECT_EQ(R.TraceRequests, 1u) << schemeName(S);
    EXPECT_GT(R.Sim.EnergyJ, 0.0) << schemeName(S);
  }
}

TEST(PipelineEdge, MVersionsEqualSVersionsOnOneProcessor) {
  Program P = makeFft(0.08);
  Pipeline Pipe(P, paperConfig(1));
  SchemeRun S = Pipe.run(Scheme::TTpmS);
  SchemeRun M = Pipe.run(Scheme::TTpmM);
  EXPECT_DOUBLE_EQ(S.Sim.EnergyJ, M.Sim.EnergyJ);
  EXPECT_DOUBLE_EQ(S.Sim.WallTimeMs, M.Sim.WallTimeMs);
}

TEST(PipelineEdge, MorePowerfulSchemesNeverChangeTraceVolume) {
  Program P = makeVisuo(0.15);
  Pipeline Pipe(P, paperConfig(4));
  uint64_t Bytes = 0;
  for (Scheme S : allSchemes()) {
    SchemeRun R = Pipe.run(S);
    if (Bytes == 0)
      Bytes = R.TraceBytes;
    EXPECT_EQ(R.TraceBytes, Bytes) << schemeName(S);
  }
}

TEST(ScheduleEdge, EmptyOrderLocality) {
  Program P = makeFft(0.05);
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  DiskLayout L(P, StripingConfig());
  Schedule S;
  ScheduleLocality Loc = S.locality(Table, L);
  EXPECT_EQ(Loc.DiskSwitches, 0u);
  EXPECT_EQ(Loc.DiskVisits, 0u);
  EXPECT_EQ(Loc.DisksUsed, 0u);
}

TEST(DiskEdge, ZeroByteRequestStillPaysSeekAndRotation) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, 0, false);
  EXPECT_NEAR(C, P.AvgSeekMs + P.AvgRotMsAtMax, 1e-9);
}

TEST(DiskEdge, BackToBackArrivalsAtSameTimestamp) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(10.0, 0, KiB32, false);
  double C2 = D.submit(10.0, 0, KiB32, false); // same arrival: queues
  EXPECT_GT(C2, C1);
  EXPECT_EQ(D.stats().NumRequests, 2u);
}

TEST(LayoutEdge, SingleDiskSystemDegenerates) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {16});
  B.beginNest("n", 1.0).loop(0, 16).read(U, {iv(0)}).endNest();
  Program P = B.build();
  StripingConfig C;
  C.StripeFactor = 1;
  PipelineConfig Cfg;
  Cfg.Striping = C;
  Pipeline Pipe(P, Cfg);
  SchemeRun Base = Pipe.run(Scheme::Base);
  SchemeRun Restr = Pipe.run(Scheme::TTpmS);
  // One disk: nothing to cluster, restructuring must be a no-op in effect.
  EXPECT_DOUBLE_EQ(Base.Sim.EnergyJ, Restr.Sim.EnergyJ);
  EXPECT_EQ(Restr.Locality.DisksUsed, 1u);
}

TEST(ReportEdge, EnergyBarsContainEveryAppAndScheme) {
  PipelineConfig Cfg = paperConfig(1);
  std::vector<AppResults> All =
      runAppMatrix(Cfg, {Scheme::Base, Scheme::Tpm},
                   {{"mini", [] { return makeFft(0.05); }}}, 1);
  Comparison C;
  std::string Error;
  ASSERT_TRUE(compareReportJson(renderRunReportJson(Cfg, All, "edge"), "edge",
                                "Base", C, Error))
      << Error;
  std::string Bars = renderEnergyBars(C);
  EXPECT_NE(Bars.find("mini"), std::string::npos);
  EXPECT_NE(Bars.find("Base"), std::string::npos);
  EXPECT_NE(Bars.find("TPM"), std::string::npos);
  EXPECT_NE(Bars.find('#'), std::string::npos);
}

TEST(PipelineEdge, EmptyRangeRendersNoNanPercentages) {
  // A nest whose range is empty issues no requests, so every run is empty
  // and every "vs Base" ratio would be 0/0: normalization refuses the run
  // with a diagnostic instead of printing nan.
  std::string Error;
  std::optional<Program> P = Parser::parse(R"(
program empty
array A[4]
nest n { for i0 = 10 .. 0 read A[i0] }
)",
                                           Error);
  ASSERT_TRUE(P) << Error;
  PipelineConfig Cfg = paperConfig(1);
  std::vector<AppResults> All = runAppMatrix(
      Cfg, singleProcSchemes(), {{"empty", [&] { return *P; }}}, 1);
  for (const SchemeRun &R : All[0].Runs)
    EXPECT_EQ(R.Sim.NumRequests, 0u);
  Comparison C;
  EXPECT_FALSE(compareReportJson(renderRunReportJson(Cfg, All, "edge"),
                                 "edge", "Base", C, Error));
  EXPECT_EQ(Error, "baseline energy for app 'empty' is not positive");
  // The I/O ratio alone has no baseline I/O to divide by: "n/a", not nan.
  ReportRun Base, Tpm;
  Base.App = Tpm.App = "empty";
  Base.Scheme = "Base";
  Tpm.Scheme = "TPM";
  Base.EnergyJ = Tpm.EnergyJ = 1.0;
  ASSERT_TRUE(buildComparison({Base, Tpm}, "Base", {"edge"}, C, Error))
      << Error;
  std::string Perf = renderIoDegradationMatrix(C);
  EXPECT_EQ(Perf.find("nan"), std::string::npos) << Perf;
  EXPECT_NE(Perf.find("n/a"), std::string::npos) << Perf;
}
