//===- tests/ledger_test.cpp - Energy-ledger attribution tests ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The energy ledger must close — sum(categories) == EnergyJ — for every
// scheme, policy and configuration, and each category must hold exactly
// the joules the power model charged for that activity. Hand-computed
// single-disk scenarios pin the category values; a randomized property
// sweep pins closure; compare/analyzer tests pin the derived views.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "driver/ExperimentRunner.h"
#include "ir/ProgramBuilder.h"
#include "obs/CompareReport.h"
#include "obs/IdleGapAnalyzer.h"
#include "obs/RunReport.h"
#include "sim/Disk.h"
#include "verify/EnergyAuditor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace dra;

namespace {

constexpr uint64_t KiB32 = 32 * 1024;

/// |A - B| within 1e-9 relative (the auditor's closure tolerance).
::testing::AssertionResult Closes(double A, double B) {
  double Scale = std::max({1.0, std::fabs(A), std::fabs(B)});
  if (std::fabs(A - B) <= 1e-9 * Scale)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << A << " vs " << B << " (rel " << std::fabs(A - B) / Scale << ")";
}

/// Small deterministic random affine program (ledger-test variant of the
/// properties_test generator): 2 nests over 1-2 arrays.
Program randomProgram(unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };
  int64_t N = Pick(6, 10);
  ProgramBuilder B("ledger" + std::to_string(Seed));
  int NumArrays = Pick(1, 2);
  std::vector<ArrayId> Arrays;
  for (int A = 0; A != NumArrays; ++A)
    Arrays.push_back(
        B.addArray(std::string("U").append(std::to_string(A)), {N, N}));
  for (int K = 0; K != 2; ++K) {
    B.beginNest("n" + std::to_string(K), 0.5 + 0.1 * Pick(0, 10));
    B.loop(0, N).loop(0, N);
    int NumAcc = Pick(1, 2);
    for (int A = 0; A != NumAcc; ++A)
      B.read(Arrays[size_t(Pick(0, NumArrays - 1))], {iv(0), iv(1)});
    B.write(Arrays[size_t(Pick(0, NumArrays - 1))], {iv(0), iv(1)});
    B.endNest();
  }
  return B.build();
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-computed single-disk scenarios (DiskParams defaults: idle 10.2 W,
// standby 2.5 W, active 13.5 W, spin-down 13 J / 1.5 s, spin-up 135 J /
// 10.9 s, break-even 15.2 s).
//===----------------------------------------------------------------------===//

TEST(LedgerTest, RpmJoulesKeepsMapOrderAndKeyPresence) {
  RpmJoules J;
  J[9000] += 1.0;
  J[3000] += 2.0;
  J[15000] += 0.0; // A zero charge still makes the key present.
  J[3000] += 0.5;
  std::vector<std::pair<unsigned, double>> Seen(J.begin(), J.end());
  EXPECT_EQ(Seen, (std::vector<std::pair<unsigned, double>>{
                      {3000, 2.5}, {9000, 1.0}, {15000, 0.0}}));
  EXPECT_EQ(J.count(15000), 1u);
  EXPECT_EQ(J.count(6000), 0u);
  EXPECT_THROW(J.at(6000), std::out_of_range);
  for (unsigned Rpm = 1; J.size() != RpmJoules::Capacity; ++Rpm)
    J[Rpm] = 0.0;
  EXPECT_THROW(J[100000], std::length_error);
}

TEST(LedgerTest, DiskRejectsMoreRpmLevelsThanTheLedgerHolds) {
  DiskParams P;
  P.RpmStep = 1000; // 13 levels between 3000 and 15000.
  ASSERT_GT(P.numRpmLevels(), RpmJoules::Capacity);
  EXPECT_THROW(Disk(0, P, PowerPolicyKind::Drpm), std::invalid_argument);
  P.RpmStep = 2000; // 7 levels fit.
  EXPECT_NO_THROW(Disk(0, P, PowerPolicyKind::Drpm));
}

TEST(LedgerTest, HandComputedTpmSpinDownScenario) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // 60 s gap: 15.2 s idle, 1.5 s spin-down, 43.3 s standby, then a
  // reactive spin-up stall on arrival.
  double C2 = D.submit(C1 + 60000.0, 0, KiB32, false);
  D.finalize(C2);

  const EnergyLedger &L = D.stats().Ledger;
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, /*Sequential=*/false);
  EXPECT_TRUE(Closes(L.ActiveReadJ, 2 * 13.5 * Svc / 1000.0));
  EXPECT_DOUBLE_EQ(L.ActiveWriteJ, 0.0);
  ASSERT_EQ(L.IdleByRpmJ.size(), 1u);
  EXPECT_TRUE(Closes(L.IdleByRpmJ.at(P.MaxRpm), 10.2 * 15.2));
  EXPECT_TRUE(Closes(L.SpinDownJ, 13.0));
  EXPECT_TRUE(Closes(L.StandbyJ, 2.5 * 43.3));
  // The spin-up stalled the request, so its energy is a ready penalty.
  EXPECT_TRUE(Closes(L.ReadyPenaltyJ, 135.0));
  EXPECT_DOUBLE_EQ(L.SpinUpJ, 0.0);
  EXPECT_DOUBLE_EQ(L.RpmStepJ, 0.0);
  EXPECT_TRUE(Closes(L.totalJ(), D.stats().EnergyJ));

  // 60 s is far beyond the 15.2 s break-even: no missed opportunity.
  EXPECT_EQ(D.stats().GapsBelowBreakEven, 0u);
  EXPECT_EQ(D.stats().GapsAtLeastBreakEven, 1u);
  EXPECT_DOUBLE_EQ(D.stats().MissedOpportunityJ, 0.0);
}

TEST(LedgerTest, ProactiveHintsTurnPenaltyIntoHiddenSpinUp) {
  DiskParams P;
  P.TpmProactiveHints = true;
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  double C2 = D.submit(C1 + 60000.0, 0, KiB32, false);
  D.finalize(C2);

  const EnergyLedger &L = D.stats().Ledger;
  // The compiler issues the spin-up 10.9 s early: that tail of the gap is
  // spent spinning up instead of in standby and nothing stalls.
  EXPECT_TRUE(Closes(L.StandbyJ, 2.5 * (43.3 - 10.9)));
  EXPECT_TRUE(Closes(L.SpinUpJ, 135.0));
  EXPECT_DOUBLE_EQ(L.ReadyPenaltyJ, 0.0);
  EXPECT_TRUE(Closes(L.totalJ(), D.stats().EnergyJ));
}

TEST(LedgerTest, SubBreakEvenGapIsMissedOpportunity) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // 10 s < 15.2 s break-even: the disk idles at full power throughout, and
  // every one of those joules is a missed opportunity.
  double C2 = D.submit(C1 + 10000.0, 0, KiB32, false);
  D.finalize(C2);

  const DiskStats &S = D.stats();
  EXPECT_EQ(S.GapsBelowBreakEven, 1u);
  EXPECT_EQ(S.GapsAtLeastBreakEven, 0u);
  EXPECT_TRUE(Closes(S.MissedOpportunityJ, 10.2 * 10.0));
  EXPECT_TRUE(Closes(S.Ledger.IdleByRpmJ.at(P.MaxRpm), 10.2 * 10.0));
  EXPECT_TRUE(Closes(S.Ledger.totalJ(), S.EnergyJ));
}

TEST(LedgerTest, WritesAndReadsSplitActiveEnergy) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 0, KiB32, false);
  double C2 = D.submit(C1, KiB32, KiB32, true); // sequential write
  D.finalize(C2);

  const EnergyLedger &L = D.stats().Ledger;
  double RandSvc = PM.serviceMs(KiB32, P.MaxRpm, false);
  double SeqSvc = PM.serviceMs(KiB32, P.MaxRpm, true);
  EXPECT_TRUE(Closes(L.ActiveReadJ, 13.5 * RandSvc / 1000.0));
  EXPECT_TRUE(Closes(L.ActiveWriteJ, 13.5 * SeqSvc / 1000.0));
  EXPECT_TRUE(Closes(L.totalJ(), D.stats().EnergyJ));
}

TEST(LedgerTest, DrpmGapAttributesToLowRpmDwellAndSteps) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::Drpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // A long gap steps the spindle down through the RPM levels; the ledger
  // must land every joule in an idle@rpm dwell or the rpm-step category.
  double C2 = D.submit(C1 + 120000.0, 0, KiB32, false);
  D.finalize(C2);

  const EnergyLedger &L = D.stats().Ledger;
  EXPECT_GT(D.stats().RpmSteps, 0u);
  EXPECT_GT(L.RpmStepJ, 0.0);
  // Dwell below the maximum RPM must appear.
  bool LowRpmDwell = false;
  for (const auto &[Rpm, Joules] : L.IdleByRpmJ)
    if (Rpm < P.MaxRpm && Joules > 0.0)
      LowRpmDwell = true;
  EXPECT_TRUE(LowRpmDwell);
  EXPECT_DOUBLE_EQ(L.SpinDownJ, 0.0);
  EXPECT_DOUBLE_EQ(L.StandbyJ, 0.0);
  EXPECT_TRUE(Closes(L.totalJ(), D.stats().EnergyJ));
}

//===----------------------------------------------------------------------===//
// Property: the ledger closes for every scheme x policy x configuration.
//===----------------------------------------------------------------------===//

class LedgerClosureProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LedgerClosureProperty, SumMatchesEnergyForAllSchemes) {
  unsigned Seed = GetParam();
  std::mt19937_64 Rng(Seed * 977u + 13u);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };

  Program P = randomProgram(Seed);
  PipelineConfig Cfg;
  Cfg.NumProcs = Pick(0, 1) ? 4 : 1;
  // Layout-aware multi-proc schemes need one disk per processor, so keep
  // the stripe factor at or above NumProcs.
  Cfg.Striping.StripeFactor =
      Cfg.NumProcs > 1 ? unsigned(1 << Pick(2, 3))  // 4 or 8
                       : unsigned(1 << Pick(1, 3)); // 2, 4 or 8
  Cfg.Striping.StripeUnitBytes = uint64_t(16 * 1024) << Pick(0, 2);
  if (Pick(0, 1)) {
    Cfg.Cache.Policy = Pick(0, 1) ? CachePolicyKind::Lru
                                  : CachePolicyKind::PaLru;
    Cfg.Cache.CapacityBlocks = uint64_t(Pick(1, 8)) * 16;
  }
  Pipeline Pipe(P, Cfg);

  std::vector<Scheme> Schemes =
      Cfg.NumProcs > 1 ? allSchemes() : singleProcSchemes();
  for (Scheme S : Schemes) {
    SchemeRun R = Pipe.run(S);
    // Per-disk and aggregate closure at 1e-9 relative.
    for (const DiskStats &D : R.Sim.PerDisk)
      EXPECT_TRUE(Closes(D.Ledger.totalJ(), D.EnergyJ)) << schemeName(S);
    EXPECT_TRUE(Closes(R.Sim.totalLedger().totalJ(), R.Sim.EnergyJ))
        << schemeName(S);
    // The independent auditor agrees.
    DiagnosticEngine DE;
    EXPECT_TRUE(EnergyAuditor(R.Sim, DE).verify()) << schemeName(S);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerClosureProperty,
                         ::testing::Range(1u, 13u));

//===----------------------------------------------------------------------===//
// The auditor catches corrupted ledgers.
//===----------------------------------------------------------------------===//

TEST(EnergyAuditorTest, FlagsCorruptedLedger) {
  Program P = randomProgram(1);
  PipelineConfig Cfg;
  Pipeline Pipe(P, Cfg);
  SchemeRun R = Pipe.run(Scheme::Tpm);

  SimResults Bad = R.Sim;
  ASSERT_FALSE(Bad.PerDisk.empty());
  Bad.PerDisk[0].Ledger.ActiveReadJ += 1.0;
  DiagnosticEngine DE;
  CollectingConsumer Diags;
  DE.addConsumer(&Diags);
  EXPECT_FALSE(EnergyAuditor(Bad, DE).verify());
  bool SawSumMismatch = false;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.checkName() == "ledger-sum-mismatch")
      SawSumMismatch = true;
  EXPECT_TRUE(SawSumMismatch);
}

TEST(EnergyAuditorTest, FlagsInconsistentGapCounts) {
  Program P = randomProgram(2);
  PipelineConfig Cfg;
  Pipeline Pipe(P, Cfg);
  SchemeRun R = Pipe.run(Scheme::Base);

  SimResults Bad = R.Sim;
  ASSERT_FALSE(Bad.PerDisk.empty());
  Bad.PerDisk[0].GapsBelowBreakEven += 1;
  Bad.PerDisk[0].IdleMsBelowBreakEven += 100.0;
  DiagnosticEngine DE;
  CollectingConsumer Diags;
  DE.addConsumer(&Diags);
  EXPECT_FALSE(EnergyAuditor(Bad, DE).verify());
  bool SawCount = false, SawTime = false;
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (D.checkName() == "gap-count-mismatch")
      SawCount = true;
    if (D.checkName() == "idle-time-mismatch")
      SawTime = true;
  }
  EXPECT_TRUE(SawCount);
  EXPECT_TRUE(SawTime);
}

//===----------------------------------------------------------------------===//
// Idle-gap analyzer.
//===----------------------------------------------------------------------===//

TEST(IdleGapAnalyzerTest, ClassifiesAndAggregates) {
  Program P = randomProgram(3);
  PipelineConfig Cfg;
  Pipeline Pipe(P, Cfg);
  SchemeRun R = Pipe.run(Scheme::Base);

  IdleGapAnalysis A = analyzeIdleGaps(R.Sim, Cfg.Disk.TpmBreakEvenS);
  EXPECT_DOUBLE_EQ(A.BreakEvenS, Cfg.Disk.TpmBreakEvenS);
  ASSERT_EQ(A.PerDisk.size(), R.Sim.PerDisk.size());

  uint64_t Gaps = 0;
  double IdleS = 0.0, MissedJ = 0.0;
  for (size_t D = 0; D != R.Sim.PerDisk.size(); ++D) {
    const GapStats &G = A.PerDisk[D].Stats;
    const DiskStats &S = R.Sim.PerDisk[D];
    EXPECT_EQ(G.Gaps, S.IdleHist.totalCount());
    EXPECT_EQ(G.GapsBelowBreakEven, S.GapsBelowBreakEven);
    EXPECT_TRUE(Closes(G.idleSTotal(), S.IdleMsTotal / 1000.0));
    EXPECT_TRUE(Closes(G.MissedOpportunityJ, S.MissedOpportunityJ));
    Gaps += G.Gaps;
    IdleS += G.idleSTotal();
    MissedJ += G.MissedOpportunityJ;
  }
  EXPECT_EQ(A.Total.Gaps, Gaps);
  EXPECT_TRUE(Closes(A.Total.idleSTotal(), IdleS));
  EXPECT_TRUE(Closes(A.Total.MissedOpportunityJ, MissedJ));
  // Percentiles are monotone.
  EXPECT_LE(A.Total.P50S, A.Total.P95S);
  EXPECT_LE(A.Total.P95S, A.Total.P99S);
}

//===----------------------------------------------------------------------===//
// Ledger report round-trip and cross-scheme comparison.
//===----------------------------------------------------------------------===//

namespace {

/// Runs the single-proc schemes of one tiny app and renders its report.
struct RenderedRun {
  PipelineConfig Cfg;
  std::vector<AppResults> Apps;
  std::string ReportJson;
};

RenderedRun renderTinyRun() {
  RenderedRun R;
  Program P = randomProgram(4);
  Pipeline Pipe(P, R.Cfg);
  AppResults App;
  App.Name = "tiny";
  for (Scheme S : singleProcSchemes())
    App.Runs.push_back(Pipe.run(S));
  R.Apps.push_back(App);
  R.ReportJson = renderRunReportJson(R.Cfg, R.Apps, "test");
  return R;
}

} // namespace

TEST(LedgerReportTest, LedgerSectionRoundTripsAndCloses) {
  RenderedRun R = renderTinyRun();
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(R.ReportJson, Doc, Error)) << Error;
  EXPECT_EQ(Doc.find("schema")->Str, "dra-report-v1");
  const JsonValue *Apps = Doc.find("apps");
  ASSERT_TRUE(Apps && Apps->isArray());
  const JsonValue *Runs = Apps->Arr[0].find("runs");
  ASSERT_TRUE(Runs && Runs->isArray());
  ASSERT_EQ(Runs->Arr.size(), singleProcSchemes().size());
  for (const JsonValue &Run : Runs->Arr) {
    const JsonValue *Ledger = Run.find("ledger");
    ASSERT_TRUE(Ledger);
    EXPECT_EQ(Ledger->find("schema")->Str, "dra-ledger-v1");
    const JsonValue *Total = Ledger->find("total");
    ASSERT_TRUE(Total);
    // The emitted numbers round-trip exactly, so the audit replays on the
    // parsed document.
    double Energy = Total->find("energy_j")->Num;
    double Sum = Total->find("sum_j")->Num;
    EXPECT_TRUE(Closes(Sum, Energy));
    EXPECT_LE(Total->find("audit_rel_error")->Num, 1e-9);
  }
}

TEST(CompareReportTest, NormalizedCategoriesStackToNormalizedEnergy) {
  RenderedRun R = renderTinyRun();
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(R.ReportJson, Doc, Error)) << Error;

  ReportRecords Records;
  ASSERT_TRUE(readRunReport(Doc, "report", Records, Error)) << Error;
  ASSERT_EQ(Records.Runs.size(), singleProcSchemes().size());

  Comparison C;
  ASSERT_TRUE(buildComparison(Records.Runs, "Base", {"report"}, C, Error))
      << Error;
  ASSERT_EQ(C.Apps.size(), 1u);
  for (const ComparedRun &CR : C.Apps[0].Runs) {
    double Stack = 0.0;
    for (const auto &[Name, Val] : CR.NormalizedCategories) {
      (void)Name;
      Stack += Val;
    }
    EXPECT_TRUE(Closes(Stack, CR.NormalizedEnergy)) << CR.Run.Scheme;
  }
  // Base normalizes to exactly 1.
  EXPECT_DOUBLE_EQ(C.Apps[0].Runs[0].NormalizedEnergy, 1.0);

  std::string Json = renderCompareJson(C);
  JsonValue CmpDoc;
  ASSERT_TRUE(parseJson(Json, CmpDoc, Error)) << Error;
  EXPECT_EQ(CmpDoc.find("schema")->Str, "dra-compare-v1");
  std::string Table = renderCompareTable(C);
  EXPECT_NE(Table.find("Norm. energy"), std::string::npos);
}

TEST(CompareReportTest, ReportLedgerSectionsFeedTheComparison) {
  // Each read run carries its own run's energy and its ledger section's
  // missed opportunity; the report is the only document dra-compare
  // reads, so a standalone ledger document is refused.
  RenderedRun R = renderTinyRun();
  JsonValue RepDoc, LedDoc;
  std::string Error;
  ASSERT_TRUE(parseJson(R.ReportJson, RepDoc, Error)) << Error;
  ASSERT_TRUE(parseJson(R"({"schema":"dra-ledger-v1","apps":[]})", LedDoc,
                        Error))
      << Error;

  ReportRecords RepRecords, Led;
  ASSERT_TRUE(readRunReport(RepDoc, "rep", RepRecords, Error)) << Error;
  const std::vector<ReportRun> &Rep = RepRecords.Runs;
  const std::vector<SchemeRun> &Runs = R.Apps[0].Runs;
  ASSERT_EQ(Rep.size(), Runs.size());
  for (size_t I = 0; I != Rep.size(); ++I) {
    EXPECT_EQ(Rep[I].Scheme, schemeName(Runs[I].S));
    EXPECT_TRUE(Closes(Rep[I].EnergyJ, Runs[I].Sim.EnergyJ));
    double MissedJ = analyzeIdleGaps(Runs[I].Sim, R.Cfg.Disk.TpmBreakEvenS)
                         .Total.MissedOpportunityJ;
    EXPECT_TRUE(Closes(Rep[I].MissedOpportunityJ, MissedJ));
  }
  EXPECT_FALSE(readRunReport(LedDoc, "led", Led, Error));
  EXPECT_EQ(Error, "led: not a dra-report-v1 document");
  EXPECT_TRUE(Led.Runs.empty());

  // The writer always writes a run's ledger section, so a run without one
  // is refused rather than compared on total energy alone.
  JsonValue OldDoc;
  ASSERT_TRUE(parseJson(R"({"schema":"dra-report-v1","apps":[{"app":"a",
      "runs":[{"scheme":"Base","sim":{"energy_j":2.5,"io_time_ms":4}}]}]})",
                        OldDoc, Error))
      << Error;
  ReportRecords Old;
  EXPECT_FALSE(readRunReport(OldDoc, "old", Old, Error));
  EXPECT_EQ(Error, "old: run without 'ledger' section in app 'a'");
}

TEST(CompareReportTest, ReportRoundTripReproducesInMemoryRatiosExactly) {
  // The figure benches normalize their own rendered report. Every ratio
  // must equal the one computed from the runs in memory, bit for bit.
  PipelineConfig Cfg = paperConfig(1);
  std::vector<Scheme> Schemes = singleProcSchemes();
  std::vector<AppUnderTest> Apps = paperApps(0.05);
  Apps.resize(2);
  std::vector<AppResults> All = runAppMatrix(Cfg, Schemes, Apps, 2);

  Comparison C;
  std::string Error;
  ASSERT_TRUE(compareReportJson(renderRunReportJson(Cfg, All, "rt"), "rt",
                                "Base", C, Error))
      << Error;
  ASSERT_EQ(C.Apps.size(), All.size());
  ASSERT_EQ(C.Schemes.size(), Schemes.size());
  std::vector<double> SumE(Schemes.size()), SumIo(Schemes.size());
  for (size_t A = 0; A != All.size(); ++A) {
    const std::vector<SchemeRun> &Runs = All[A].Runs;
    const SimResults &Base = Runs[0].Sim;
    ASSERT_EQ(C.Apps[A].Runs.size(), Runs.size());
    for (size_t S = 0; S != Runs.size(); ++S) {
      const ComparedRun &R = C.Apps[A].Runs[S];
      double E = Runs[S].Sim.EnergyJ / Base.EnergyJ;
      double Io = Runs[S].Sim.IoTimeMs / Base.IoTimeMs - 1.0;
      EXPECT_EQ(R.NormalizedEnergy, E) << All[A].Name << " " << R.Run.Scheme;
      ASSERT_TRUE(R.HasIoDegradation);
      EXPECT_EQ(R.IoDegradation, Io) << All[A].Name << " " << R.Run.Scheme;
      SumE[S] += E;
      SumIo[S] += Io;
    }
  }
  for (size_t S = 0; S != Schemes.size(); ++S) {
    EXPECT_EQ(C.Schemes[S].MeanNormalizedEnergy, SumE[S] / double(All.size()));
    EXPECT_EQ(C.Schemes[S].MeanIoDegradation, SumIo[S] / double(All.size()));
  }
}

TEST(CompareReportTest, RestructuringShrinksMissedOpportunity) {
  // The acceptance shape the whole PR exists to expose: on an app with
  // reuse the compiler can cluster, the restructured schemes burn less
  // full-power idle energy inside sub-break-even gaps than the reactive
  // ones (Fig. 9's mechanism, viewed through the ledger). Per-disk gaps
  // of a miniature program are far below the server-class 15.2 s break
  // even, so scale the TPM constants down proportionally — the original
  // interleaved order leaves only sub-break-even gaps (pure missed
  // opportunity) while the restructured clusters push gaps past the
  // threshold where TPM converts them.
  ProgramBuilder B("aligned");
  int64_t N = 12;
  ArrayId A0 = B.addArray("A", {N, N});
  ArrayId C2 = B.addArray("C", {N, N});
  B.beginNest("s0", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(A0, {iv(0), iv(1)})
      .write(C2, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(C2, {iv(0), iv(1)})
      .write(A0, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  PipelineConfig Cfg = paperConfig(1);
  Cfg.Disk.TpmBreakEvenS = 0.4;
  Cfg.Disk.SpinDownS = 0.05;
  Cfg.Disk.SpinUpS = 0.05;
  Cfg.Disk.SpinDownJ = 1.0;
  Cfg.Disk.SpinUpJ = 2.0;
  Pipeline Pipe(P, Cfg);

  auto MissedJ = [](const SchemeRun &R) {
    double J = 0.0;
    for (const DiskStats &S : R.Sim.PerDisk)
      J += S.MissedOpportunityJ;
    return J;
  };
  SchemeRun Tpm = Pipe.run(Scheme::Tpm);
  SchemeRun TTpmS = Pipe.run(Scheme::TTpmS);
  EXPECT_LT(MissedJ(TTpmS), MissedJ(Tpm));
}
