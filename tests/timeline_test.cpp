//===- tests/timeline_test.cpp - windowed time-series contracts -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The timeline recorder's contracts (obs/Timeline.h, docs/OBSERVABILITY.md):
//
//  1. Closure — per disk, summing every window reproduces the end-of-run
//     aggregates exactly: the nine states tile [0, EndMs], service equals
//     DiskStats::BusyMs, the in-gap states equal DiskStats::IdleMsTotal,
//     and the eight energy categories equal the EnergyLedger categories.
//     Checked on randomized programs across every scheme (so TPM, DRPM
//     and the no-policy base all close, with and without compiler hints).
//  2. Observational — every existing export is byte-identical with and
//     without a recorder attached, and per-job recorders make sweep
//     timeline artifacts byte-identical across worker counts.
//  3. Policy segment sums — the GapSegment decomposition both policies
//     always emit tiles the gap exactly in time and in joules (the
//     recorder's input-side contract), and every category field of the
//     gap is exactly the in-order sum of its phase's slices.
//  4. Serving — dispatch-lag histograms follow the declared nearest-rank
//     semantics, replaying a session reproduces the timeline and serving
//     JSON byte-for-byte, and SLO specs parse/evaluate/report as
//     documented (docs/FORMATS.md "dra-slo-v1").
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "driver/ExperimentRunner.h"
#include "driver/SweepSpec.h"
#include "ir/ProgramBuilder.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "serve/SessionRunner.h"
#include "sim/DrpmPolicy.h"
#include "sim/TpmPolicy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>

using namespace dra;

namespace {

bool close(double X, double Y, double RelTol = 1e-9) {
  return std::fabs(X - Y) <=
         RelTol * std::max({1.0, std::fabs(X), std::fabs(Y)});
}

/// Deterministic random program: 2-3 nests over 2D arrays with random
/// in-bounds constant-offset accesses; enough shape variety to produce
/// different gap/burst patterns per seed.
Program randomProgram(unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };
  int64_t N = Pick(8, 14);
  int Margin = 2;
  ProgramBuilder B("tl" + std::to_string(Seed));
  int NumArrays = Pick(1, 3);
  std::vector<ArrayId> Arrays;
  for (int A = 0; A != NumArrays; ++A)
    Arrays.push_back(B.addArray("U" + std::to_string(A), {N, N}));
  int NumNests = Pick(2, 3);
  for (int K = 0; K != NumNests; ++K) {
    B.beginNest("n" + std::to_string(K), 0.5 + 0.1 * Pick(0, 10));
    B.loop(Margin, N - Margin).loop(Margin, N - Margin);
    int NumAcc = Pick(1, 3);
    for (int A = 0; A != NumAcc; ++A) {
      ArrayId Arr = Arrays[size_t(Pick(0, NumArrays - 1))];
      bool Transposed = Pick(0, 3) == 0;
      int64_t DI = Pick(-Margin, Margin);
      int64_t DJ = Pick(-Margin, Margin);
      std::vector<AffineExpr> Subs =
          Transposed ? std::vector<AffineExpr>{iv(1) + DI, iv(0) + DJ}
                     : std::vector<AffineExpr>{iv(0) + DI, iv(1) + DJ};
      if (Pick(0, 2) == 0)
        B.write(Arr, std::move(Subs));
      else
        B.read(Arr, std::move(Subs));
    }
    B.endNest();
  }
  return B.build();
}

/// Asserts the closure contract of \p Run against \p Res.
void expectCloses(const RunTimeline &Run, const SimResults &Res) {
  ASSERT_EQ(Run.Disks.size(), Res.PerDisk.size());
  for (size_t D = 0; D != Run.Disks.size(); ++D) {
    SCOPED_TRACE("disk " + std::to_string(D));
    const DiskStats &S = Res.PerDisk[D];
    double StateMs[NumTimelineStates] = {};
    double EnergyJ[NumTimelineEnergyCats] = {};
    uint64_t PrevIndex = 0;
    bool First = true;
    for (const TimelineWindow &W : Run.Disks[D].Windows) {
      EXPECT_TRUE(First || W.Index > PrevIndex)
          << "windows must be sparse ascending";
      First = false;
      PrevIndex = W.Index;
      for (unsigned I = 0; I != NumTimelineStates; ++I) {
        EXPECT_GE(W.StateMs[I], 0.0);
        StateMs[I] += W.StateMs[I];
      }
      for (unsigned I = 0; I != NumTimelineEnergyCats; ++I)
        EnergyJ[I] += W.EnergyJ[I];
    }
    EXPECT_TRUE(close(StateMs[TlService], S.BusyMs))
        << StateMs[TlService] << " vs busy " << S.BusyMs;
    double InGapMs = StateMs[TlIdle] + StateMs[TlIdleLow] +
                     StateMs[TlSpinDown] + StateMs[TlStandby] +
                     StateMs[TlSpinUp] + StateMs[TlRpmStep];
    EXPECT_TRUE(close(InGapMs, S.IdleMsTotal))
        << InGapMs << " vs idle " << S.IdleMsTotal;
    double TotalMs = 0.0;
    for (double M : StateMs)
      TotalMs += M;
    EXPECT_TRUE(close(TotalMs, Run.EndMs))
        << TotalMs << " does not tile [0, " << Run.EndMs << "]";

    double IdleJ = 0.0;
    for (const auto &[Rpm, J] : S.Ledger.IdleByRpmJ) {
      (void)Rpm;
      IdleJ += J;
    }
    EXPECT_TRUE(close(EnergyJ[TlEActiveRead], S.Ledger.ActiveReadJ));
    EXPECT_TRUE(close(EnergyJ[TlEActiveWrite], S.Ledger.ActiveWriteJ));
    EXPECT_TRUE(close(EnergyJ[TlEIdle], IdleJ));
    EXPECT_TRUE(close(EnergyJ[TlESpinDown], S.Ledger.SpinDownJ));
    EXPECT_TRUE(close(EnergyJ[TlESpinUp], S.Ledger.SpinUpJ));
    EXPECT_TRUE(close(EnergyJ[TlEStandby], S.Ledger.StandbyJ));
    EXPECT_TRUE(close(EnergyJ[TlERpmStep], S.Ledger.RpmStepJ));
    EXPECT_TRUE(close(EnergyJ[TlEReadyPenalty], S.Ledger.ReadyPenaltyJ));
  }
}

class TimelineClosureProperty : public ::testing::TestWithParam<unsigned> {};

} // namespace

// Contract 1: randomized closure across every scheme — all nine states
// tile the run, and every energy category reconciles with the ledger.
TEST_P(TimelineClosureProperty, WindowsReproduceAggregates) {
  Program P = randomProgram(GetParam());
  PipelineConfig Cfg = paperConfig(2);
  TimelineRecorder TL(/*WindowMs=*/250.0); // Narrow: force span splitting.
  Cfg.Timeline = &TL;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : allSchemes()) {
    SCOPED_TRACE(schemeName(S));
    size_t Before = TL.runs().size();
    SchemeRun Run = Pipe.run(S);
    ASSERT_EQ(TL.runs().size(), Before + 1);
    expectCloses(TL.runs().back(), Run.Sim);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineClosureProperty,
                         ::testing::Range(1u, 9u));

// Contract 2a: the recorder is an observational sink — the report and each
// run's ledger section are byte-identical with and without one attached.
TEST(TimelineIdentity, ExportsAreByteIdenticalWithRecorderAttached) {
  Program P = randomProgram(42);
  PipelineConfig Plain = paperConfig(1);

  PipelineConfig Recorded = Plain;
  TimelineRecorder TL;
  Recorded.Timeline = &TL;

  AppResults Without{/*Name=*/"tl42", {}, ""};
  AppResults With = Without;
  {
    Pipeline Pipe(P, Plain);
    for (Scheme S : singleProcSchemes())
      Without.Runs.push_back(Pipe.run(S));
  }
  {
    Pipeline Pipe(P, Recorded);
    for (Scheme S : singleProcSchemes())
      With.Runs.push_back(Pipe.run(S));
  }
  EXPECT_FALSE(TL.runs().empty());
  EXPECT_EQ(renderRunReportJson(Plain, {Without}, "test"),
            renderRunReportJson(Plain, {With}, "test"));
  ASSERT_EQ(Without.Runs.size(), With.Runs.size());
  for (size_t I = 0; I != Without.Runs.size(); ++I) {
    JsonWriter A, B;
    writeLedgerSectionJson(A, Without.Runs[I].Sim, Plain.Disk.TpmBreakEvenS);
    writeLedgerSectionJson(B, With.Runs[I].Sim, Plain.Disk.TpmBreakEvenS);
    EXPECT_EQ(A.take(), B.take()) << schemeName(Without.Runs[I].S);
  }
}

// Contract 2b: per-job recorders + simulated-time bucketing make sweep
// timeline artifacts byte-identical across worker counts.
TEST(TimelineIdentity, SweepTimelinesAreByteIdenticalAcrossWorkerCounts) {
  namespace fs = std::filesystem;
  DiagnosticEngine DE;
  auto Spec = SweepSpec::parse(
      R"({"apps": ["AST"], "scale": 0.05,
          "schemes": ["Base", "TPM", "T-DRPM-s"]})",
      DE);
  ASSERT_TRUE(Spec.has_value());
  auto Jobs = Spec->expand(DE);
  ASSERT_TRUE(Jobs.has_value());

  auto RunAt = [&](unsigned Workers, const fs::path &Dir) {
    fs::remove_all(Dir);
    SweepOptions Opts;
    Opts.Workers = Workers;
    Opts.TelemetryDir = Dir.string();
    for (const JobOutcome &O : ExperimentRunner(Opts).run(*Jobs))
      EXPECT_TRUE(O.Ok) << O.Error;
  };
  auto Slurp = [](const fs::path &P) {
    std::ifstream In(P, std::ios::binary);
    EXPECT_TRUE(In.good()) << P;
    return std::string(std::istreambuf_iterator<char>(In), {});
  };

  fs::path Serial = fs::temp_directory_path() / "dra-tl-sweep-serial";
  fs::path Wide = fs::temp_directory_path() / "dra-tl-sweep-wide";
  RunAt(1, Serial);
  RunAt(4, Wide);
  for (size_t J = 0; J != Jobs->size(); ++J) {
    char Stem[32];
    std::snprintf(Stem, sizeof(Stem), "job-%05zu.timeline.json", J);
    std::string A = Slurp(Serial / Stem), B = Slurp(Wide / Stem);
    EXPECT_FALSE(A.empty());
    EXPECT_EQ(A, B) << Stem;
  }
  fs::remove_all(Serial);
  fs::remove_all(Wide);
}

namespace {

/// Sum of the segment decomposition: time and joules. A hidden wake
/// (ReadyDelayMs == 0) is inside the gap, so its energy is part of the
/// segment sum; a stalled wake burns after the gap and is not.
void expectSegmentsTile(const IdleOutcome &O, double GapMs) {
  double Ms = 0.0, J = 0.0;
  for (const GapSegment &Seg : O.Segments) {
    EXPECT_GE(Seg.Ms, 0.0);
    EXPECT_GE(Seg.Joules, 0.0);
    Ms += Seg.Ms;
    J += Seg.Joules;
  }
  double WantJ =
      O.GapEnergyJ + (O.ReadyDelayMs == 0.0 ? O.ReadyEnergyJ : 0.0);
  EXPECT_TRUE(close(Ms, GapMs)) << Ms << " vs gap " << GapMs;
  EXPECT_TRUE(close(J, WantJ)) << J << " vs energy " << WantJ;
}

/// The slices are the one statement of the gap's energy: GapEnergyJ and
/// each category field equal the in-order sum of their phases' slices,
/// bit for bit.
void expectCategoriesAreSliceSums(const IdleOutcome &O) {
  double Gap = 0.0, Down = 0.0, Standby = 0.0, Step = 0.0;
  RpmJoules Idle;
  for (const GapSegment &Seg : O.Segments) {
    switch (Seg.Phase) {
    case GapPhase::Idle:
      Gap += Seg.Joules;
      Idle[Seg.Rpm] += Seg.Joules;
      break;
    case GapPhase::SpinDown:
      Gap += Seg.Joules;
      Down += Seg.Joules;
      break;
    case GapPhase::Standby:
      Gap += Seg.Joules;
      Standby += Seg.Joules;
      break;
    case GapPhase::RpmStep:
      Gap += Seg.Joules;
      Step += Seg.Joules;
      break;
    case GapPhase::Wake:
      break;
    }
  }
  EXPECT_EQ(O.GapEnergyJ, Gap);
  EXPECT_EQ(O.SpinDownEnergyJ, Down);
  EXPECT_EQ(O.StandbyEnergyJ, Standby);
  EXPECT_EQ(O.RpmStepEnergyJ, Step);
  EXPECT_EQ(std::vector<RpmJoules::value_type>(O.IdleByRpmJ.begin(),
                                               O.IdleByRpmJ.end()),
            std::vector<RpmJoules::value_type>(Idle.begin(), Idle.end()));
}

} // namespace

// Contract 3: TPM gap segments tile every regime — sub-threshold,
// mid-spin-down arrival, and full spin-down/standby/wake cycles.
TEST(TimelineSegments, TpmSegmentsTileTheGap) {
  PowerModel PM((DiskParams()));
  TpmPolicy Policy(PM);
  for (double GapMs : {1.0, 500.0, 1999.9, 2000.0, 2300.0, 2600.0, 5000.0,
                       60000.0, 123456.7}) {
    SCOPED_TRACE(GapMs);
    for (bool Arrives : {true, false}) {
      IdleOutcome O = Policy.evaluateIdle(GapMs, Arrives);
      expectSegmentsTile(O, GapMs);
      expectCategoriesAreSliceSums(O);
    }
  }
}

// Contract 3, DRPM: stepped idle dwell, mid-step arrivals and proactive
// ramps all tile, from every starting speed.
TEST(TimelineSegments, DrpmSegmentsTileTheGap) {
  DiskParams Params;
  PowerModel PM(Params);
  DrpmPolicy Policy(PM);
  for (unsigned StartRpm = Params.MinRpm; StartRpm <= Params.MaxRpm;
       StartRpm += Params.RpmStep) {
    for (double GapMs : {0.5, 100.0, 1000.0, 2500.0, 10000.0, 100000.0}) {
      SCOPED_TRACE(std::to_string(StartRpm) + " rpm, gap " +
                   std::to_string(GapMs));
      for (bool Proactive : {false, true}) {
        IdleOutcome O =
            Policy.evaluateIdle(GapMs, StartRpm, StartRpm, Proactive);
        expectSegmentsTile(O, GapMs);
        expectCategoriesAreSliceSums(O);
      }
    }
  }
}

// Contract 3, DRPM proactive ramp whose shortened sink ends mid-step: a
// 2090 ms gap from full speed sinks one level (2000 ms dwell, 60 ms step,
// 30 ms dwell), so 60 ms of ramp are reserved; the 2030 ms sink then ends
// 30 ms into its step. The step's remainder overlaps the ramp window and
// folds into the one ramp slice.
TEST(TimelineSegments, DrpmProactiveRampFoldsMidStepRemainder) {
  DiskParams Params;
  PowerModel PM(Params);
  DrpmPolicy Policy(PM);
  const double StepMs = PM.rpmTransitionMs(1);
  IdleOutcome O =
      Policy.evaluateIdle(2090.0, Params.MaxRpm, Params.MaxRpm, true);
  ASSERT_EQ(O.Segments.size(), 3u);
  EXPECT_EQ(O.Segments[0].Phase, GapPhase::Idle);
  EXPECT_EQ(O.Segments[1].Phase, GapPhase::RpmStep);
  EXPECT_LT(O.Segments[1].Ms, StepMs) << "sink must end mid-step";
  EXPECT_EQ(O.Segments[2].Phase, GapPhase::RpmStep);
  EXPECT_EQ(O.Segments[2].Ms, StepMs);
  double RemainderJ =
      PM.idlePowerW(Params.MaxRpm) * (StepMs - O.Segments[1].Ms) / 1000.0;
  double RampJ = PM.idlePowerW(Params.MaxRpm) * StepMs / 1000.0;
  EXPECT_EQ(O.Segments[2].Joules, RampJ + RemainderJ);
  EXPECT_EQ(O.ReadyDelayMs, 0.0);
  EXPECT_EQ(O.ReadyEnergyJ, 0.0);
  EXPECT_EQ(O.EndRpm, Params.MaxRpm);
  expectSegmentsTile(O, 2090.0);
  expectCategoriesAreSliceSums(O);
}

// The slice list is inline with a fixed capacity: the deepest DRPM gap
// (a dwell and a step per level, plus the ramp) fills it exactly, and one
// slice more throws like RpmJoules does.
TEST(TimelineSegments, SliceListCapacityAndOverflow) {
  DiskParams Params;
  Params.MinRpm = 1000; // Eight levels, 1000..15000 in 2000 steps.
  Params.RpmStep = 2000;
  ASSERT_EQ(Params.numRpmLevels(), RpmJoules::Capacity);
  PowerModel PM(Params);
  DrpmPolicy Policy(PM);
  IdleOutcome O =
      Policy.evaluateIdle(100000.0, Params.MaxRpm, Params.MaxRpm, true);
  EXPECT_EQ(O.Segments.size(), size_t(GapSegments::Capacity));
  expectSegmentsTile(O, 100000.0);
  expectCategoriesAreSliceSums(O);

  double GapJ = O.GapEnergyJ;
  EXPECT_THROW(O.add(GapPhase::Idle, Params.MaxRpm, 1.0, 1.0),
               std::length_error);
  EXPECT_EQ(O.GapEnergyJ, GapJ) << "a rejected slice must charge nothing";
}

// Serving: nearest-rank percentiles on the integer lag histogram.
TEST(ServeLatency, LagHistogramNearestRank) {
  LagHistogram H;
  for (uint64_t L : {0, 0, 0, 1, 1, 2, 7})
    H.add(L);
  EXPECT_EQ(H.Total, 7u);
  EXPECT_EQ(H.MaxLag, 7u);
  EXPECT_NEAR(H.mean(), 11.0 / 7.0, 1e-12);
  EXPECT_EQ(H.percentile(0.0), 0u);  // Rank clamps to 1.
  EXPECT_EQ(H.percentile(0.50), 1u); // ceil(3.5) = 4th smallest.
  EXPECT_EQ(H.percentile(0.95), 7u); // ceil(6.65) = 7th.
  EXPECT_EQ(H.percentile(1.0), 7u);

  LagHistogram Other;
  Other.add(3);
  Other.merge(H);
  EXPECT_EQ(Other.Total, 8u);
  EXPECT_EQ(Other.percentile(1.0), 7u);
  EXPECT_EQ(LagHistogram().percentile(0.95), 0u); // Empty is all-zero.
}

namespace {

const char *ServeSource = R"(program tlserve
array A[8][8]
array B[8][8]
nest producer compute 1.0 {
  for i0 = 0 .. 7
  for i1 = 0 .. 7
  read A[i0][i1]
  write B[i0][i1]
}
nest consumer compute 1.0 {
  for i0 = 0 .. 7
  for i1 = 0 .. 7
  read B[i1][i0]
  write A[i0][i1]
}
)";

constexpr uint64_t ServeIters = 128;

StreamSession makeServeSession(uint64_t TickBudget) {
  StreamSession S;
  S.ProgramSource = ServeSource;
  S.Config.SchemeName = "T-TPM-s";
  S.Config.StripeFactor = 4;
  S.Config.StripeUnitKb = 32;
  S.Config.TickBudget = TickBudget;
  StreamFrame F;
  F.Tick = 0;
  StreamRequest R;
  R.Op = StreamOp::Exec;
  R.First = 0;
  R.Count = ServeIters;
  F.Requests.push_back(R);
  S.Frames.push_back(F);
  return S;
}

struct ServeOutcome {
  SessionResult Result;
  std::string TimelineJson;
};

ServeOutcome runServeWithTimeline(const StreamSession &S,
                                  const SloSpec *Spec = nullptr) {
  DiagnosticEngine DE;
  TimelineRecorder TL;
  SessionRunner Runner(S, DE, nullptr, nullptr, &TL);
  ServeOutcome O;
  O.Result = Runner.run();
  const RunTimeline *Run0 = TL.runs().empty() ? nullptr : &TL.runs().front();
  std::vector<SloViolation> V;
  if (Spec)
    V = evaluateSlos(*Spec, O.Result, O.Result.TickLags, Run0);
  O.TimelineJson = renderTimelineJson(
      TL, "test",
      renderServingJson(O.Result, O.Result.TickLags, Run0, Spec, V));
  return O;
}

} // namespace

// A one-tick session dispatches everything in its arrival tick: every lag
// is zero, and record/replay of the same session yields byte-identical
// timeline + serving JSON.
TEST(ServeLatency, OneTickSessionHasZeroLagAndReplaysIdentically) {
  StreamSession S = makeServeSession(/*TickBudget=*/0);
  ServeOutcome First = runServeWithTimeline(S);
  ASSERT_TRUE(First.Result.Ok);
  ASSERT_EQ(First.Result.TickLags.size(), First.Result.Ticks.size());
  for (const LagHistogram &H : First.Result.TickLags) {
    EXPECT_EQ(H.MaxLag, 0u);
    EXPECT_EQ(H.percentile(0.99), 0u);
  }
  ServeOutcome Second = runServeWithTimeline(S);
  EXPECT_EQ(First.TimelineJson, Second.TimelineJson);
  EXPECT_NE(First.TimelineJson.find("\"schema\":\"dra-timeline-v1\""),
            std::string::npos);
  EXPECT_NE(First.TimelineJson.find("\"serving\":"), std::string::npos);
}

// A budget-bounded session defers work, so lags grow; the per-tick lag
// series must be reproducible under replay as well.
TEST(ServeLatency, BudgetedSessionAccumulatesLagDeterministically) {
  StreamSession S = makeServeSession(/*TickBudget=*/17);
  ServeOutcome First = runServeWithTimeline(S);
  ASSERT_TRUE(First.Result.Ok);
  uint64_t MaxLag = 0;
  for (const LagHistogram &H : First.Result.TickLags)
    MaxLag = std::max(MaxLag, H.MaxLag);
  EXPECT_GT(MaxLag, 0u) << "a 17-iteration budget must defer dispatches";
  ServeOutcome Second = runServeWithTimeline(S);
  EXPECT_EQ(First.TimelineJson, Second.TimelineJson);
}

// dra-slo-v1 parsing: schema, window and metric-name validation.
TEST(ServeSlo, SpecParsing) {
  SloSpec Spec;
  std::string Error;
  EXPECT_TRUE(parseSloSpec(
      R"({"schema": "dra-slo-v1", "window_ticks": 4,
          "slos": [{"metric": "p95_dispatch_ticks", "max": 2},
                   {"metric": "max_backlog", "max": 100}]})",
      Spec, Error))
      << Error;
  EXPECT_EQ(Spec.WindowTicks, 4u);
  ASSERT_EQ(Spec.Rules.size(), 2u);
  EXPECT_EQ(Spec.Rules[0].Metric, "p95_dispatch_ticks");
  EXPECT_EQ(Spec.Rules[0].Max, 2.0);

  EXPECT_FALSE(parseSloSpec(R"({"schema": "dra-slo-v2", "slos": []})", Spec,
                            Error));
  EXPECT_FALSE(parseSloSpec(
      R"({"schema": "dra-slo-v1", "slos": [{"metric": "nope", "max": 1}]})",
      Spec, Error));
  EXPECT_NE(Error.find("nope"), std::string::npos);
  EXPECT_FALSE(parseSloSpec("{", Spec, Error));
  EXPECT_FALSE(parseSloSpec(R"({"schema": "dra-slo-v1", "slos": []})", Spec,
                            Error))
      << "an SLO spec with no rules is a mistake, not a pass";
}

// SLO evaluation: a generous spec passes, a zero-tolerance spec violates
// in the windows where the budgeted session deferred, and the violations
// surface as serve-slo diagnostics.
TEST(ServeSlo, EvaluationAndReporting) {
  StreamSession S = makeServeSession(/*TickBudget=*/17);
  DiagnosticEngine DE;
  TimelineRecorder TL;
  SessionRunner Runner(S, DE, nullptr, nullptr, &TL);
  SessionResult R = Runner.run();
  ASSERT_TRUE(R.Ok);
  const RunTimeline *Run0 = TL.runs().empty() ? nullptr : &TL.runs().front();

  SloSpec Loose;
  std::string Error;
  ASSERT_TRUE(parseSloSpec(
      R"({"schema": "dra-slo-v1",
          "slos": [{"metric": "max_dispatch_ticks", "max": 1000000},
                   {"metric": "max_completion_ms", "max": 1e15}]})",
      Loose, Error))
      << Error;
  EXPECT_TRUE(evaluateSlos(Loose, R, R.TickLags, Run0).empty());

  SloSpec Tight;
  ASSERT_TRUE(parseSloSpec(
      R"({"schema": "dra-slo-v1", "window_ticks": 2,
          "slos": [{"metric": "p95_dispatch_ticks", "max": 0},
                   {"metric": "max_backlog", "max": 0}]})",
      Tight, Error))
      << Error;
  std::vector<SloViolation> V = evaluateSlos(Tight, R, R.TickLags, Run0);
  ASSERT_FALSE(V.empty());
  for (const SloViolation &Viol : V) {
    EXPECT_GT(Viol.Value, Viol.Limit);
    EXPECT_LE(Viol.NumTicks, 2u);
  }

  CollectingConsumer CC;
  DiagnosticEngine ReportDE;
  ReportDE.addConsumer(&CC);
  reportSloViolations(ReportDE, V);
  ASSERT_EQ(CC.diagnostics().size(), V.size());
  EXPECT_NE(CC.findCheck(V.front().Metric), nullptr);
}
