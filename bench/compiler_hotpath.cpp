//===- bench/compiler_hotpath.cpp - Compile-path benchmark ----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Benchmarks the compile hot path (docs/PERFORMANCE.md) on the six Table 2
// applications:
//
//   1. times the table-fed compile path (shared TileAccessTable,
//      ready-bucket scheduler, CSR graph build) per app and checks that
//      repeated compiles produce identical outputs;
//   2. asserts that a pipeline run publishes the pass.*.wall_ms timing
//      histogram of every pass in TimedPasses (the observability
//      contract drac --timings relies on);
//   3. emits a dra-report-v1 artifact (DRA_BENCH_JSON) of a small
//      app x scheme matrix, gated in CI against bench/baselines — a
//      compile-path change must not move a single simulated number.
//
// Any failed check exits nonzero, so CI fails even without the JSON gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/LayoutAwareParallelizer.h"
#include "ir/TileAccessTable.h"
#include "obs/Metrics.h"
#include "trace/TraceGenerator.h"

#include <chrono>
#include <map>

using namespace dra;

namespace {

double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// The bench replays the full T-x-M compile path at this processor count —
/// parallelize, per-processor per-phase restructure, the locality report
/// and trace generation — because that is what Pipeline::compile + run
/// execute per scheme.
constexpr unsigned BenchProcs = 4;

struct PathResult {
  ScheduledWork Work;
  ScheduleLocality Loc;
  uint64_t TraceRequests = 0;
  uint64_t TraceBytes = 0;
  double WallMs = 0.0;
};

/// The compile path: one virtual execution (the table), the ready-bucket
/// scheduler, the CSR graph build and table-fed consumers, with
/// restructuring done as Pipeline::restructurePerProc does it.
PathResult runHotPath(const Program &P, const StripingConfig &SC) {
  PathResult R;
  double T0 = nowMs();
  IterationSpace Space(P);
  DiskLayout Layout(P, SC);
  TileAccessTable Table(P, Space);
  IterationGraph Graph(Table);
  DiskReuseScheduler Sched(Table, Layout);
  ScheduledWork In = LayoutAwareParallelizer::parallelize(
                         P, Space, Graph, Layout, BenchProcs, nullptr, &Table)
                         .toWork(BenchProcs);
  R.Work.PerProc.assign(In.PerProc.size(), {});
  R.Work.PhaseOf = In.PhaseOf;
  for (size_t Proc = 0; Proc != In.PerProc.size(); ++Proc) {
    std::map<uint32_t, std::vector<GlobalIter>> ByPhase;
    for (GlobalIter G : In.PerProc[Proc])
      ByPhase[In.PhaseOf.empty() ? 0 : In.PhaseOf[G]].push_back(G);
    unsigned StartDisk =
        unsigned(Proc) * Layout.numDisks() / unsigned(In.PerProc.size());
    for (auto &[Phase, Subset] : ByPhase) {
      (void)Phase;
      std::sort(Subset.begin(), Subset.end());
      Schedule S =
          Sched.schedule(IterationGraph(Table, Subset), Subset, StartDisk);
      R.Work.PerProc[Proc].insert(R.Work.PerProc[Proc].end(),
                                  S.Order.begin(), S.Order.end());
    }
  }
  Schedule Proc0;
  Proc0.Order = R.Work.PerProc[0];
  R.Loc = Proc0.locality(Table, Layout);
  TraceGenerator Gen(P, Space, Layout, 4096, &Table);
  Trace T = Gen.generate(R.Work);
  R.TraceRequests = T.size();
  R.TraceBytes = T.totalBytes();
  R.WallMs = nowMs() - T0;
  return R;
}

bool samePath(const PathResult &A, const PathResult &B) {
  return A.Work.PerProc == B.Work.PerProc && A.Work.PhaseOf == B.Work.PhaseOf &&
         A.Loc.DiskSwitches == B.Loc.DiskSwitches &&
         A.Loc.DiskVisits == B.Loc.DiskVisits &&
         A.Loc.DisksUsed == B.Loc.DisksUsed &&
         A.TraceRequests == B.TraceRequests && A.TraceBytes == B.TraceBytes;
}

/// Pass-timing presence gate: a verified pipeline run must publish a
/// pass.<name>.wall_ms histogram for every pass in TimedPasses, trace-gen
/// and simulate included. drac --timings and the run reports read these.
bool checkPassTimings() {
  MetricsRegistry Metrics;
  PipelineConfig C = paperConfig(2);
  C.Metrics = &Metrics;
  C.Verify = VerifyLevel::Cheap;
  Program P = makeAst(0.05);
  Pipeline Pipe(P, C);
  (void)Pipe.run(Scheme::TDrpmM);

  bool Ok = true;
  for (const char *Pass : TimedPasses) {
    std::string Name = std::string("pass.") + Pass + ".wall_ms";
    if (!Metrics.findHistogram(Name)) {
      std::fprintf(stderr, "FAIL missing timing histogram '%s'\n",
                   Name.c_str());
      Ok = false;
    }
  }
  return Ok;
}

} // namespace

int main() {
  std::printf("== Compiler hot path: table-fed compile path ==\n\n");
  double Scale = benchScale();
  StripingConfig SC = paperConfig(1).Striping;

  double Total = 0.0;
  std::printf("  %-10s %12s\n", "app", "compile-ms");
  for (const AppUnderTest &App : paperApps(Scale)) {
    Program P = App.Build();
    // Best-of-3 absorbs allocator and frequency noise; outputs are
    // compared on every repetition.
    PathResult Hot = runHotPath(P, SC);
    for (int Rep = 0; Rep != 2; ++Rep) {
      PathResult H2 = runHotPath(P, SC);
      if (!samePath(Hot, H2)) {
        std::fprintf(stderr, "FAIL %s: compile path is not deterministic\n",
                     App.Name.c_str());
        return 1;
      }
      Hot.WallMs = std::min(Hot.WallMs, H2.WallMs);
    }
    Total += Hot.WallMs;
    std::printf("  %-10s %12.2f\n", App.Name.c_str(), Hot.WallMs);
  }
  std::printf("  %-10s %12.2f\n", "total", Total);
  std::printf("\n  [ok] compile path deterministic on all apps\n");

  if (!checkPassTimings())
    return 1;
  std::printf("  [ok] pass.*.wall_ms histograms published for every timed "
              "pass\n\n");

  // Deterministic end-to-end artifact for the CI regression gate: one
  // restructured scheme per family through the full pipeline (compile,
  // trace, simulate). Compile-path changes must not move any simulated
  // metric.
  PipelineConfig Config = paperConfig(4);
  Report Rep(Config, {Scheme::Base, Scheme::TTpmS, Scheme::TDrpmM});
  auto All = runAllApps(Rep);
  std::printf("== Gate matrix (Base, T-TPM-s, T-DRPM-m; 4 processors) ==\n\n");
  std::printf("%s\n", Rep.renderEnergyTable(All).c_str());
  writeBenchArtifacts(Rep, All, "compiler_hotpath", /*Ledger=*/false);
  return 0;
}
