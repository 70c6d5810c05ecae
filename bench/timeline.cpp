//===- bench/timeline.cpp - Timeline identity, closure and overhead ---------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Gates the windowed time-series recorder (obs/Timeline.h) on the six
// Table 2 applications across the single-processor schemes:
//
//   1. identity: the recorder is purely observational — the rendered sim
//      results of a run with a TimelineRecorder attached are byte-identical
//      to the same run without one;
//   2. closure: per disk, summing every window reproduces the end-of-run
//      aggregates exactly — the nine states tile [0, EndMs], the service
//      state equals DiskStats::BusyMs, the six in-gap states equal
//      DiskStats::IdleMsTotal, and the eight energy categories equal the
//      EnergyLedger categories (1e-9 relative, the ledger's own audit
//      slack);
//   3. overhead: total simulator wall time with the recorder ON stays
//      within 10% of OFF (min-of-3 per run, measurement floor, skipped
//      under sanitizers). The recorder adds two range-splits and a
//      window-vector probe per fragment — the same order of work as
//      attribution, so it shares attribution's calibrated 10% gate
//      rationale (bench/attribution.cpp): tight enough to catch a
//      reintroduced per-span map walk (+15% or worse), loose enough not
//      to flake on shared-core CI.
//
// When DRA_BENCH_JSON is set, the recorder contents are also written as
// <dir>/timeline.json ("dra-timeline-v1") so the CI regression gate can
// diff per-disk totals and window/gap counts against bench/baselines.
// The artifact recorder uses 10-second windows to keep the baseline
// compact; the closure and identity gates run on the default width.
//
// Any violation exits nonzero.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "obs/Timeline.h"

#include <chrono>
#include <cmath>

using namespace dra;

namespace {

double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

constexpr double MeasureFloorMs = 50.0;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool TimeGateMeaningful = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool TimeGateMeaningful = false;
#else
constexpr bool TimeGateMeaningful = true;
#endif
#else
constexpr bool TimeGateMeaningful = true;
#endif

struct SimLeg {
  double WallMs = 0.0;
  SimResults Res;
};

SimLeg runSim(const Pipeline &Pipe, Scheme S, const Trace &T,
              const std::string &Label, TimelineRecorder *TL) {
  SimLeg L;
  SimEngine Engine(Pipe.layout(), Pipe.config().Disk, schemePolicy(S),
                   Pipe.config().Cache, nullptr, Label,
                   /*Attribution=*/false, TL);
  double T0 = nowMs();
  L.Res = Engine.run(T);
  L.WallMs = nowMs() - T0;
  return L;
}

std::string renderObservables(const SimResults &R) {
  JsonWriter W;
  writeSimResultsJson(W, R);
  return W.take();
}

bool close(double X, double Y, double RelTol) {
  return std::fabs(X - Y) <= RelTol * std::max({1.0, std::fabs(X),
                                                std::fabs(Y)});
}

/// Closure gate: the windows of \p Run must reproduce \p Res per disk.
bool timelineCloses(const char *App, const char *SchemeName,
                    const RunTimeline &Run, const SimResults &Res) {
  bool Ok = true;
  auto Fail = [&](unsigned D, const char *What, double Got, double Want) {
    std::fprintf(stderr,
                 "FAIL %s %s disk %u: timeline %s = %.9g, aggregate "
                 "= %.9g\n",
                 App, SchemeName, D, What, Got, Want);
    Ok = false;
  };
  if (Run.Disks.size() != Res.PerDisk.size()) {
    std::fprintf(stderr, "FAIL %s %s: timeline has %zu disks, sim %zu\n",
                 App, SchemeName, Run.Disks.size(), Res.PerDisk.size());
    return false;
  }
  for (unsigned D = 0; D != Run.Disks.size(); ++D) {
    const DiskStats &S = Res.PerDisk[D];
    double StateMs[NumTimelineStates] = {};
    double EnergyJ[NumTimelineEnergyCats] = {};
    for (const TimelineWindow &W : Run.Disks[D].Windows) {
      for (unsigned I = 0; I != NumTimelineStates; ++I)
        StateMs[I] += W.StateMs[I];
      for (unsigned I = 0; I != NumTimelineEnergyCats; ++I)
        EnergyJ[I] += W.EnergyJ[I];
    }
    // State occupancy: service == BusyMs, the six in-gap states ==
    // IdleMsTotal, and everything together tiles [0, EndMs]. Time spans
    // are split additively (residual-to-last-window), so the slack is
    // pure summation noise.
    double InGapMs = StateMs[TlIdle] + StateMs[TlIdleLow] +
                     StateMs[TlSpinDown] + StateMs[TlStandby] +
                     StateMs[TlSpinUp] + StateMs[TlRpmStep];
    double TotalMs = 0.0;
    for (double M : StateMs)
      TotalMs += M;
    if (!close(StateMs[TlService], S.BusyMs, 1e-9))
      Fail(D, "service ms", StateMs[TlService], S.BusyMs);
    if (!close(InGapMs, S.IdleMsTotal, 1e-9))
      Fail(D, "in-gap ms", InGapMs, S.IdleMsTotal);
    if (!close(TotalMs, Run.EndMs, 1e-9))
      Fail(D, "total state ms", TotalMs, Run.EndMs);
    // Energy: the eight categories against the ledger, idle collapsed
    // over RPM levels.
    double IdleJ = 0.0;
    for (const auto &[Rpm, J] : S.Ledger.IdleByRpmJ) {
      (void)Rpm;
      IdleJ += J;
    }
    const struct {
      const char *Name;
      double Got, Want;
    } Cats[] = {
        {"active_read_j", EnergyJ[TlEActiveRead], S.Ledger.ActiveReadJ},
        {"active_write_j", EnergyJ[TlEActiveWrite], S.Ledger.ActiveWriteJ},
        {"idle_j", EnergyJ[TlEIdle], IdleJ},
        {"spin_down_j", EnergyJ[TlESpinDown], S.Ledger.SpinDownJ},
        {"spin_up_j", EnergyJ[TlESpinUp], S.Ledger.SpinUpJ},
        {"standby_j", EnergyJ[TlEStandby], S.Ledger.StandbyJ},
        {"rpm_step_j", EnergyJ[TlERpmStep], S.Ledger.RpmStepJ},
        {"ready_penalty_j", EnergyJ[TlEReadyPenalty],
         S.Ledger.ReadyPenaltyJ},
    };
    for (const auto &C : Cats)
      if (!close(C.Got, C.Want, 1e-9))
        Fail(D, C.Name, C.Got, C.Want);
  }
  return Ok;
}

} // namespace

int main() {
  std::printf("== Timeline recorder: identity, closure and overhead ==\n\n");
  PipelineConfig Cfg = paperConfig(1);
  std::vector<AppUnderTest> Apps = paperApps(benchScale());
  std::vector<Scheme> Schemes = singleProcSchemes();

  // The artifact recorder accumulates (app, scheme) runs with one label
  // per pair; 10 s windows and an app cap keep the committed baseline in
  // the same size band as the figure baselines (gap events dominate the
  // document: every idle gap is a time-stamped record). The closure and
  // identity gates above still cover every app.
  constexpr size_t ArtifactApps = 2;
  TimelineRecorder Artifact(10000.0);

  double OffTotal = 0.0, OnTotal = 0.0;
  uint64_t TotalWindows = 0, TotalRequests = 0;
  bool Ok = true;
  std::printf("  %-14s %-9s %10s %10s %9s\n", "app", "scheme", "off-ms",
              "on-ms", "windows");
  for (size_t AppIdx = 0; AppIdx != Apps.size(); ++AppIdx) {
    const AppUnderTest &App = Apps[AppIdx];
    Program P = App.Build();
    Pipeline Pipe(P, Cfg);
    for (Scheme S : Schemes) {
      Trace T = Pipe.trace(S);
      std::string Label = App.Name + " " + schemeName(S);

      TimelineRecorder TL; // Default width: the closure-gate recorder.
      SimLeg Off = runSim(Pipe, S, T, Label, nullptr);
      SimLeg On = runSim(Pipe, S, T, Label, &TL);
      for (int Rep = 0; Rep != 2; ++Rep) {
        Off.WallMs =
            std::min(Off.WallMs, runSim(Pipe, S, T, Label, nullptr).WallMs);
        TimelineRecorder Scratch;
        On.WallMs =
            std::min(On.WallMs, runSim(Pipe, S, T, Label, &Scratch).WallMs);
      }
      OffTotal += Off.WallMs;
      OnTotal += On.WallMs;

      if (renderObservables(Off.Res) != renderObservables(On.Res)) {
        std::fprintf(stderr,
                     "FAIL %s %s: recorder perturbs the reported results\n",
                     App.Name.c_str(), schemeName(S));
        Ok = false;
      }
      if (TL.runs().size() != 1) {
        std::fprintf(stderr, "FAIL %s %s: expected 1 recorded run, got %zu\n",
                     App.Name.c_str(), schemeName(S), TL.runs().size());
        Ok = false;
      } else if (!timelineCloses(App.Name.c_str(), schemeName(S),
                                 TL.runs().front(), On.Res)) {
        Ok = false;
      }

      size_t Windows = 0;
      if (!TL.runs().empty())
        for (const DiskTimeline &D : TL.runs().front().Disks)
          Windows += D.Windows.size();
      TotalWindows += Windows;
      for (const DiskStats &D : On.Res.PerDisk)
        TotalRequests += D.NumRequests;
      std::printf("  %-14s %-9s %10.2f %10.2f %9zu\n", App.Name.c_str(),
                  schemeName(S), Off.WallMs, On.WallMs, Windows);

      // The artifact run is separate so its coarse windows don't couple
      // the regression baseline to the closure-gate width.
      if (AppIdx < ArtifactApps)
        runSim(Pipe, S, T, Label, &Artifact);
    }
  }
  if (Ok)
    std::printf("\n  [ok] recorder-on results byte-identical to off; "
                "window closure verified over %llu windows\n",
                static_cast<unsigned long long>(TotalWindows));

  double EffOff = std::max(OffTotal, MeasureFloorMs);
  double EffOn = std::max(OnTotal, MeasureFloorMs);
  std::printf("  simulator totals: off %.2f ms, on %.2f ms over %llu "
              "requests (overhead %+.2f%%, %+.1f ns/request, floor "
              "%.0f ms)\n",
              OffTotal, OnTotal,
              static_cast<unsigned long long>(TotalRequests),
              (EffOn / EffOff - 1.0) * 100.0,
              (OnTotal - OffTotal) * 1e6 /
                  double(std::max<uint64_t>(TotalRequests, 1)),
              MeasureFloorMs);
  if (!TimeGateMeaningful) {
    std::printf("  [skipped] time gate not meaningful under sanitizers\n");
  } else if (EffOn > 1.10 * EffOff) {
    std::fprintf(stderr,
                 "FAIL timeline overhead: on %.2f ms > 10%% over off "
                 "%.2f ms\n",
                 EffOn, EffOff);
    Ok = false;
  } else {
    std::printf("  [ok] timeline overhead within 10%%\n");
  }

  if (const char *Dir = std::getenv("DRA_BENCH_JSON")) {
    std::string Path = writeArtifact(Dir, "timeline", "json",
                                     renderTimelineJson(Artifact, "bench"));
    std::printf("(timeline of the first %zu apps written to %s)\n",
                std::min(ArtifactApps, Apps.size()), Path.c_str());
  }
  return Ok ? 0 : 1;
}
