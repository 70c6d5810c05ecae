//===- tools/dra_serve.cpp - Online serving driver --------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Streaming front end of the framework (docs/SERVING.md): read a
// dra-stream-v1 request stream (or a recorded dra-session-v1), run it
// through the incremental scheduler tick by tick, simulate the cumulative
// schedule, and emit the same machine-readable artifacts a batch drac run
// produces. Replaying a recorded session is byte-for-byte deterministic;
// the online-replay CI lane diffs the artifacts to enforce it.
//
// Usage:
//   dra-serve <stream.json|session.json> [options]
//     --record F       write the normalized dra-session-v1 record to F
//                      (program source inlined; replaying it reproduces
//                      this run byte for byte)
//     --report-json F  write the dra-report-v1 run report to F (its run
//                      carries the energy ledger and source attribution
//                      sections, its app the dra-footprint-v1 body)
//     --flame F        write collapsed flame stacks to F
//     --metrics-json F write the dra-metrics-v1 serve counters to F
//     --timeline-json F  write the dra-timeline-v1 time series to F
//                        (per-disk power-state windows plus the serving
//                        section: per-tick dispatch-lag and completion
//                        latency percentiles)
//     --timeline-window MS  simulated-time window width (default 1000)
//     --slo F          evaluate the dra-slo-v1 spec in F per window of
//                      ticks; violations print as "serve-slo" diagnostics
//                      and the exit code is 3
//     --quiet          suppress the per-tick table
//
// Exit codes: 0 ok, 1 session/export error, 2 usage, 3 SLO violation.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "serve/ServeTelemetry.h"
#include "serve/SessionRunner.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

using namespace dra;

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <stream.json|session.json> [--record FILE] "
               "[--report-json FILE] [--flame FILE] [--metrics-json FILE] "
               "[--timeline-json FILE] [--timeline-window MS] [--slo FILE] "
               "[--quiet]\n",
               Argv0);
  return 2;
}

int main(int argc, char **argv) {
  std::string Path, Record, ReportJson, FlameOut;
  std::string MetricsJson, TimelineJson, SloFile;
  unsigned TimelineWindowMs = 1000;
  bool Quiet = false;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--record" && I + 1 != argc) {
      Record = argv[++I];
    } else if (Arg == "--report-json" && I + 1 != argc) {
      ReportJson = argv[++I];
    } else if (Arg == "--flame" && I + 1 != argc) {
      FlameOut = argv[++I];
    } else if (Arg == "--metrics-json" && I + 1 != argc) {
      MetricsJson = argv[++I];
    } else if (Arg == "--timeline-json" && I + 1 != argc) {
      TimelineJson = argv[++I];
    } else if (Arg == "--timeline-window" && I + 1 != argc) {
      if (!parseUnsigned(argv[++I], TimelineWindowMs, 1))
        return usage(argv[0]);
    } else if (Arg == "--slo" && I + 1 != argc) {
      SloFile = argv[++I];
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (Path.empty())
    return usage(argv[0]);

  std::optional<std::string> Text = readFile(Path);
  if (!Text) {
    std::fprintf(stderr, "dra-serve: error: cannot read '%s'\n", Path.c_str());
    return 1;
  }

  DiagnosticEngine DE;
  StreamingConsumer Stream(std::cerr);
  DE.addConsumer(&Stream);

  std::string BaseDir = std::filesystem::path(Path).parent_path().string();
  std::optional<StreamSession> Session =
      parseStreamSession(*Text, DE, BaseDir);
  if (!Session) {
    std::fprintf(stderr, "dra-serve: error: invalid session '%s' (%llu "
                         "errors)\n",
                 Path.c_str(), (unsigned long long)DE.numErrors());
    return 1;
  }

  // Parse the SLO spec before running so a malformed spec fails fast.
  SloSpec Slo;
  bool HaveSlo = false;
  if (!SloFile.empty()) {
    std::optional<std::string> SloText = readFile(SloFile);
    if (!SloText) {
      std::fprintf(stderr, "dra-serve: error: cannot read SLO spec '%s'\n",
                   SloFile.c_str());
      return 1;
    }
    std::string SloError;
    if (!parseSloSpec(*SloText, Slo, SloError)) {
      std::fprintf(stderr, "dra-serve: error: invalid SLO spec '%s': %s\n",
                   SloFile.c_str(), SloError.c_str());
      return 1;
    }
    HaveSlo = true;
  }

  // Record before running: the normalized form is a pure function of the
  // parsed session, so the record is valid even if execution then fails.
  if (!Record.empty() && !writeFile(Record, renderSessionJson(*Session))) {
    std::fprintf(stderr, "dra-serve: error: cannot write session record to "
                         "'%s'\n",
                 Record.c_str());
    return 1;
  }

  // SLO completion metrics read the timeline's per-phase latency, so a
  // spec implies a recorder even without --timeline-json.
  MetricsRegistry Metrics;
  TimelineRecorder Timeline{double(TimelineWindowMs)};
  bool WantTimeline = !TimelineJson.empty() || HaveSlo;
  SessionRunner Runner(*Session, DE, /*Tracer=*/nullptr,
                       MetricsJson.empty() ? nullptr : &Metrics,
                       WantTimeline ? &Timeline : nullptr);
  SessionResult Result = Runner.run();
  if (!Result.Ok) {
    std::fprintf(stderr, "dra-serve: error: session failed (%llu errors)\n",
                 (unsigned long long)DE.numErrors());
    return 1;
  }
  const RunTimeline *Run0 =
      WantTimeline && !Timeline.runs().empty() ? &Timeline.runs().front()
                                               : nullptr;

  if (!Quiet)
    std::printf("%s",
                renderServeTickTable(Result.Ticks, Result.TickLags).c_str());
  const SchemeRun &Run = Result.Run;
  std::printf("%s: %s over %zu ticks: %s requests, %s J, disk I/O %s s, "
              "wall %s s\n",
              Result.ProgramName.c_str(), schemeName(Run.S),
              Result.Ticks.size(), fmtGrouped(Run.TraceRequests).c_str(),
              fmtDouble(Run.Sim.EnergyJ, 1).c_str(),
              fmtDouble(Run.Sim.IoTimeMs / 1000.0, 1).c_str(),
              fmtDouble(Run.Sim.WallTimeMs / 1000.0, 1).c_str());

  AppResults App;
  App.Name = Result.ProgramName;
  App.Runs.push_back(Run);
  App.FootprintJson = Result.FootprintJson;

  // Evaluate SLOs before writing the timeline so violations appear in it.
  std::vector<SloViolation> Violations;
  if (HaveSlo) {
    Violations = evaluateSlos(Slo, Result, Result.TickLags, Run0);
    reportSloViolations(DE, Violations);
  }
  RunArtifacts Out;
  Out.MetricsPath = MetricsJson;
  Out.ReportPath = ReportJson;
  Out.FlamePath = FlameOut;
  Out.TimelinePath = TimelineJson;
  Out.Metrics = &Metrics;
  Out.Timeline = &Timeline;
  if (!TimelineJson.empty())
    Out.ServingJson = renderServingJson(Result, Result.TickLags, Run0,
                                        HaveSlo ? &Slo : nullptr, Violations);
  if (auto Failure = writeRunArtifacts(Out, Runner.pipelineConfig(), App,
                                       "dra-serve")) {
    std::fprintf(stderr, "dra-serve: error: cannot write %s to '%s'\n",
                 Failure->What, Failure->Path.c_str());
    return 1;
  }
  if (!Violations.empty()) {
    std::fprintf(stderr, "dra-serve: %zu SLO violation%s (spec '%s')\n",
                 Violations.size(), Violations.size() == 1 ? "" : "s",
                 SloFile.c_str());
    return 3;
  }
  return 0;
}
