//===- tools/drac.cpp - Disk-reuse-aware compiler driver --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// The command-line face of the framework: parse a pseudo-language source
// file, compile it through the paper's pipeline, and report the energy and
// performance of the requested versions.
//
// Usage:
//   drac <file.dra> [options]
//     --procs N        simulate N processors (default 1)
//     --scheme NAME    run one version (Base, TPM, DRPM, T-TPM-s,
//                      T-DRPM-s, T-TPM-m, T-DRPM-m); default: all
//     --print-program  pretty-print the parsed program
//     --print-code     print the restructured pseudo-code (re-rolled bands)
//     --dump-trace F   write the (last) version's I/O trace to file F
//     --verify         run the full verification pipeline (IR, layout and
//                      schedule-legality checks) on every compiled version,
//                      streaming remarks to stderr; exit 1 on any violation
//     --trace-json F   write a Chrome trace_event timeline of the run
//                      (compiler passes + per-disk power states) to F
//     --metrics-json F write the metrics registry (pass wall times,
//                      scheduler counters) to F
//     --report-json F  write the dra-report-v1 run report to F: every
//                      run's sim results with its energy ledger section
//                      (per-category joules + idle-gap analytics) and
//                      source attribution section (per-nest/per-reference
//                      joules and times, docs/OBSERVABILITY.md
//                      "Attribution"), plus the app's dra-footprint-v1
//                      body (per-nest/per-reference tile counts, per-disk
//                      demand, symbolic coverage)
//     --flame F        write the source-attributed energy as collapsed
//                      flame stacks (app;scheme;nest;ref;disk;category
//                      joules; speedscope/flamegraph.pl) to F
//     --timings        print every timed pass's exclusive host wall time
//                      (stable pass order, trace-gen and simulate
//                      included) and ready-bucket scheduler round counts
//                      after the energy table (docs/PERFORMANCE.md)
//     --timeline-json F
//                      write the dra-timeline-v1 simulated-time series
//                      (per-disk power-state/energy windows, gap events,
//                      per-phase latency; docs/OBSERVABILITY.md "Time
//                      series & SLOs") to F
//     --timeline-window MS
//                      timeline window width in simulated ms (default 1000)
//
// Multi-tenant mode (docs/FORMATS.md, dra-tenants-v1) — consolidate several
// applications onto one storage system (trace/TenantMerge.h):
//   drac --tenants <spec.json> [options]
//     The spec names the tenant programs, labels and start offsets; each
//     tenant is compiled separately, the traces are merged (per-tenant
//     barrier scoping, relocated files, "label/" attribution prefixes) and
//     the merged workload is simulated once. --scheme/--procs override the
//     spec; --dump-trace and every report/timeline artifact option above
//     apply to the merged run.
//
// Comparing saved reports is dra-compare's job and serving a request
// stream is dra-serve's; the flags drac once had for them, for the retired
// simulator and footprint selectors, and for the standalone ledger,
// attribution and footprint documents the report now carries, exit 2
// naming the replacement (RemovedFlags below).
//
// Sweep mode (docs/SWEEPS.md) — no source file argument:
//   drac --sweep <spec.json> [options]
//     --jobs N         worker threads (default: hardware concurrency);
//                      the aggregate output is byte-identical for every N
//     --sweep-out F    write the dra-sweep-v1 aggregate report to F
//                      (default: stdout)
//     --timings        include per-job host wall time in the aggregate
//                      (breaks the byte-identical guarantee)
//     --sweep-telemetry DIR
//                      per-job trace/metrics/report JSON artifacts under
//                      DIR (distinct files per job)
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/ScheduleCodeGen.h"
#include "driver/ExperimentRunner.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "obs/Tracer.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "trace/TenantMerge.h"
#include "trace/TraceIO.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace dra;

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.dra> [--procs N] [--scheme NAME] "
               "[--print-program] [--print-code] [--dump-trace FILE] "
               "[--verify] [--trace-json FILE] [--metrics-json FILE] "
               "[--report-json FILE] [--flame FILE] "
               "[--timeline-json FILE] [--timeline-window MS] [--timings]\n"
               "       %s --tenants <spec.json> [--scheme NAME] [--procs N] "
               "[--dump-trace FILE] "
               "[--report-json FILE] [--flame FILE] "
               "[--timeline-json FILE] [--timeline-window MS]\n"
               "       %s --sweep <spec.json> [--jobs N] [--sweep-out FILE] "
               "[--timings] [--sweep-telemetry DIR]\n",
               Argv0, Argv0, Argv0);
  return 2;
}

/// Flags of retired drac modes and selectors. Each is a usage error (exit 2)
/// whose one line names what replaced it.
static constexpr struct {
  const char *Flag;
  const char *Replacement;
} RemovedFlags[] = {
    {"--online", "serve request streams with dra-serve <stream.json>"},
    {"--record", "record sessions with dra-serve --record"},
    {"--compare", "compare reports with dra-compare <report.json>..."},
    {"--baseline-scheme", "use dra-compare --baseline-scheme"},
    {"--compare-json", "use dra-compare --json"},
    {"--no-attribution", "attribution is always recorded"},
    {"--sim-shards", "every run uses the serial simulator"},
    {"--sim-window", "every run uses the serial simulator"},
    {"--footprint-mode", "footprints always use the auto mode"},
    {"--ledger-json", "each run's ledger is a section of --report-json"},
    {"--attrib-json", "each run's attribution is a section of --report-json"},
    {"--footprint-json", "the footprint is the app's body in --report-json"},
};

/// Prints \p F as drac's artifact-write diagnostic; always returns 1.
static int artifactError(const ArtifactFailure &F) {
  std::fprintf(stderr, "error: cannot write %s to '%s'\n", F.What,
               F.Path.c_str());
  return 1;
}

/// Sweep mode: parse + validate the spec, expand, execute on the worker
/// pool, emit the dra-sweep-v1 aggregate. Exit 0 when every job succeeded,
/// 1 when the spec is invalid or any job failed (the report is still
/// written in full: one failed job is reported, not fatal).
static int runSweep(const std::string &SpecPath, unsigned Jobs,
                    const std::string &SweepOut, bool Timings,
                    const std::string &TelemetryDir) {
  std::optional<std::string> Text = readFile(SpecPath);
  if (!Text) {
    std::fprintf(stderr, "drac: error: cannot read sweep spec '%s'\n",
                 SpecPath.c_str());
    return 1;
  }

  DiagnosticEngine DE;
  StreamingConsumer Stream(std::cerr);
  DE.addConsumer(&Stream);
  std::optional<SweepSpec> Spec = SweepSpec::parse(*Text, DE);
  if (!Spec) {
    std::fprintf(stderr, "drac: error: invalid sweep spec '%s' (%llu errors)\n",
                 SpecPath.c_str(), (unsigned long long)DE.numErrors());
    return 1;
  }
  std::optional<std::vector<SweepJob>> Expanded = Spec->expand(DE);
  if (!Expanded)
    return 1;

  SweepOptions Opts;
  Opts.Workers = Jobs;
  Opts.TelemetryDir = TelemetryDir;
  std::fprintf(stderr, "drac: sweep of %zu jobs on %u workers...\n",
               Expanded->size(), Opts.Workers);
  std::vector<JobOutcome> Outcomes = ExperimentRunner(Opts).run(*Expanded);

  unsigned Failed = 0;
  for (const JobOutcome &O : Outcomes) {
    if (!O.Ok) {
      ++Failed;
      std::fprintf(stderr, "drac: job %zu (%s, %s) failed: %s\n",
                   size_t(&O - Outcomes.data()), O.Point.App.c_str(),
                   schemeName(O.Point.S), O.Error.c_str());
    }
  }

  std::string Doc = renderSweepJson(*Spec, Outcomes, Timings);
  if (SweepOut.empty()) {
    std::printf("%s\n", Doc.c_str());
  } else if (!writeFile(SweepOut, Doc)) {
    std::fprintf(stderr, "error: cannot write sweep report to '%s'\n",
                 SweepOut.c_str());
    return 1;
  }
  std::fprintf(stderr, "drac: sweep done, %zu jobs, %u failed\n",
               Outcomes.size(), Failed);
  return Failed == 0 ? 0 : 1;
}

/// Multi-tenant mode (trace/TenantMerge.h): compile every tenant of the
/// dra-tenants-v1 spec separately, merge the traces onto one shared storage
/// system and simulate the merged workload once.
static int runTenants(const std::string &SpecPath, Scheme S, bool SchemeSet,
                      unsigned Procs, bool ProcsSet,
                      const std::string &DumpTrace,
                      const std::string &ReportJson,
                      const std::string &FlameOut,
                      const std::string &TimelineJson,
                      unsigned TimelineWindowMs) {
  std::optional<std::string> Text = readFile(SpecPath);
  if (!Text) {
    std::fprintf(stderr, "drac: error: cannot read tenant spec '%s'\n",
                 SpecPath.c_str());
    return 1;
  }
  JsonValue Doc;
  std::string Error;
  if (!parseJson(*Text, Doc, Error) || !Doc.isObject()) {
    std::fprintf(stderr, "drac: error: tenant spec '%s' is not a JSON "
                         "object: %s\n",
                 SpecPath.c_str(), Error.c_str());
    return 1;
  }
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "dra-tenants-v1") {
    std::fprintf(stderr, "drac: error: tenant spec schema must be "
                         "\"dra-tenants-v1\"\n");
    return 1;
  }
  if (const JsonValue *V = Doc.find("scheme"); V && !SchemeSet) {
    if (!V->isString() || !schemeByName(V->Str, S)) {
      std::fprintf(stderr, "drac: error: unknown tenant spec scheme\n");
      return 1;
    }
  }
  if (const JsonValue *V = Doc.find("procs"); V && !ProcsSet) {
    if (!V->isNumber() || V->Num != double(unsigned(V->Num)) ||
        unsigned(V->Num) < 1) {
      std::fprintf(stderr, "drac: error: tenant spec 'procs' must be a "
                           "positive integer\n");
      return 1;
    }
    Procs = unsigned(V->Num);
  }
  const JsonValue *TenantsV = Doc.find("tenants");
  if (!TenantsV || !TenantsV->isArray() || TenantsV->Arr.empty()) {
    std::fprintf(stderr, "drac: error: tenant spec needs a non-empty "
                         "'tenants' array\n");
    return 1;
  }

  std::string BaseDir = std::filesystem::path(SpecPath).parent_path().string();
  struct TenantSpec {
    std::string File, Label;
    double StartMs = 0.0;
  };
  std::vector<TenantSpec> Specs;
  for (const JsonValue &TV : TenantsV->Arr) {
    if (!TV.isObject()) {
      std::fprintf(stderr, "drac: error: tenant entries must be objects\n");
      return 1;
    }
    TenantSpec TS;
    const JsonValue *File = TV.find("file");
    if (!File || !File->isString()) {
      std::fprintf(stderr, "drac: error: each tenant needs a 'file'\n");
      return 1;
    }
    std::filesystem::path P(File->Str);
    TS.File = P.is_absolute() || BaseDir.empty()
                  ? P.string()
                  : (std::filesystem::path(BaseDir) / P).string();
    TS.Label = std::filesystem::path(File->Str).stem().string();
    if (const JsonValue *L = TV.find("label"); L && L->isString())
      TS.Label = L->Str;
    if (const JsonValue *M = TV.find("start_ms")) {
      if (!M->isNumber() || M->Num < 0) {
        std::fprintf(stderr, "drac: error: tenant 'start_ms' must be a "
                             "non-negative number\n");
        return 1;
      }
      TS.StartMs = M->Num;
    }
    Specs.push_back(std::move(TS));
  }

  try {
    // One pipeline per tenant; all share the machine configuration, so the
    // merged layouts are compatible by construction.
    PipelineConfig Cfg;
    Cfg.NumProcs = Procs;
    std::vector<std::unique_ptr<Pipeline>> Pipes;
    std::vector<Program> Programs;
    std::vector<Trace> Traces;
    Programs.reserve(Specs.size());
    Traces.reserve(Specs.size());
    for (const TenantSpec &TS : Specs) {
      std::string ParseError;
      std::optional<Program> P = Parser::parseFile(TS.File, ParseError);
      if (!P) {
        std::fprintf(stderr, "%s: error: %s\n", TS.File.c_str(),
                     ParseError.c_str());
        return 1;
      }
      Programs.push_back(std::move(*P));
      Pipes.push_back(std::make_unique<Pipeline>(Programs.back(), Cfg));
      Traces.push_back(Pipes.back()->trace(S));
    }
    std::vector<TenantInput> Inputs;
    for (size_t T = 0; T != Specs.size(); ++T) {
      TenantInput TI;
      TI.Label = Specs[T].Label;
      TI.Prog = &Pipes[T]->program();
      TI.Replay = &Traces[T];
      TI.Layout = &Pipes[T]->layout();
      TI.Names = attributionNamesOf(Pipes[T]->program());
      TI.StartMs = Specs[T].StartMs;
      Inputs.push_back(std::move(TI));
    }
    MergedWorkload W = mergeTenants(Inputs);

    TimelineRecorder Timeline{double(TimelineWindowMs)};
    PipelineConfig SimCfg = Cfg;
    if (!TimelineJson.empty())
      SimCfg.Timeline = &Timeline;
    SchemeRun Run;
    Run.S = S;
    Run.Sim = simulateScheme(S, W.Layout, SimCfg, W.Replay);
    Run.AttribNames = W.Names;
    Run.TraceRequests = W.Replay.size();
    Run.TraceBytes = W.Replay.totalBytes();

    TextTable T({"Tenant", "Procs", "Requests", "Start (ms)"});
    for (size_t I = 0; I != Inputs.size(); ++I)
      T.addRow({W.TenantLabels[I],
                fmtGrouped(Inputs[I].Replay->numProcs()),
                fmtGrouped(Inputs[I].Replay->size()),
                fmtDouble(Inputs[I].StartMs, 0)});
    std::printf("%s", T.render().c_str());
    std::printf("%s (%zu tenants): %s J, disk I/O %s s, wall %s s, "
                "%s spin-downs, %s RPM steps\n",
                schemeName(S), Inputs.size(),
                fmtDouble(Run.Sim.EnergyJ, 1).c_str(),
                fmtDouble(Run.Sim.IoTimeMs / 1000.0, 1).c_str(),
                fmtDouble(Run.Sim.WallTimeMs / 1000.0, 1).c_str(),
                fmtGrouped(Run.Sim.SpinDowns).c_str(),
                fmtGrouped(Run.Sim.RpmSteps).c_str());

    if (!DumpTrace.empty() && !writeTraceFile(W.Replay, DumpTrace)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   DumpTrace.c_str());
      return 1;
    }
    AppResults App;
    App.Name = SpecPath;
    App.Runs.push_back(Run);
    PipelineConfig RepCfg = Cfg;
    RepCfg.NumProcs = W.Replay.numProcs();
    RunArtifacts Out;
    Out.ReportPath = ReportJson;
    Out.FlamePath = FlameOut;
    Out.TimelinePath = TimelineJson;
    Out.Timeline = &Timeline;
    if (auto Failure = writeRunArtifacts(Out, RepCfg, App, "drac"))
      return artifactError(*Failure);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "drac: error: %s\n", E.what());
    return 1;
  }
  return 0;
}

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);

  std::string Path;
  unsigned Procs = 1;
  bool PrintProgram = false, PrintCode = false, Verify = false;
  bool Timings = false;
  unsigned Jobs = std::max(1u, std::thread::hardware_concurrency());
  std::string DumpTrace, TraceJson, MetricsJson, ReportJson, FlameOut;
  std::string TimelineJson;
  unsigned TimelineWindowMs = 1000;
  std::string SweepSpecPath, SweepOut, SweepTelemetry;
  std::vector<Scheme> Schemes;
  std::string TenantsSpecPath;
  bool ProcsGiven = false;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    for (const auto &R : RemovedFlags) {
      if (Arg == R.Flag) {
        std::fprintf(stderr, "error: %s was removed: %s\n", R.Flag,
                     R.Replacement);
        return 2;
      }
    }
    if (Arg == "--sweep" && I + 1 != argc) {
      SweepSpecPath = argv[++I];
    } else if (Arg == "--jobs" && I + 1 != argc) {
      if (!parseUnsigned(argv[I + 1], Jobs, 1, 1024)) {
        std::fprintf(stderr,
                     "error: --jobs expects an integer in [1, 1024], "
                     "got '%s'\n",
                     argv[I + 1]);
        return 2;
      }
      ++I;
    } else if (Arg == "--sweep-out" && I + 1 != argc) {
      SweepOut = argv[++I];
    } else if (Arg == "--timings") {
      Timings = true;
    } else if (Arg == "--sweep-telemetry" && I + 1 != argc) {
      SweepTelemetry = argv[++I];
    } else if (Arg == "--procs" && I + 1 != argc) {
      if (!parseUnsigned(argv[++I], Procs, 1, 4096)) {
        std::fprintf(stderr,
                     "error: --procs expects an integer in [1, 4096], "
                     "got '%s'\n",
                     argv[I]);
        return 2;
      }
      ProcsGiven = true;
    } else if (Arg == "--tenants" && I + 1 != argc) {
      TenantsSpecPath = argv[++I];
    } else if (Arg == "--scheme" && I + 1 != argc) {
      Scheme S;
      if (!schemeByName(argv[++I], S)) {
        std::fprintf(stderr, "error: unknown scheme '%s'\n", argv[I]);
        return 2;
      }
      Schemes.push_back(S);
    } else if (Arg == "--print-program") {
      PrintProgram = true;
    } else if (Arg == "--verify") {
      Verify = true;
    } else if (Arg == "--print-code") {
      PrintCode = true;
    } else if (Arg == "--dump-trace" && I + 1 != argc) {
      DumpTrace = argv[++I];
    } else if (Arg == "--trace-json" && I + 1 != argc) {
      TraceJson = argv[++I];
    } else if (Arg == "--metrics-json" && I + 1 != argc) {
      MetricsJson = argv[++I];
    } else if (Arg == "--report-json" && I + 1 != argc) {
      ReportJson = argv[++I];
    } else if (Arg == "--flame" && I + 1 != argc) {
      FlameOut = argv[++I];
    } else if (Arg == "--timeline-json" && I + 1 != argc) {
      TimelineJson = argv[++I];
    } else if (Arg == "--timeline-window" && I + 1 != argc) {
      if (!parseUnsigned(argv[++I], TimelineWindowMs, 1)) {
        std::fprintf(stderr,
                     "error: --timeline-window expects a positive integer "
                     "(simulated ms), got '%s'\n",
                     argv[I]);
        return 2;
      }
    } else if (Arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (!TenantsSpecPath.empty()) {
    if (!Path.empty() || !SweepSpecPath.empty() || Schemes.size() > 1)
      return usage(argv[0]);
    Scheme S = Schemes.empty() ? Scheme::Base : Schemes.front();
    return runTenants(TenantsSpecPath, S, !Schemes.empty(), Procs, ProcsGiven,
                      DumpTrace, ReportJson, FlameOut, TimelineJson,
                      TimelineWindowMs);
  }
  if (!SweepSpecPath.empty()) {
    if (!Path.empty()) // Sweep mode takes its programs from the spec.
      return usage(argv[0]);
    return runSweep(SweepSpecPath, Jobs, SweepOut, Timings, SweepTelemetry);
  }
  if (Path.empty())
    return usage(argv[0]);
  if (Schemes.empty())
    Schemes = Procs > 1 ? allSchemes() : singleProcSchemes();

  std::string Error;
  auto P = Parser::parseFile(Path, Error);
  if (!P) {
    std::fprintf(stderr, "%s: error: %s\n", Path.c_str(), Error.c_str());
    return 1;
  }
  if (PrintProgram)
    std::printf("%s\n", printProgram(*P).c_str());

  PipelineConfig Cfg;
  Cfg.NumProcs = Procs;
  if (Verify)
    Cfg.Verify = VerifyLevel::Full;

  // Telemetry sinks are created only when requested, so the default run
  // takes the zero-overhead no-sink path (docs/OBSERVABILITY.md).
  EventTracer Tracer;
  MetricsRegistry Metrics;
  TimelineRecorder Timeline{double(TimelineWindowMs)};
  if (!TraceJson.empty())
    Cfg.Trace = &Tracer;
  if (!MetricsJson.empty() || Timings)
    Cfg.Metrics = &Metrics;
  if (!TimelineJson.empty())
    Cfg.Timeline = &Timeline;

  try {
    Pipeline Pipe(*P, Cfg);
    // The constructor already verified the IR and layout; replay those
    // diagnostics, then stream everything later stages produce.
    StreamingConsumer Stream(std::cerr);
    if (Verify) {
      for (const Diagnostic &D : Pipe.collectedDiags().diagnostics())
        Stream.handle(D);
      Pipe.diags().addConsumer(&Stream);
    }

    TextTable T({"Version", "Energy (J)", "vs Base", "Disk I/O (s)",
                 "Wall (s)", "Spin-downs", "RPM steps", "Rounds"});
    // Each scheme compiles once: the work feeds --print-code and the trace
    // feeds --dump-trace (the last scheme's) as well as the simulation.
    std::optional<Trace> Dumped;
    auto runScheme = [&](Scheme S) {
      ScheduledWork W = Pipe.compile(S);
      Trace Tr = Pipe.trace(S, W);
      SchemeRun R = Pipe.simulate(S, W, Tr);
      if (PrintCode && schemeRestructures(S)) {
        ScheduleCodeGen CG(Pipe.program(), Pipe.space());
        for (size_t Proc = 0; Proc != W.PerProc.size(); ++Proc) {
          Schedule Sch;
          Sch.Order = W.PerProc[Proc];
          std::printf("-- %s, processor %zu --\n%s\n", schemeName(S), Proc,
                      CG.printBands(CG.rollBands(Sch)).c_str());
        }
      }
      if (!DumpTrace.empty() && S == Schemes.back())
        Dumped = std::move(Tr);
      return R;
    };
    // Base runs exactly once (it is the normalization reference); if it is
    // also in the requested scheme list, the run is reused rather than
    // repeated so the telemetry timeline has one process per scheme.
    SchemeRun BaseRun = runScheme(Scheme::Base);
    double BaseE = BaseRun.Sim.EnergyJ;
    AppResults App;
    App.Name = Path;
    App.FootprintJson = Pipe.footprint().renderJson();
    for (Scheme S : Schemes) {
      SchemeRun R = S == Scheme::Base ? BaseRun : runScheme(S);
      App.Runs.push_back(R);
      T.addRow({schemeName(S), fmtDouble(R.Sim.EnergyJ, 1),
                fmtPercent(R.Sim.EnergyJ / BaseE - 1.0),
                fmtDouble(R.Sim.IoTimeMs / 1000.0, 1),
                fmtDouble(R.Sim.WallTimeMs / 1000.0, 1),
                fmtGrouped(R.Sim.SpinDowns), fmtGrouped(R.Sim.RpmSteps),
                fmtGrouped(R.SchedulerRounds)});
    }
    if (Dumped && !writeTraceFile(*Dumped, DumpTrace)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   DumpTrace.c_str());
      return 1;
    }
    std::printf("%s", T.render().c_str());
    if (Timings) {
      // Stable pass order (pipeline execution order), so runs diff
      // cleanly; the same histograms back the JSON exports.
      TextTable TT({"Pass", "Runs", "Total (ms)", "Mean (ms)"});
      for (const char *Pass : TimedPasses) {
        const Histogram *H =
            Metrics.findHistogram(std::string("pass.") + Pass + ".wall_ms");
        if (!H)
          continue;
        RunningStats S = H->stats();
        TT.addRow({Pass, fmtGrouped(S.count()), fmtDouble(S.sum(), 3),
                   fmtDouble(S.mean(), 3)});
      }
      std::printf("\nPass timings (exclusive host wall, all compiled "
                  "schemes):\n%s",
                  TT.render().c_str());
      const Counter *Inv = Metrics.findCounter("scheduler.invocations");
      const Counter *Rounds = Metrics.findCounter("scheduler.rounds_total");
      const Histogram *Depth =
          Metrics.findHistogram("scheduler.round_queue_depth");
      if (Inv && Rounds)
        std::printf("scheduler: %s invocations, %s ready-bucket rounds, "
                    "mean round queue depth %s\n",
                    fmtGrouped(Inv->value()).c_str(),
                    fmtGrouped(Rounds->value()).c_str(),
                    Depth ? fmtDouble(Depth->stats().mean(), 1).c_str()
                          : "n/a");
    }
    if (!DumpTrace.empty())
      std::printf("\ntrace of %s written to %s\n", schemeName(Schemes.back()),
                  DumpTrace.c_str());
    if (Verify) {
      const DiagnosticEngine &DE = Pipe.diags();
      std::fprintf(stderr,
                   "verification: %llu remarks, %llu warnings, 0 errors\n",
                   (unsigned long long)DE.count(DiagSeverity::Remark),
                   (unsigned long long)DE.count(DiagSeverity::Warning));
    }

    RunArtifacts Out;
    Out.ChromeTracePath = TraceJson;
    Out.MetricsPath = MetricsJson;
    Out.ReportPath = ReportJson;
    Out.FlamePath = FlameOut;
    Out.TimelinePath = TimelineJson;
    Out.Tracer = &Tracer;
    Out.Metrics = &Metrics;
    Out.Timeline = &Timeline;
    if (auto Failure = writeRunArtifacts(Out, Cfg, App, "drac"))
      return artifactError(*Failure);
  } catch (const VerificationError &E) {
    std::fprintf(stderr, "drac: %s\n", E.what());
    return 1;
  } catch (const std::invalid_argument &E) {
    // Config-time rejections (e.g. a program past the iteration limit) are
    // user errors, not crashes.
    std::fprintf(stderr, "drac: error: %s\n", E.what());
    return 1;
  }
  return 0;
}
