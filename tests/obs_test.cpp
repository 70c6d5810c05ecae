//===- tests/obs_test.cpp - Telemetry subsystem tests -----------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tracer/metrics/run-report behaviour, plus the three guarantees the
// subsystem makes: exported documents are valid JSON in their documented
// schemas, spans are well-formed (non-negative durations, proper nesting
// per thread), and telemetry never perturbs simulation results.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Telemetry.h"
#include "obs/Timeline.h"
#include "obs/Tracer.h"
#include "sim/SimEngine.h"
#include "support/Json.h"
#include "support/Parallel.h"
#include "trace/TenantMerge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>

using namespace dra;

namespace {

Program smallStencil() {
  ProgramBuilder B("small");
  int64_t N = 12;
  ArrayId A = B.addArray("A", {N, N});
  ArrayId C = B.addArray("C", {N, N});
  B.beginNest("s0", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(A, {iv(0), iv(1)})
      .write(C, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(C, {iv(0), iv(1)})
      .write(A, {iv(0), iv(1)})
      .endNest();
  return B.build();
}

/// Miniature-scale power constants so both policies actually transition
/// on the small stencil (cf. pipeline_test.cpp).
PipelineConfig miniConfig(unsigned Procs) {
  PipelineConfig Cfg = paperConfig(Procs);
  Cfg.Disk.TpmBreakEvenS = 0.4;
  Cfg.Disk.SpinDownS = 0.05;
  Cfg.Disk.SpinUpS = 0.05;
  Cfg.Disk.SpinDownJ = 1.0;
  Cfg.Disk.SpinUpJ = 2.0;
  return Cfg;
}

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Error;
  bool Ok = parseJson(Text, V, Error);
  EXPECT_TRUE(Ok) << Error;
  return V;
}

/// Asserts that complete events on every (pid, tid) row either nest fully
/// or do not overlap, and that no duration is negative.
void expectWellFormedSpans(const std::vector<TraceEvent> &Events) {
  std::map<std::pair<uint64_t, uint64_t>, std::vector<const TraceEvent *>>
      Rows;
  for (const TraceEvent &E : Events) {
    if (E.Phase != 'X')
      continue;
    EXPECT_GE(E.DurUs, 0.0) << "negative span duration: " << E.Name;
    Rows[{E.Pid, E.Tid}].push_back(&E);
  }
  const double Eps = 1e-6; // One picosecond of trace time.
  for (auto &[Row, Spans] : Rows) {
    (void)Row;
    std::stable_sort(Spans.begin(), Spans.end(),
                     [](const TraceEvent *A, const TraceEvent *B) {
                       if (A->TsUs != B->TsUs)
                         return A->TsUs < B->TsUs;
                       return A->DurUs > B->DurUs; // Parents first.
                     });
    std::vector<const TraceEvent *> Open;
    for (const TraceEvent *E : Spans) {
      while (!Open.empty() &&
             Open.back()->TsUs + Open.back()->DurUs <= E->TsUs + Eps)
        Open.pop_back();
      if (!Open.empty()) {
        EXPECT_LE(E->TsUs + E->DurUs,
                  Open.back()->TsUs + Open.back()->DurUs + Eps)
            << "span '" << E->Name << "' straddles the end of '"
            << Open.back()->Name << "'";
      }
      Open.push_back(E);
    }
  }
}

/// Pid of the process named \p Name (the highest when names repeat).
uint64_t pidOf(const std::vector<TraceEvent> &Events,
               const std::string &Name) {
  uint64_t Pid = 0;
  for (const TraceEvent &E : Events)
    if (E.Phase == 'M' && E.Name == "process_name" && !E.Args.empty() &&
        E.Args[0].JsonValue == jsonQuote(Name))
      Pid = std::max(Pid, E.Pid);
  return Pid;
}

} // namespace

TEST(TracerTest, RecordsProcessesThreadsAndEvents) {
  EventTracer T;
  uint64_t P1 = T.addProcess("compiler");
  uint64_t P2 = T.addProcess("sim");
  EXPECT_EQ(P1, 1u);
  EXPECT_EQ(P2, 2u);
  T.nameThread(P2, 1, "disk 0");
  T.completeEvent(P1, 0, "compile", "compiler", 10.0, 5.0);
  T.instantEvent(P2, 1, "spin-down", "disk", 20.0);
  T.counterEvent(P1, 0, "ready-queue", "compiler", 30.0, 4.0);
  // 3 payload events + 2 process_name + 1 thread_name metadata.
  EXPECT_EQ(T.numEvents(), 6u);
  std::vector<TraceEvent> E = T.events();
  EXPECT_EQ(std::count_if(E.begin(), E.end(),
                          [](const TraceEvent &Ev) { return Ev.Phase == 'M'; }),
            3);
}

TEST(TracerTest, ScopedSpanIsNoOpWithoutTracer) {
  ScopedSpan S(nullptr, 1, 0, "nothing");
  EXPECT_EQ(S.elapsedMs(), 0.0);
}

TEST(TracerTest, ScopedSpanRecordsCompleteEvent) {
  EventTracer T;
  uint64_t P = T.addProcess("p");
  { ScopedSpan S(&T, P, 0, "work", "compiler", {TraceArg::num("n", 3.0)}); }
  std::vector<TraceEvent> E = T.events();
  auto It = std::find_if(E.begin(), E.end(), [](const TraceEvent &Ev) {
    return Ev.Phase == 'X' && Ev.Name == "work";
  });
  ASSERT_NE(It, E.end());
  EXPECT_GE(It->DurUs, 0.0);
  ASSERT_EQ(It->Args.size(), 1u);
  EXPECT_EQ(It->Args[0].Name, "n");
}

TEST(TracerTest, ChromeExportIsValidAndCarriesMetadata) {
  EventTracer T;
  uint64_t P = T.addProcess("sim TPM");
  T.nameThread(P, 1, "disk 0");
  T.completeEvent(P, 1, "read", "disk", 0.0, 12.5,
                  {TraceArg::num("bytes", uint64_t(4096)),
                   TraceArg::str("note", "quote \" in arg")});
  T.instantEvent(P, 1, "spin-up", "disk", 12.5);
  JsonValue Doc = parseOk(T.renderChromeTrace());
  ASSERT_NE(Doc.find("traceEvents"), nullptr);
  EXPECT_NE(Doc.find("displayTimeUnit"), nullptr);
  const JsonValue &Events = *Doc.find("traceEvents");
  ASSERT_TRUE(Events.isArray());
  bool SawProcessName = false, SawRead = false, SawInstant = false;
  for (const JsonValue &E : Events.Arr) {
    const JsonValue *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    if (Ph->Str == "M" && E.find("name")->Str == "process_name") {
      SawProcessName = true;
      EXPECT_EQ(E.find("args")->find("name")->Str, "sim TPM");
    }
    if (Ph->Str == "X" && E.find("name")->Str == "read") {
      SawRead = true;
      EXPECT_EQ(E.find("dur")->Num, 12.5);
      EXPECT_EQ(E.find("args")->find("bytes")->Num, 4096.0);
      EXPECT_EQ(E.find("args")->find("note")->Str, "quote \" in arg");
    }
    if (Ph->Str == "i" && E.find("name")->Str == "spin-up") {
      SawInstant = true;
      EXPECT_EQ(E.find("s")->Str, "t");
    }
  }
  EXPECT_TRUE(SawProcessName);
  EXPECT_TRUE(SawRead);
  EXPECT_TRUE(SawInstant);
}

TEST(MetricsTest, CountersGaugesHistograms) {
  MetricsRegistry M;
  EXPECT_EQ(M.findCounter("c"), nullptr);
  M.counter("c").add(2);
  M.counter("c").add();
  ASSERT_NE(M.findCounter("c"), nullptr);
  EXPECT_EQ(M.findCounter("c")->value(), 3u);

  M.gauge("g").set(2.5);
  EXPECT_EQ(M.findGauge("g")->value(), 2.5);

  Histogram &H = M.histogram("h");
  H.observe(1.0);
  H.observe(3.0);
  EXPECT_EQ(M.histogram("h").stats().count(), 2u);
  EXPECT_DOUBLE_EQ(M.histogram("h").stats().mean(), 2.0);
  EXPECT_EQ(M.findHistogram("x"), nullptr);
}

TEST(MetricsTest, JsonExportMatchesSchema) {
  MetricsRegistry M;
  M.counter("scheduler.invocations").add(4);
  M.gauge("last_ratio").set(0.5);
  M.histogram("pass.compile.wall_ms").observe(2.0);
  M.histogram("pass.compile.wall_ms").observe(8.0);
  JsonValue Doc = parseOk(M.renderJson());
  ASSERT_NE(Doc.find("schema"), nullptr);
  EXPECT_EQ(Doc.find("schema")->Str, "dra-metrics-v1");
  EXPECT_EQ(Doc.find("counters")->find("scheduler.invocations")->Num, 4.0);
  EXPECT_EQ(Doc.find("gauges")->find("last_ratio")->Num, 0.5);
  const JsonValue *H = Doc.find("histograms")->find("pass.compile.wall_ms");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->find("count")->Num, 2.0);
  EXPECT_EQ(H->find("sum")->Num, 10.0);
  EXPECT_EQ(H->find("min")->Num, 2.0);
  EXPECT_EQ(H->find("max")->Num, 8.0);
  EXPECT_EQ(H->find("mean")->Num, 5.0);
  EXPECT_DOUBLE_EQ(H->find("stddev")->Num, 3.0);
  ASSERT_TRUE(H->find("buckets")->isArray());
  double BucketCount = 0;
  for (const JsonValue &B : H->find("buckets")->Arr)
    BucketCount += B.find("count")->Num;
  EXPECT_EQ(BucketCount, 2.0);
}

TEST(TelemetryTest, PassTimerFeedsBothSinks) {
  EventTracer T;
  MetricsRegistry M;
  uint64_t P = T.addProcess("compiler");
  { PassTimer PT(&T, P, 0, "restructure", &M); }
  const Histogram *H = M.findHistogram("pass.restructure.wall_ms");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->stats().count(), 1u);
  std::vector<TraceEvent> E = T.events();
  EXPECT_TRUE(std::any_of(E.begin(), E.end(), [](const TraceEvent &Ev) {
    return Ev.Phase == 'X' && Ev.Name == "restructure";
  }));
}

TEST(TelemetryTest, PassTimerIsNoOpWithoutSinks) {
  PassTimer PT(nullptr, 0, 0, "nothing", nullptr);
}

TEST(ObsPipelineTest, TelemetryDoesNotPerturbResults) {
  Program P = smallStencil();
  PipelineConfig Plain = miniConfig(2);
  PipelineConfig Instrumented = Plain;
  EventTracer T;
  MetricsRegistry M;
  Instrumented.Trace = &T;
  Instrumented.Metrics = &M;
  Pipeline PipeA(P, Plain);
  Pipeline PipeB(P, Instrumented);
  for (Scheme S : allSchemes()) {
    SchemeRun A = PipeA.run(S);
    SchemeRun B = PipeB.run(S);
    EXPECT_DOUBLE_EQ(A.Sim.WallTimeMs, B.Sim.WallTimeMs) << schemeName(S);
    EXPECT_DOUBLE_EQ(A.Sim.IoTimeMs, B.Sim.IoTimeMs) << schemeName(S);
    EXPECT_DOUBLE_EQ(A.Sim.EnergyJ, B.Sim.EnergyJ) << schemeName(S);
    EXPECT_DOUBLE_EQ(A.Sim.ResponseSumMs, B.Sim.ResponseSumMs)
        << schemeName(S);
    EXPECT_EQ(A.Sim.NumRequests, B.Sim.NumRequests) << schemeName(S);
    EXPECT_EQ(A.Sim.NumFragments, B.Sim.NumFragments) << schemeName(S);
    EXPECT_EQ(A.Sim.SpinDowns, B.Sim.SpinDowns) << schemeName(S);
    EXPECT_EQ(A.Sim.SpinUps, B.Sim.SpinUps) << schemeName(S);
    EXPECT_EQ(A.Sim.RpmSteps, B.Sim.RpmSteps) << schemeName(S);
  }
  EXPECT_GT(T.numEvents(), 0u);
}

TEST(ObsPipelineTest, PerDiskPowerEventsMatchSimCounters) {
  Program P = smallStencil();
  PipelineConfig Cfg = miniConfig(2);
  EventTracer T;
  Cfg.Trace = &T;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : allSchemes()) {
    SchemeRun R = Pipe.run(S);
    std::vector<TraceEvent> Events = T.events();
    uint64_t Pid = pidOf(Events, std::string("sim ") + schemeName(S));
    ASSERT_NE(Pid, 0u) << schemeName(S);
    for (unsigned D = 0; D != R.Sim.PerDisk.size(); ++D) {
      unsigned Downs = 0, Ups = 0, Steps = 0;
      for (const TraceEvent &E : Events) {
        if (E.Phase != 'i' || E.Pid != Pid || E.Tid != D + 1)
          continue;
        if (E.Name == "spin-down")
          ++Downs;
        else if (E.Name == "spin-up")
          ++Ups;
        else if (E.Name == "rpm-step")
          ++Steps;
      }
      EXPECT_EQ(Downs, R.Sim.PerDisk[D].SpinDowns)
          << schemeName(S) << " disk " << D;
      EXPECT_EQ(Ups, R.Sim.PerDisk[D].SpinUps)
          << schemeName(S) << " disk " << D;
      EXPECT_EQ(Steps, R.Sim.PerDisk[D].RpmSteps)
          << schemeName(S) << " disk " << D;
    }
  }
}

TEST(ObsPipelineTest, SpansAreWellFormedAcrossFullRun) {
  Program P = smallStencil();
  PipelineConfig Cfg = miniConfig(2);
  EventTracer T;
  MetricsRegistry M;
  Cfg.Trace = &T;
  Cfg.Metrics = &M;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : allSchemes())
    Pipe.run(S);
  std::vector<TraceEvent> Events = T.events();
  expectWellFormedSpans(Events);
  // The whole document renders as valid JSON.
  parseOk(T.renderChromeTrace());
  // Compiler pass spans landed on the wall-clock process...
  uint64_t CompilerPid = pidOf(Events, "compiler");
  ASSERT_NE(CompilerPid, 0u);
  bool SawCompile = false;
  for (const TraceEvent &E : Events)
    if (E.Pid == CompilerPid && E.Phase == 'X' && E.Name == "compile")
      SawCompile = true;
  EXPECT_TRUE(SawCompile);
  // ...and per-pass wall-time histograms in the registry.
  for (const char *Pass : {"compile", "parallelize", "trace-gen", "simulate"})
    EXPECT_NE(M.findHistogram(std::string("pass.") + Pass + ".wall_ms"),
              nullptr)
        << Pass;
}

TEST(RunReportTest, RoundTripsEverySimResultsField) {
  Program P = smallStencil();
  PipelineConfig Cfg = miniConfig(2);
  Pipeline Pipe(P, Cfg);
  AppResults App;
  App.Name = "small";
  App.Runs.push_back(Pipe.run(Scheme::Base));
  App.Runs.push_back(Pipe.run(Scheme::TDrpmS));
  std::string Doc = renderRunReportJson(Cfg, {App}, "obs_test");
  JsonValue V = parseOk(Doc);
  EXPECT_EQ(V.find("schema")->Str, "dra-report-v1");
  EXPECT_EQ(V.find("source")->Str, "obs_test");
  EXPECT_EQ(V.find("config")->find("procs")->Num, 2.0);
  ASSERT_TRUE(V.find("apps")->isArray());
  const JsonValue &AppJ = V.find("apps")->Arr[0];
  EXPECT_EQ(AppJ.find("app")->Str, "small");
  ASSERT_EQ(AppJ.find("runs")->Arr.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    const SchemeRun &R = App.Runs[I];
    const JsonValue &RunJ = AppJ.find("runs")->Arr[I];
    EXPECT_EQ(RunJ.find("scheme")->Str, schemeName(R.S));
    EXPECT_EQ(RunJ.find("scheduler_rounds")->Num, double(R.SchedulerRounds));
    EXPECT_EQ(RunJ.find("trace_requests")->Num, double(R.TraceRequests));
    EXPECT_EQ(RunJ.find("trace_bytes")->Num, double(R.TraceBytes));
    EXPECT_EQ(RunJ.find("locality")->find("disk_switches")->Num,
              double(R.Locality.DiskSwitches));
    const JsonValue &SimJ = *RunJ.find("sim");
    EXPECT_EQ(SimJ.find("wall_time_ms")->Num, R.Sim.WallTimeMs);
    EXPECT_EQ(SimJ.find("io_time_ms")->Num, R.Sim.IoTimeMs);
    EXPECT_EQ(SimJ.find("energy_j")->Num, R.Sim.EnergyJ);
    EXPECT_EQ(SimJ.find("response_sum_ms")->Num, R.Sim.ResponseSumMs);
    EXPECT_EQ(SimJ.find("avg_response_ms")->Num, R.Sim.avgResponseMs());
    EXPECT_EQ(SimJ.find("num_requests")->Num, double(R.Sim.NumRequests));
    EXPECT_EQ(SimJ.find("num_fragments")->Num, double(R.Sim.NumFragments));
    EXPECT_EQ(SimJ.find("spin_downs")->Num, double(R.Sim.SpinDowns));
    EXPECT_EQ(SimJ.find("spin_ups")->Num, double(R.Sim.SpinUps));
    EXPECT_EQ(SimJ.find("rpm_steps")->Num, double(R.Sim.RpmSteps));
    EXPECT_EQ(SimJ.find("cache")->find("hits")->Num, double(R.Sim.Cache.Hits));
    ASSERT_TRUE(SimJ.find("per_disk")->isArray());
    ASSERT_EQ(SimJ.find("per_disk")->Arr.size(), R.Sim.PerDisk.size());
    for (size_t D = 0; D != R.Sim.PerDisk.size(); ++D) {
      const DiskStats &DS = R.Sim.PerDisk[D];
      const JsonValue &DJ = SimJ.find("per_disk")->Arr[D];
      EXPECT_EQ(DJ.find("disk")->Num, double(D));
      EXPECT_EQ(DJ.find("num_requests")->Num, double(DS.NumRequests));
      EXPECT_EQ(DJ.find("busy_ms")->Num, DS.BusyMs);
      EXPECT_EQ(DJ.find("energy_j")->Num, DS.EnergyJ);
      EXPECT_EQ(DJ.find("response_sum_ms")->Num, DS.ResponseSumMs);
      EXPECT_EQ(DJ.find("idle_ms_total")->Num, DS.IdleMsTotal);
      EXPECT_EQ(DJ.find("spin_downs")->Num, double(DS.SpinDowns));
      EXPECT_EQ(DJ.find("spin_ups")->Num, double(DS.SpinUps));
      EXPECT_EQ(DJ.find("rpm_steps")->Num, double(DS.RpmSteps));
      EXPECT_EQ(DJ.find("idle_hist")->find("total_count")->Num,
                double(DS.IdleHist.totalCount()));
    }
  }
}

/// The parsed report of smallStencil's Base and T-DRPM-s runs, app "small".
static JsonValue smallReport() {
  Program P = smallStencil();
  PipelineConfig Cfg = miniConfig(2);
  Pipeline Pipe(P, Cfg);
  AppResults App;
  App.Name = "small";
  App.Runs.push_back(Pipe.run(Scheme::Base));
  App.Runs.push_back(Pipe.run(Scheme::TDrpmS));
  return parseOk(renderRunReportJson(Cfg, {App}, "obs_test"));
}

/// The second run of \p Doc's one app.
static JsonValue &secondRun(JsonValue &Doc) {
  return Doc.Obj.at("apps").Arr[0].Obj.at("runs").Arr[1];
}

TEST(ReportReaderTest, ReadsEveryRunOfTheWriter) {
  JsonValue Doc = smallReport();
  ReportRecords R;
  std::string Error;
  ASSERT_TRUE(readRunReport(Doc, "r.json", R, Error)) << Error;
  ASSERT_EQ(R.Runs.size(), 2u);
  EXPECT_EQ(R.Apps, std::vector<std::string>{"small"});
  for (const ReportRun &Run : R.Runs) {
    EXPECT_EQ(Run.Source, "r.json");
    EXPECT_EQ(Run.App, "small");
    EXPECT_GT(Run.EnergyJ, 0.0);
    EXPECT_FALSE(Run.CategoriesJ.empty());
    ASSERT_TRUE(Run.Attribution);
    EXPECT_EQ(Run.Attribution->Nests.size(), 2u);
  }
  EXPECT_EQ(R.Runs[1].Scheme, "T-DRPM-s");
  ASSERT_EQ(R.Footprints.size(), 0u);
}

TEST(ReportReaderTest, RunWithoutSimIsRefused) {
  JsonValue Doc = smallReport();
  secondRun(Doc).Obj.erase("sim");
  ReportRecords R;
  std::string Error;
  EXPECT_FALSE(readRunReport(Doc, "r.json", R, Error));
  EXPECT_EQ(Error, "r.json: run without sim results in app 'small'");
}

TEST(ReportReaderTest, RunWithoutLedgerIsRefused) {
  JsonValue Doc = smallReport();
  secondRun(Doc).Obj.erase("ledger");
  ReportRecords R;
  std::string Error;
  EXPECT_FALSE(readRunReport(Doc, "r.json", R, Error));
  EXPECT_EQ(Error, "r.json: run without 'ledger' section in app 'small'");
}

TEST(ReportReaderTest, RepeatedNestLabelIsRefused) {
  // Every consumer keys nests by label: a repeated one would diff a report
  // against itself into nonzero deltas and gate only the last nest.
  JsonValue Doc = smallReport();
  std::vector<JsonValue> &Nests =
      secondRun(Doc).Obj.at("attribution").Obj.at("nests").Arr;
  ASSERT_EQ(Nests.size(), 2u);
  Nests[1].Obj.at("label").Str = Nests[0].Obj.at("label").Str;
  ReportRecords R;
  std::string Error;
  EXPECT_FALSE(readRunReport(Doc, "r.json", R, Error));
  EXPECT_EQ(Error, "r.json: attribution section repeats nest label '" +
                       Nests[0].Obj.at("label").Str +
                       "' in app 'small' (scheme 'T-DRPM-s')");
}

TEST(RunReportTest, PerDiskSectionsRenderTheSameOnEveryCore) {
  // A merged run over 1024 disks: at top level its per-disk report and
  // timeline arrays take the chunked path, inside a one-worker region the
  // serial loop. The bytes must not differ.
  StripingConfig C;
  C.StripeFactor = 1024;
  struct Tenant {
    Program P;
    DiskLayout Layout;
    Trace Replay;
    Tenant(const char *Name, const StripingConfig &C, unsigned Seed)
        : P(makeProgram(Name)), Layout(P, C), Replay(2, 4096) {
      std::mt19937 Rng(Seed);
      std::uniform_int_distribution<uint64_t> TileD(0, 2047);
      std::uniform_real_distribution<double> ThinkD(0.0, 40.0);
      for (uint32_t Proc = 0; Proc != 2; ++Proc)
        for (uint32_t I = 0; I != 300; ++I) {
          Request R;
          R.StartBlock = TileD(Rng) * 8;
          R.SizeBytes = 32 * 1024 * (1 + I % 3);
          R.IsWrite = I % 5 == 0;
          R.Proc = Proc;
          R.ThinkMs = ThinkD(Rng);
          R.Phase = I / 100;
          if (I % 6 != 5)
            R.Prov = Provenance{0, I % 2, 0};
          Replay.addRequest(R);
        }
    }
    static Program makeProgram(const char *Name) {
      ProgramBuilder B(Name);
      ArrayId U = B.addArray("U", {2048});
      B.beginNest("scan", 1.0).loop(0, 2048).read(U, {iv(0)}).endNest();
      return B.build();
    }
  };
  Tenant A("olap", C, 7), B("ingest", C, 11);
  std::vector<TenantInput> In(2);
  In[0].Label = "olap";
  In[0].Prog = &A.P;
  In[0].Replay = &A.Replay;
  In[0].Layout = &A.Layout;
  In[0].Names = attributionNamesOf(A.P);
  In[1].Label = "ingest";
  In[1].Prog = &B.P;
  In[1].Replay = &B.Replay;
  In[1].Layout = &B.Layout;
  In[1].Names = attributionNamesOf(B.P);
  In[1].StartMs = 250.0;
  MergedWorkload W = mergeTenants(In);

  TimelineRecorder TL;
  AppResults App;
  App.Name = "multitenant";
  for (auto [S, Policy] : {std::pair(Scheme::Base, PowerPolicyKind::None),
                           std::pair(Scheme::Tpm, PowerPolicyKind::Tpm)}) {
    SimEngine E(W.Layout, DiskParams(), Policy, CacheConfig(), nullptr,
                schemeName(S), /*Attribution=*/true, &TL);
    SchemeRun Run;
    Run.S = S;
    Run.Sim = E.run(W.Replay);
    Run.AttribNames = W.Names;
    App.Runs.push_back(std::move(Run));
  }
  ASSERT_EQ(App.Runs[0].Sim.PerDisk.size(), 1024u);
  PipelineConfig Cfg;
  Cfg.NumProcs = W.Replay.numProcs();

  std::string Report = renderRunReportJson(Cfg, {App}, "obs_test");
  std::string Timeline = renderTimelineJson(TL, "obs_test");
  std::string SerialReport, SerialTimeline;
  runWorkers(1, [&](unsigned) {
    SerialReport = renderRunReportJson(Cfg, {App}, "obs_test");
    SerialTimeline = renderTimelineJson(TL, "obs_test");
  });
  // Megabytes each: compare without printing them.
  EXPECT_TRUE(Report == SerialReport);
  EXPECT_TRUE(Timeline == SerialTimeline);
  JsonValue V = parseOk(Report);
  const JsonValue *Apps = V.find("apps");
  ASSERT_TRUE(Apps && Apps->isArray() && !Apps->Arr.empty());
  const JsonValue *Runs = Apps->Arr[0].find("runs");
  ASSERT_TRUE(Runs && Runs->isArray() && !Runs->Arr.empty());
  for (const char *Section : {"sim", "ledger", "attribution"}) {
    const JsonValue *S = Runs->Arr[0].find(Section);
    const JsonValue *PerDisk = S ? S->find("per_disk") : nullptr;
    ASSERT_TRUE(PerDisk && PerDisk->isArray()) << Section;
    EXPECT_EQ(PerDisk->Arr.size(), 1024u) << Section;
  }
}
