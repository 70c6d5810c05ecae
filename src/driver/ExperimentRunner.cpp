//===- driver/ExperimentRunner.cpp - Parallel sweep execution ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/ExperimentRunner.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "obs/Tracer.h"
#include "support/Parallel.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>

using namespace dra;

namespace {

std::string jobFileStem(const std::string &Dir, size_t Index) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "job-%05zu", Index);
  return Dir + "/" + Buf;
}

} // namespace

JobOutcome ExperimentRunner::runOne(const SweepJob &J) const {
  JobOutcome O;
  O.Point = J.Point;
  O.Config = J.Config;

  // Telemetry sinks are strictly per-job: no cross-thread merge point
  // exists, so two jobs can never interleave events in one timeline. The
  // per-job TimelineRecorder is what keeps timeline artifacts byte-identical
  // across --jobs values (bucketing is pure simulated time).
  EventTracer Tracer;
  MetricsRegistry Metrics;
  TimelineRecorder Timeline;
  PipelineConfig Cfg = J.Config;
  const bool Telemetry = !Opts.TelemetryDir.empty();
  if (Telemetry) {
    Cfg.Trace = &Tracer;
    Cfg.Metrics = &Metrics;
    Cfg.Timeline = &Timeline;
  }

  auto Start = std::chrono::steady_clock::now();
  try {
    Program P = J.Build();
    Pipeline Pipe(P, Cfg);
    O.Run = Pipe.run(J.Point.S);
    O.Ok = true;
  } catch (const std::exception &E) {
    O.Error = E.what();
  }
  O.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
                 .count();

  if (Telemetry && O.Ok) {
    // The run moves into the one-app results for the export and back.
    AppResults App;
    App.Name = J.Point.App;
    App.Runs.push_back(std::move(O.Run));
    std::string Stem = jobFileStem(Opts.TelemetryDir, J.Index);
    RunArtifacts Out;
    Out.ChromeTracePath = Stem + ".trace.json";
    Out.MetricsPath = Stem + ".metrics.json";
    Out.ReportPath = Stem + ".report.json";
    Out.TimelinePath = Stem + ".timeline.json";
    Out.Tracer = &Tracer;
    Out.Metrics = &Metrics;
    Out.Timeline = &Timeline;
    if (auto Failure = writeRunArtifacts(Out, J.Config, App, "sweep")) {
      O.Ok = false;
      O.Error = Failure->Opened ? "cannot write '" + Failure->Path + "'"
                                : "cannot open '" + Failure->Path +
                                      "' for writing";
    }
    O.Run = std::move(App.Runs.front());
  }
  return O;
}

std::vector<JobOutcome>
ExperimentRunner::run(const std::vector<SweepJob> &Jobs) const {
  if (!Opts.TelemetryDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.TelemetryDir, EC);
  }

  std::vector<JobOutcome> Out(Jobs.size());
  if (Jobs.empty())
    return Out;

  // Workers claim the next unstarted job from an atomic cursor and write
  // into their job's private slot; completion order is irrelevant because
  // the slots are collected by index.
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Jobs.size(); I = Next.fetch_add(1, std::memory_order_relaxed))
      Out[I] = runOne(Jobs[I]);
  };

  // The calling thread is worker 0 (and the only one when N = 1). Each job
  // runs inside the worker region, so its exports render serially.
  size_t Workers = std::max<size_t>(1, Opts.Workers);
  Workers = std::min(Workers, Jobs.size());
  runWorkers(unsigned(Workers), [&](unsigned) { Work(); });
  return Out;
}

std::string dra::renderSweepJson(const SweepSpec &Spec,
                                 const std::vector<JobOutcome> &Outcomes,
                                 bool IncludeTimings) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("dra-sweep-v1");
  W.key("spec");
  Spec.writeJson(W);
  W.key("num_jobs");
  W.value(uint64_t(Outcomes.size()));
  uint64_t Failed = 0;
  for (const JobOutcome &O : Outcomes)
    Failed += O.Ok ? 0 : 1;
  W.key("failed");
  W.value(Failed);
  W.key("results");
  W.beginArray();
  for (size_t I = 0; I != Outcomes.size(); ++I) {
    const JobOutcome &O = Outcomes[I];
    W.beginObject();
    W.key("job");
    W.value(uint64_t(I));
    W.key("app");
    W.value(O.Point.App);
    W.key("scheme");
    W.value(schemeName(O.Point.S));
    W.key("procs");
    W.value(O.Point.Procs);
    W.key("stripe_factor");
    W.value(O.Point.StripeFactor);
    W.key("stripe_unit_bytes");
    W.value(O.Point.StripeUnitBytes);
    W.key("cache_blocks");
    W.value(O.Point.CacheBlocks);
    W.key("cache_policy");
    W.value(O.Point.CachePolicy == CachePolicyKind::None
                ? "none"
                : (O.Point.CachePolicy == CachePolicyKind::PaLru ? "pa-lru"
                                                                 : "lru"));
    W.key("tpm_break_even_s");
    W.value(O.Point.TpmBreakEvenS);
    W.key("drpm_window_requests");
    W.value(O.Point.DrpmWindowRequests);
    W.key("status");
    W.value(O.Ok ? "ok" : "error");
    if (!O.Ok) {
      W.key("error");
      W.value(O.Error);
    }
    W.key("wall_ms");
    if (IncludeTimings)
      W.value(O.WallMs);
    else
      W.null();
    W.key("report");
    if (O.Ok)
      W.rawValue(renderRunReportJson(O.Config, O.Point.App, O.Run, "sweep"));
    else
      W.null();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

std::vector<AppResults>
dra::runAppMatrix(const PipelineConfig &Config,
                  const std::vector<Scheme> &Schemes,
                  const std::vector<AppUnderTest> &Apps, unsigned Workers) {
  std::vector<SweepJob> Jobs;
  Jobs.reserve(Apps.size() * Schemes.size());
  for (const AppUnderTest &App : Apps) {
    for (Scheme S : Schemes) {
      SweepJob J;
      J.Index = Jobs.size();
      J.Point.App = App.Name;
      J.Point.S = S;
      J.Build = App.Build;
      J.Config = Config;
      Jobs.push_back(std::move(J));
    }
  }

  SweepOptions Opts;
  Opts.Workers = Workers;
  std::vector<JobOutcome> Outcomes = ExperimentRunner(Opts).run(Jobs);

  std::vector<AppResults> All;
  All.reserve(Apps.size());
  size_t I = 0;
  for (const AppUnderTest &App : Apps) {
    AppResults R;
    R.Name = App.Name;
    for (size_t S = 0; S != Schemes.size(); ++S, ++I) {
      if (!Outcomes[I].Ok)
        throw std::runtime_error(R.Name + " (" +
                                 schemeName(Outcomes[I].Point.S) +
                                 "): " + Outcomes[I].Error);
      R.Runs.push_back(Outcomes[I].Run);
    }
    All.push_back(std::move(R));
  }
  return All;
}
