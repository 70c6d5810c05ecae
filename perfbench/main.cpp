//===- perfbench/main.cpp - Host-time benchmark main loop -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--reference <reference.json>] [--chrome-trace <out.json>]
//             [--write-reference <reference.json>] [--smoke]
//
// One client runs the workload's ops in a closed loop: set-up (inputs from
// the seed plus one warm-up op, repeated and reported as a median), then
// whole passes over the workload's inputs until --seconds have passed.
// Calibration slices run after each set-up and around each untraced op; the
// end-to-end timings are scaled by them to the reference host's speed.
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 every op is followed by its traced twin and the line carries
// the per-layer metrics. Exit status 1 when any output check failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace perfbench;

namespace {

/// Stamped during static initialization: the start of set-up.
const Clock::time_point ProcessStart = Clock::now();

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--reference <file>] "
               "[--chrome-trace <file>] [--write-reference <file>] "
               "[--smoke]\n",
               Msg);
  std::exit(2);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  return bool(Out);
}

void writeValue(dra::JsonWriter &W, const dra::JsonValue &V) {
  switch (V.K) {
  case dra::JsonValue::Kind::Null:
    W.null();
    break;
  case dra::JsonValue::Kind::Bool:
    W.value(V.B);
    break;
  case dra::JsonValue::Kind::Number:
    W.value(V.Num);
    break;
  case dra::JsonValue::Kind::String:
    W.value(V.Str);
    break;
  case dra::JsonValue::Kind::Array:
    W.beginArray();
    for (const dra::JsonValue &E : V.Arr)
      writeValue(W, E);
    W.endArray();
    break;
  case dra::JsonValue::Kind::Object:
    W.beginObject();
    for (const auto &[K, E] : V.Obj) {
      W.key(K);
      writeValue(W, E);
    }
    W.endObject();
    break;
  }
}

/// Linear-interpolated quantile of sorted \p V.
double quantile(const std::vector<double> &V, double Q) {
  if (V.empty())
    return 0.0;
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Everything one run measured.
struct RunData {
  std::vector<double> SetupS;
  std::vector<double> SetupSliceMs; ///< Calibration slice after each set-up.
  std::vector<double> OpMs;  ///< Untraced op times of ops that completed.
  std::vector<double> SliceMs; ///< Calibration slices before and after each.
  uint64_t Requests = 0;     ///< Trace requests replayed by those ops.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t TracedOps = 0;
  double TracedUntracedMs = 0.0; ///< Untraced op time of the traced ops.
  Counts PerOp;                  ///< Summed over the traced ops.
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantile(V, 0.5);
}

/// Host ms of the calibration slice on the reference host (4-thread x86-64
/// container, gcc 12, RelWithDebInfo) when it is not busy.
constexpr double ReferenceSliceMs = 2.0;
/// Each op is scaled by the median of the slices around the ops within this
/// many ops of it. Host speed swings within seconds, so the window is short;
/// it is not one op, because a single 2 ms slice is itself noisy.
constexpr size_t SliceWindow = 2;

/// Scales each of \p Ms to the reference host's speed: Ms[I] times
/// ReferenceSliceMs over the median of the nearby calibration slices, of
/// which \p Slices holds two per op (before and after).
std::vector<double> atReferenceSpeed(const std::vector<double> &Ms,
                                     const std::vector<double> &Slices) {
  std::vector<double> Out(Ms.size());
  for (size_t I = 0; I != Ms.size(); ++I) {
    size_t Lo = I > SliceWindow ? I - SliceWindow : 0;
    size_t Hi = std::min(Ms.size(), I + SliceWindow + 1);
    Out[I] = Ms[I] * ReferenceSliceMs /
             median({Slices.begin() + long(2 * Lo),
                     Slices.begin() + long(2 * Hi)});
  }
  return Out;
}

std::vector<Metric> endToEnd(const RunData &D) {
  std::vector<double> Sorted = atReferenceSpeed(D.OpMs, D.SliceMs);
  std::sort(Sorted.begin(), Sorted.end());
  double OpSeconds = 0.0;
  for (double Ms : Sorted)
    OpSeconds += Ms / 1000.0;
  std::vector<double> Setup(D.SetupS.size());
  for (size_t I = 0; I != Setup.size(); ++I)
    Setup[I] = D.SetupS[I] * ReferenceSliceMs / D.SetupSliceMs[I];
  std::vector<double> Raw = D.OpMs;
  std::sort(Raw.begin(), Raw.end());
  std::fprintf(stderr,
               "perfbench: host time: op p50 %.3f ms, p90 %.3f ms, set-up "
               "%.4f s, calibration slice %.4f ms\n",
               quantile(Raw, 0.5), quantile(Raw, 0.9), median(D.SetupS),
               median(D.SliceMs));
  return {
      {"setup_s", "s", median(Setup)},
      {"ops_per_s", "1/s",
       OpSeconds > 0 ? double(Sorted.size()) / OpSeconds : 0.0},
      {"op_ms_p50", "ms", quantile(Sorted, 0.5)},
      {"op_ms_p90", "ms", quantile(Sorted, 0.9)},
      {"peak_rss_mb", "MB", peakRssMb()},
  };
}

/// Public calls timed in the traced run: "<name>_ms" and "<name>_allocs"
/// per op, summed over every span of that name.
const char *const TimedCalls[] = {
    "apps.build",          "frontend.parse",    "ir.iteration_space",
    "ir.table",            "layout.build",      "analysis.footprint",
    "analysis.graph",      "analysis.subgraph", "core.scheduler_init",
    "core.parallelize",    "core.compile",      "core.schedule",
    "core.locality",       "core.codegen",      "verify.ir",
    "verify.layout",       "verify.footprint",  "verify.schedule",
    "trace.generate",      "trace.index",       "obs.report_export",
    "obs.timeline_export"};

/// Per-op counts reported as their mean per traced op.
const std::pair<const char *, const char *> PerOpCounts[] = {
    {"ir.table_accesses", "count"},    {"core.scheduler_rounds", "count"},
    {"core.codegen_bands", "count"},   {"trace.requests", "count"},
    {"obs.report_bytes", "B"},         {"obs.timeline_bytes", "B"},
    {"obs.timeline_windows", "count"}};

const char *const Layers[] = {"apps",  "frontend", "ir",    "layout",
                              "analysis", "core",  "verify", "trace",
                              "sim",   "obs"};

std::vector<Metric> perLayer(const RunData &D, const std::vector<Span> &Spans) {
  const double Ops = double(std::max<uint64_t>(1, D.TracedOps));
  auto count = [&](const char *Key) {
    auto It = D.PerOp.find(Key);
    return It == D.PerOp.end() ? 0.0 : It->second;
  };
  auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };

  // Inclusive time and allocations per span name; self time per layer over
  // the op trees (a span's duration minus its children's).
  std::map<std::string, double> CallMs, CallAllocs, LayerSelfMs;
  std::vector<double> ChildMs(Spans.size(), 0.0);
  std::vector<int> Root(Spans.size(), -1);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    CallMs[S.Name] += S.ms();
    CallAllocs[S.Name] += double(S.Allocs);
    Root[I] = S.Parent < 0 ? int(I) : Root[size_t(S.Parent)];
    if (S.Parent >= 0)
      ChildMs[size_t(S.Parent)] += S.ms();
  }
  double OpMs = 0.0, CoveredMs = 0.0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (Spans[size_t(Root[I])].Name != "op")
      continue;
    if (S.Parent < 0) {
      OpMs += S.ms();
      continue;
    }
    double Self = S.ms() - ChildMs[I];
    LayerSelfMs[S.Layer] += Self;
    CoveredMs += Self;
  }

  std::vector<Metric> M;
  for (const char *Call : TimedCalls) {
    M.push_back({std::string(Call) + "_ms", "ms", CallMs[Call] / Ops});
    M.push_back({std::string(Call) + "_allocs", "count", CallAllocs[Call] / Ops});
  }
  for (const auto &[Key, Unit] : PerOpCounts)
    M.push_back({Key, Unit, count(Key) / Ops});
  M.push_back({"analysis.footprint_symbolic_ratio", "ratio",
               ratio(count("analysis.footprint_symbolic_refs"),
                     count("analysis.footprint_refs"))});

  const double Req = count("sim.requests");
  const double Bare = count("sim.bare_ms"), Attr = count("sim.attribution_ms"),
               TL = count("sim.timeline_ms");
  M.push_back({"sim.bare_ns_per_request", "ns", ratio(Bare * 1e6, Req)});
  M.push_back({"sim.attribution_ns_per_request", "ns",
               ratio((Attr - Bare) * 1e6, Req)});
  M.push_back({"sim.timeline_ns_per_request", "ns",
               ratio((TL - Attr) * 1e6, Req)});
  M.push_back({"sim.allocs_per_request", "count",
               ratio(count("sim.run_allocs"), Req)});
  M.push_back({"sim.fragments_per_request", "count",
               ratio(count("sim.fragments"), Req)});
  M.push_back({"sim.sharded_speedup", "x",
               ratio(count("sim.attribution_ms"), count("sim.sharded_ms"))});

  for (const char *L : Layers)
    M.push_back({std::string(L) + ".self_ms", "ms", LayerSelfMs[L] / Ops});
  const double Untraced = D.TracedUntracedMs / Ops;
  M.push_back({"tracing.op_ms", "ms", OpMs / Ops});
  M.push_back({"tracing.untraced_op_ms", "ms", Untraced});
  M.push_back({"tracing.overhead_ms", "ms", OpMs / Ops - Untraced});
  M.push_back({"tracing.coverage", "ratio", ratio(CoveredMs, OpMs)});
  M.push_back({"requests_per_s", "1/s",
               ratio(double(D.Requests), D.TracedUntracedMs / 1000.0)});
  return M;
}

/// Runs one op (and its traced twin), folding its outcome into \p D.
void runOne(Workload &WL, size_t I, bool Traced, SpanRecorder &R,
            RunData &D) {
  Checks C;
  ++D.Attempted;
  try {
    uint64_t Requests = 0;
    double Before = calibrationSliceMs();
    double Ms = WL.runOp(I, C, Requests);
    double After = calibrationSliceMs();
    if (Traced) {
      setAllocCounting(true);
      WL.runTracedOp(I, R, C, D.PerOp);
      setAllocCounting(false);
      ++D.TracedOps;
      D.TracedUntracedMs += Ms;
    }
    D.OpMs.push_back(Ms);
    D.SliceMs.push_back(Before);
    D.SliceMs.push_back(After);
    D.Requests += Requests;
  } catch (const std::exception &E) {
    setAllocCounting(false);
    C.expect(false, std::string("exception: ") + E.what());
  }
  if (C.ok())
    return;
  ++D.Failed;
  for (const std::string &F : C.failures())
    std::fprintf(stderr, "perfbench: op %zu failed: %s\n", I, F.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts;
  std::string ReferencePath, WriteReferencePath, ChromeTracePath;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        Opts.Workload = next();
      else if (A == "--seed")
        Opts.Seed = std::stoull(next()), HaveSeed = true;
      else if (A == "--seconds")
        Opts.Seconds = std::stod(next());
      else if (A == "--trace")
        Opts.Traced = std::stoi(next()) != 0, HaveTrace = true;
      else if (A == "--reference")
        ReferencePath = next();
      else if (A == "--write-reference")
        WriteReferencePath = next();
      else if (A == "--chrome-trace")
        ChromeTracePath = next();
      else if (A == "--smoke")
        Opts.Smoke = true;
      else
        usage(("unknown argument " + A).c_str());
    } catch (const std::logic_error &) {
      usage(("bad value for " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveTrace || Opts.Workload.empty())
    usage("--workload, --seed and --trace are required");
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opts.Workload) == Names.end())
    usage(("unknown workload " + Opts.Workload).c_str());

  dra::JsonValue Reference, Written;
  if (!ReferencePath.empty() && !Opts.Smoke) {
    std::string Text, Error;
    if (!readFile(ReferencePath, Text) ||
        !dra::parseJson(Text, Reference, Error)) {
      std::fprintf(stderr, "perfbench: cannot read reference '%s' %s\n",
                   ReferencePath.c_str(), Error.c_str());
      return 2;
    }
    Opts.Reference = &Reference;
  }
  if (!WriteReferencePath.empty()) {
    std::string Text, Error;
    if (readFile(WriteReferencePath, Text) &&
        !dra::parseJson(Text, Written, Error)) {
      std::fprintf(stderr, "perfbench: cannot parse '%s': %s\n",
                   WriteReferencePath.c_str(), Error.c_str());
      return 2;
    }
    Written.K = dra::JsonValue::Kind::Object;
    Written.Obj.erase(Opts.Workload);
    Opts.WriteReference = &Written;
  }

  // Set-up: inputs from the seed plus one warm-up op, repeated, each time
  // followed by calibration slices; the first repetition counts from process
  // start. setup_s is the median at reference speed.
  RunData D;
  std::unique_ptr<Workload> WL;
  const int SetupReps = Opts.Smoke ? 1 : 15;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    Clock::time_point T0 = Rep == 0 ? ProcessStart : Clock::now();
    WL.reset();
    Checks C;
    try {
      WL = makeWorkload(Opts);
      WL->warmUp(C);
    } catch (const std::exception &E) {
      C.expect(false, std::string("exception: ") + E.what());
    }
    for (const std::string &F : C.failures())
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", F.c_str());
    if (!C.ok())
      return 1;
    D.SetupS.push_back(msSince(T0) / 1000.0);
    std::vector<double> Slices;
    for (int S = 0; S != 5; ++S)
      Slices.push_back(calibrationSliceMs());
    D.SetupSliceMs.push_back(median(Slices));
  }

  // Timed phase: whole passes until the time is up and, in untraced runs,
  // at least MinOps ops ran so that op_ms_p90 has ten samples beyond it
  // (one pass in smoke mode).
  constexpr size_t MinOps = 100;
  SpanRecorder R;
  const size_t Pass = WL->passLength();
  const auto Start = Clock::now();
  for (size_t I = 0;; ++I) {
    if (I != 0 && I % Pass == 0 &&
        (Opts.Smoke || ((Opts.Traced || I >= MinOps) &&
                        msSince(Start) >= Opts.Seconds * 1000.0)))
      break;
    runOne(*WL, I, Opts.Traced, R, D);
  }
  if (!ChromeTracePath.empty() && Opts.Traced &&
      !writeFile(ChromeTracePath, R.renderChromeTrace()))
    std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                 ChromeTracePath.c_str());
  if (Opts.WriteReference && D.Failed == 0) {
    dra::JsonWriter W;
    writeValue(W, Written);
    if (!writeFile(WriteReferencePath, W.take() + "\n"))
      std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                   WriteReferencePath.c_str());
  }

  std::vector<Metric> Metrics =
      Opts.Traced ? perLayer(D, R.spans()) : endToEnd(D);
  std::string Compiler = "gcc-" __VERSION__;
  std::replace(Compiler.begin(), Compiler.end(), ' ', '_');
  std::printf("# perfbench %s seed=%llu ops=%zu nproc=%u build=%s "
              "compiler=%s\n",
              Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              D.OpMs.size(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, Compiler.c_str());
  dra::JsonWriter W;
  W.beginObject();
  W.key("correct");
  W.value(D.Failed == 0);
  W.key("attempted");
  W.value(D.Attempted);
  W.key("failed");
  W.value(D.Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(M.Value);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.take().c_str());
  return D.Failed == 0 ? 0 : 1;
}
