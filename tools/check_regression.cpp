//===- tools/check_regression.cpp - Benchmark regression gate ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Compares fresh "dra-report-v1" documents (DRA_BENCH_JSON or
// `drac --report-json` output) against checked-in baselines
// (bench/baselines/*.json) and fails when any tracked metric drifts beyond
// a relative tolerance. The simulator is deterministic, so the tolerance
// only absorbs floating-point variation across compilers (e.g. FMA
// contraction differences); a real model change shows up as orders of
// magnitude more drift and fails the gate.
//
// Usage:
//   check-regression --baseline <file-or-dir> --current <file-or-dir>
//                    [--tolerance R]        relative tolerance, default 1e-6
//
// Directory mode compares every *.json in the baseline directory against
// the same-named file in the current directory. Exit codes: 0 in-tolerance,
// 1 drift or missing data, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "obs/RunReport.h"
#include "support/FileIO.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace dra;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline <file-or-dir> --current <file-or-dir> "
               "[--tolerance R]\n",
               Argv0);
  return 2;
}

/// The gated metrics of one (app, scheme) run. Flat name -> value; every
/// entry present in the baseline must exist and match in the current run.
using MetricMap = std::map<std::string, double>;

double num(const JsonValue *V) { return V && V->isNumber() ? V->Num : 0.0; }

/// Extracts the gated metrics of a dra-timeline-v1 document: per run and
/// disk, the window count and the per-state/per-category totals (each of
/// which the closure contract ties to the ledger and disk stats), plus the
/// gap-event count. Window-level values are deterministic too but would
/// bloat baselines; the totals catch any drift that matters.
bool extractTimelineMetrics(const JsonValue &Doc, MetricMap &Out,
                            std::string &Error) {
  const JsonValue *States = Doc.find("states");
  const JsonValue *Cats = Doc.find("energy_categories");
  const JsonValue *Runs = Doc.find("runs");
  if (!States || !States->isArray() || !Cats || !Cats->isArray() || !Runs ||
      !Runs->isArray()) {
    Error = "malformed dra-timeline-v1 document";
    return false;
  }
  auto nameAt = [](const JsonValue &Names, size_t I) {
    return I < Names.Arr.size() && Names.Arr[I].isString()
               ? Names.Arr[I].Str
               : std::to_string(I);
  };
  for (const JsonValue &Run : Runs->Arr) {
    const JsonValue *Label = Run.find("label");
    const JsonValue *Disks = Run.find("disks");
    if (!Label || !Label->isString() || !Disks || !Disks->isArray()) {
      Error = "malformed timeline run entry";
      return false;
    }
    std::string RP = "timeline|" + Label->Str + "|";
    Out[RP + "end_ms"] = num(Run.find("end_ms"));
    for (const JsonValue &Disk : Disks->Arr) {
      std::string DP =
          RP + "disk" +
          std::to_string(uint64_t(num(Disk.find("disk")))) + ".";
      const JsonValue *Windows = Disk.find("windows");
      Out[DP + "windows"] =
          Windows && Windows->isArray() ? double(Windows->Arr.size()) : 0.0;
      const JsonValue *Gaps = Disk.find("gaps");
      Out[DP + "gaps"] =
          Gaps && Gaps->isArray() ? double(Gaps->Arr.size()) : 0.0;
      const JsonValue *Totals = Disk.find("totals");
      if (!Totals)
        continue;
      Out[DP + "requests"] = num(Totals->find("requests"));
      Out[DP + "bytes"] = num(Totals->find("bytes"));
      const JsonValue *StateMs = Totals->find("state_ms");
      if (StateMs && StateMs->isArray())
        for (size_t S = 0; S != StateMs->Arr.size(); ++S)
          Out[DP + "state_ms." + nameAt(*States, S)] = num(&StateMs->Arr[S]);
      const JsonValue *EnergyJ = Totals->find("energy_j");
      if (EnergyJ && EnergyJ->isArray())
        for (size_t C = 0; C != EnergyJ->Arr.size(); ++C)
          Out[DP + "energy_j." + nameAt(*Cats, C)] = num(&EnergyJ->Arr[C]);
    }
  }
  return true;
}

/// Extracts the tracked metrics of the document \p Doc read from \p Path
/// into (app|scheme|metric) keyed form; a report's come from the records
/// of the one report reader. Returns false with \p Error ("<Path>: ...")
/// when the document is malformed or neither a dra-report-v1 nor a
/// dra-timeline-v1.
bool extractMetrics(const JsonValue &Doc, const std::string &Path,
                    MetricMap &Out, std::string &Error) {
  const JsonValue *Schema = Doc.find("schema");
  std::string Name = Schema && Schema->isString() ? Schema->Str : "";
  if (Name == "dra-timeline-v1") {
    if (extractTimelineMetrics(Doc, Out, Error))
      return true;
    Error = Path + ": " + Error;
    return false;
  }
  if (Name != "dra-report-v1") {
    Error = Path + ": not a dra-report-v1 or dra-timeline-v1 document";
    return false;
  }
  ReportRecords Records;
  if (!readRunReport(Doc, Path, Records, Error))
    return false;
  for (const ReportRun &R : Records.Runs) {
    std::string Prefix = R.App + "|" + R.Scheme + "|";
    // The energy/perf numbers the paper's figures gate on, plus the
    // deterministic counters that catch behavioural (non-FP) drift.
    Out[Prefix + "energy_j"] = R.EnergyJ;
    Out[Prefix + "io_time_ms"] = R.IoTimeMs;
    Out[Prefix + "wall_time_ms"] = R.WallTimeMs;
    Out[Prefix + "num_requests"] = R.NumRequests;
    Out[Prefix + "spin_downs"] = R.SpinDowns;
    Out[Prefix + "rpm_steps"] = R.RpmSteps;
    Out[Prefix + "trace_bytes"] = R.TraceBytes;
    // Every attributed energy category too: a drift that cancels out of
    // total energy_j (say, idle attributed as standby) still moves its
    // category and fails here.
    for (const auto &[Cat, Joules] : R.CategoriesJ)
      Out[Prefix + "ledger." + Cat] = Joules;
    Out[Prefix + "ledger.missed_opportunity_j"] = R.MissedOpportunityJ;
    // And the per-nest energy split: a provenance bug that reshuffles
    // joules between nests while every ledger category stays put fails
    // here.
    if (const std::optional<ReportAttribution> &A = R.Attribution) {
      Out[Prefix + "attrib.total_j"] = A->TotalJ;
      Out[Prefix + "attrib.num_requests"] = A->TotalRequests;
      Out[Prefix + "attrib.unattributed_j"] = A->Unattributed.EnergyJ;
      for (const ReportNest &N : A->Nests) {
        std::string NP = Prefix + "attrib.nest." + N.Label + ".";
        Out[NP + "energy_j"] = N.EnergyJ;
        Out[NP + "busy_ms"] = N.BusyMs;
        Out[NP + "ready_delay_ms"] = N.ReadyDelayMs;
      }
    }
  }
  // The symbolic-analysis counts of every app that carries a footprint
  // (docs/ANALYSIS.md).
  for (const ReportFootprint &FP : Records.Footprints) {
    std::string Prefix = FP.App + "|footprint|";
    Out[Prefix + "refs_total"] = FP.RefsTotal;
    Out[Prefix + "refs_fallback"] = FP.RefsFallback;
    Out[Prefix + "symbolic_fraction"] = FP.SymbolicFraction;
    Out[Prefix + "iterations"] = FP.Iterations;
    Out[Prefix + "distinct_tiles"] = FP.DistinctTiles;
    for (size_t D = 0; D != FP.PerDiskDemand.size(); ++D)
      Out[Prefix + "demand_disk" + std::to_string(D)] = FP.PerDiskDemand[D];
  }
  return true;
}

/// Loads one report's gated metrics. \p Role names which side of the
/// comparison the file is ("baseline" or "current run") so a CI log
/// failure says immediately whether the checked-in baseline or the fresh
/// artifact is broken. A file that is missing, unreadable, unparseable,
/// not a dra-report-v1, or that defines no gated metrics at all is a hard
/// failure — a gate that silently compares nothing would pass forever.
bool loadMetrics(const char *Role, const std::string &Path, MetricMap &Out) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text) {
    std::fprintf(stderr,
                 "check-regression: error: cannot read %s '%s'%s\n", Role,
                 Path.c_str(),
                 std::filesystem::exists(Path) ? "" : " (no such file)");
    return false;
  }
  JsonValue Doc;
  std::string Error;
  if (!parseJson(*Text, Doc, Error)) {
    std::fprintf(stderr, "check-regression: error: %s '%s' is not valid "
                         "JSON: %s\n",
                 Role, Path.c_str(), Error.c_str());
    return false;
  }
  if (!extractMetrics(Doc, Path, Out, Error)) {
    std::fprintf(stderr, "check-regression: error: %s %s\n", Role,
                 Error.c_str());
    return false;
  }
  if (Out.empty()) {
    std::fprintf(stderr,
                 "check-regression: error: %s '%s' defines no gated "
                 "metrics (empty 'apps'?) — refusing to gate against it\n",
                 Role, Path.c_str());
    return false;
  }
  return true;
}

/// The largest relative drift seen across every compared pair; named in
/// the final summary so a multi-screen failure log still ends with the
/// one metric to look at first.
struct WorstDrift {
  std::string Label;
  std::string Metric;
  double SignedRel = 0.0; ///< (current - baseline) / scale, sign kept.
  bool Valid = false;

  void consider(const std::string &L, const std::string &M, double Signed) {
    if (Valid && std::fabs(Signed) <= std::fabs(SignedRel))
      return;
    Label = L;
    Metric = M;
    SignedRel = Signed;
    Valid = true;
  }
};

/// Compares one baseline/current file pair; returns the number of
/// violations (missing entries count).
unsigned compareFiles(const std::string &Label, const std::string &Baseline,
                      const std::string &Current, double Tolerance,
                      WorstDrift &Worst) {
  MetricMap Base, Cur;
  if (!loadMetrics("baseline", Baseline, Base) ||
      !loadMetrics("current run", Current, Cur))
    return 1;

  unsigned Violations = 0;
  for (const auto &[Key, Want] : Base) {
    auto It = Cur.find(Key);
    if (It == Cur.end()) {
      std::fprintf(stderr, "FAIL %s %s: missing from current run\n",
                   Label.c_str(), Key.c_str());
      ++Violations;
      continue;
    }
    double Got = It->second;
    double Scale = std::max(std::fabs(Want), std::fabs(Got));
    double Signed = Scale == 0.0 ? 0.0 : (Got - Want) / Scale;
    double Rel = std::fabs(Signed);
    if (Rel > Tolerance) {
      std::fprintf(stderr,
                   "FAIL %s %s: baseline %.17g, current %.17g "
                   "(%+.4g%%, rel drift %.3g > tol %.3g)\n",
                   Label.c_str(), Key.c_str(), Want, Got, Signed * 100.0, Rel,
                   Tolerance);
      Worst.consider(Label, Key, Signed);
      ++Violations;
    }
  }
  for (const auto &[Key, Val] : Cur) {
    (void)Val;
    if (!Base.count(Key)) {
      std::fprintf(stderr,
                   "FAIL %s %s: present in current run but not in baseline "
                   "(regenerate bench/baselines)\n",
                   Label.c_str(), Key.c_str());
      ++Violations;
    }
  }
  if (Violations == 0)
    std::printf("ok   %s: %zu metrics within tolerance %.3g\n", Label.c_str(),
                Base.size(), Tolerance);
  return Violations;
}

} // namespace

int main(int argc, char **argv) {
  std::string Baseline, Current;
  double Tolerance = 1e-6;
  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--baseline" && I + 1 != argc) {
      Baseline = argv[++I];
    } else if (Arg == "--current" && I + 1 != argc) {
      Current = argv[++I];
    } else if (Arg == "--tolerance" && I + 1 != argc) {
      char *End = nullptr;
      Tolerance = std::strtod(argv[++I], &End);
      if (End == argv[I] || *End != '\0' || Tolerance < 0.0) {
        std::fprintf(stderr,
                     "check-regression: error: bad --tolerance '%s'\n",
                     argv[I]);
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (Baseline.empty() || Current.empty())
    return usage(argv[0]);

  namespace fs = std::filesystem;
  unsigned Violations = 0;
  WorstDrift Worst;
  if (fs::is_directory(Baseline)) {
    if (!fs::is_directory(Current)) {
      std::fprintf(stderr,
                   "check-regression: error: baseline is a directory but "
                   "current ('%s') is not\n",
                   Current.c_str());
      return 1;
    }
    // Deterministic order: sorted baseline file names.
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Baseline))
      if (E.path().extension() == ".json")
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    if (Files.empty()) {
      std::fprintf(stderr,
                   "check-regression: error: no *.json baselines in '%s'\n",
                   Baseline.c_str());
      return 1;
    }
    for (const fs::path &P : Files) {
      fs::path Cur = fs::path(Current) / P.filename();
      if (!fs::exists(Cur)) {
        std::fprintf(stderr, "FAIL %s: no current-run counterpart (%s)\n",
                     P.filename().string().c_str(), Cur.string().c_str());
        ++Violations;
        continue;
      }
      Violations += compareFiles(P.filename().string(), P.string(),
                                 Cur.string(), Tolerance, Worst);
    }
  } else {
    Violations += compareFiles(fs::path(Baseline).filename().string(),
                               Baseline, Current, Tolerance, Worst);
  }

  if (Violations != 0) {
    std::fprintf(stderr, "check-regression: %u violation%s\n", Violations,
                 Violations == 1 ? "" : "s");
    if (Worst.Valid)
      std::fprintf(stderr,
                   "check-regression: worst drift: %s %s %+.4g%% "
                   "(rel %.3g)\n",
                   Worst.Label.c_str(), Worst.Metric.c_str(),
                   Worst.SignedRel * 100.0, std::fabs(Worst.SignedRel));
    return 1;
  }
  return 0;
}
