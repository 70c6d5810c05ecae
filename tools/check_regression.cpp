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

#include "support/FileIO.h"
#include "support/Json.h"

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

/// Extracts the tracked metrics of one report into (app|scheme|metric)
/// keyed form. Returns false when the document is neither a dra-report-v1
/// nor a dra-timeline-v1.
bool extractMetrics(const JsonValue &Doc, MetricMap &Out, std::string &Error) {
  const JsonValue *Schema = Doc.find("schema");
  if (Schema && Schema->isString() && Schema->Str == "dra-timeline-v1")
    return extractTimelineMetrics(Doc, Out, Error);
  if (!Schema || !Schema->isString() || Schema->Str != "dra-report-v1") {
    Error = "not a dra-report-v1 or dra-timeline-v1 document";
    return false;
  }
  const JsonValue *Apps = Doc.find("apps");
  if (!Apps || !Apps->isArray()) {
    Error = "missing 'apps' array";
    return false;
  }
  for (const JsonValue &App : Apps->Arr) {
    const JsonValue *Name = App.find("app");
    const JsonValue *Runs = App.find("runs");
    if (!Name || !Name->isString() || !Runs || !Runs->isArray()) {
      Error = "malformed app entry";
      return false;
    }
    for (const JsonValue &Run : Runs->Arr) {
      const JsonValue *Scheme = Run.find("scheme");
      const JsonValue *Sim = Run.find("sim");
      if (!Scheme || !Scheme->isString() || !Sim || !Sim->isObject()) {
        Error = "malformed run entry in app '" + Name->Str + "'";
        return false;
      }
      std::string Prefix = Name->Str + "|" + Scheme->Str + "|";
      // The energy/perf numbers the paper's figures gate on, plus the
      // deterministic counters that catch behavioural (non-FP) drift.
      Out[Prefix + "energy_j"] = num(Sim->find("energy_j"));
      Out[Prefix + "io_time_ms"] = num(Sim->find("io_time_ms"));
      Out[Prefix + "wall_time_ms"] = num(Sim->find("wall_time_ms"));
      Out[Prefix + "num_requests"] = num(Sim->find("num_requests"));
      Out[Prefix + "spin_downs"] = num(Sim->find("spin_downs"));
      Out[Prefix + "rpm_steps"] = num(Sim->find("rpm_steps"));
      Out[Prefix + "trace_bytes"] = num(Run.find("trace_bytes"));
      // Ledger-era reports also gate every attributed energy category:
      // a drift that cancels out of total energy_j (say, idle attributed
      // as standby) still moves its category and fails here.
      if (const JsonValue *Ledger = Run.find("ledger")) {
        if (const JsonValue *Total = Ledger->find("total")) {
          for (const char *Cat :
               {"active_read_j", "active_write_j", "spin_down_j", "spin_up_j",
                "standby_j", "rpm_step_j", "ready_penalty_j"})
            Out[Prefix + "ledger." + Cat] = num(Total->find(Cat));
          const JsonValue *ByRpm = Total->find("idle_by_rpm_j");
          if (ByRpm && ByRpm->isObject())
            for (const auto &[Rpm, Joules] : ByRpm->Obj)
              Out[Prefix + "ledger.idle@" + Rpm + "_j"] =
                  Joules.isNumber() ? Joules.Num : 0.0;
        }
        if (const JsonValue *Gaps = Ledger->find("gaps"))
          Out[Prefix + "ledger.missed_opportunity_j"] =
              num(Gaps->find("missed_opportunity_j"));
      }
      // Attribution-era reports also gate the per-nest energy split:
      // a provenance bug that reshuffles joules between nests while every
      // ledger category stays put fails here. Guarded on key presence so
      // pre-attribution baselines stay comparable.
      if (const JsonValue *Attrib = Run.find("attribution")) {
        if (const JsonValue *Total = Attrib->find("total")) {
          Out[Prefix + "attrib.total_j"] = num(Total->find("energy_j"));
          Out[Prefix + "attrib.num_requests"] =
              num(Total->find("num_requests"));
        }
        if (const JsonValue *Un = Attrib->find("unattributed"))
          Out[Prefix + "attrib.unattributed_j"] = num(Un->find("energy_j"));
        const JsonValue *Nests = Attrib->find("nests");
        if (Nests && Nests->isArray())
          for (const JsonValue &Nest : Nests->Arr) {
            const JsonValue *Label = Nest.find("label");
            if (!Label || !Label->isString())
              continue;
            std::string NP = Prefix + "attrib.nest." + Label->Str + ".";
            Out[NP + "energy_j"] = num(Nest.find("energy_j"));
            Out[NP + "busy_ms"] = num(Nest.find("busy_ms"));
            Out[NP + "ready_delay_ms"] = num(Nest.find("ready_delay_ms"));
          }
      }
    }
    // Footprint-era reports also gate the symbolic-analysis counts
    // (docs/ANALYSIS.md). Guarded on key presence so pre-footprint
    // baselines stay comparable: the symmetric missing-key check above
    // only fires once baselines are regenerated with footprints in them.
    if (const JsonValue *FP = App.find("footprint")) {
      std::string Prefix = Name->Str + "|footprint|";
      if (const JsonValue *Cov = FP->find("coverage")) {
        Out[Prefix + "refs_total"] = num(Cov->find("refs_total"));
        Out[Prefix + "refs_fallback"] = num(Cov->find("refs_fallback"));
        Out[Prefix + "symbolic_fraction"] = num(Cov->find("symbolic_fraction"));
      }
      if (const JsonValue *Total = FP->find("total")) {
        Out[Prefix + "iterations"] = num(Total->find("iterations"));
        Out[Prefix + "distinct_tiles"] = num(Total->find("distinct_tiles"));
        const JsonValue *Demand = Total->find("per_disk_demand");
        if (Demand && Demand->isArray())
          for (size_t D = 0; D != Demand->Arr.size(); ++D)
            Out[Prefix + "demand_disk" + std::to_string(D)] =
                num(&Demand->Arr[D]);
      }
    }
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
  if (!extractMetrics(Doc, Out, Error)) {
    std::fprintf(stderr, "check-regression: error: %s '%s': %s\n", Role,
                 Path.c_str(), Error.c_str());
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
