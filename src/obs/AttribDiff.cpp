//===- obs/AttribDiff.cpp - Attribution-granularity run diffing -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/AttribDiff.h"

#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace dra;

/// Diffs one matched pair of attributed runs into an AppAttribDiff.
static AppAttribDiff diffRuns(const ReportRun &A, const ReportRun &B) {
  AppAttribDiff D;
  D.App = A.App;
  D.SchemeA = A.Scheme;
  D.SchemeB = B.Scheme;
  D.TotalAJ = A.Attribution->TotalJ;
  D.TotalBJ = B.Attribution->TotalJ;

  // First-seen label order: A's nests, then B-only nests. The unattributed
  // bucket closes each side (warm-up and tail gap halves move between
  // runs too).
  std::map<std::string, size_t> Index;
  auto addSide = [&](const ReportAttribution &Side, bool IsA) {
    auto addRow = [&](const ReportNest &N) {
      auto [It, Inserted] = Index.emplace(N.Label, D.Nests.size());
      if (Inserted)
        D.Nests.push_back(AttribNestDelta{});
      AttribNestDelta &Row = D.Nests[It->second];
      Row.Label = N.Label;
      (IsA ? Row.InA : Row.InB) = true;
      (IsA ? Row.AJ : Row.BJ) = N.EnergyJ;
      (IsA ? Row.ABusyMs : Row.BBusyMs) = N.BusyMs;
      (IsA ? Row.AReadyDelayMs : Row.BReadyDelayMs) = N.ReadyDelayMs;
    };
    for (const ReportNest &N : Side.Nests)
      addRow(N);
    addRow(Side.Unattributed);
  };
  addSide(*A.Attribution, true);
  addSide(*B.Attribution, false);
  for (AttribNestDelta &Row : D.Nests) {
    Row.DeltaJ = Row.BJ - Row.AJ;
    Row.DeltaBusyMs = Row.BBusyMs - Row.ABusyMs;
    Row.DeltaReadyDelayMs = Row.BReadyDelayMs - Row.AReadyDelayMs;
  }
  std::stable_sort(D.Nests.begin(), D.Nests.end(),
                   [](const AttribNestDelta &X, const AttribNestDelta &Y) {
                     return std::fabs(X.DeltaJ) > std::fabs(Y.DeltaJ);
                   });
  return D;
}

bool dra::buildAttribDiff(const std::vector<ReportRun> &A,
                          const std::vector<ReportRun> &B,
                          const std::string &SchemeA,
                          const std::string &SchemeB, AttribDiff &Out,
                          std::string &Error) {
  // An empty scheme filter on one side defaults to the other side's, so
  // `--scheme-a Base` alone means Base-vs-Base across the two files.
  std::string WantA = SchemeA.empty() ? SchemeB : SchemeA;
  std::string WantB = SchemeB.empty() ? SchemeA : SchemeB;

  auto findRun = [](const std::vector<ReportRun> &Runs,
                    const std::string &App,
                    const std::string &Scheme) -> const ReportRun * {
    for (const ReportRun &R : Runs)
      if (R.Attribution && R.App == App && R.Scheme == Scheme)
        return &R;
    return nullptr;
  };

  // With no filter (both Want empty), pair every (app, scheme) present on
  // both sides.
  for (const ReportRun &RA : A) {
    if (!RA.Attribution || (!WantA.empty() && RA.Scheme != WantA))
      continue;
    if (const ReportRun *RB =
            findRun(B, RA.App, WantA.empty() ? RA.Scheme : WantB))
      Out.Apps.push_back(diffRuns(RA, *RB));
  }
  if (Out.Apps.empty()) {
    Error = WantA.empty()
                ? std::string("no app x scheme present in both inputs")
                : "no app has '" + WantA + "' in A and '" + WantB + "' in B";
    return false;
  }
  return true;
}

std::string dra::renderAttribDiffJson(const AttribDiff &D) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("dra-diff-v1");
  W.key("source_a");
  W.value(D.SourceA);
  W.key("source_b");
  W.value(D.SourceB);
  W.key("apps");
  W.beginArray();
  for (const AppAttribDiff &App : D.Apps) {
    W.beginObject();
    W.key("app");
    W.value(App.App);
    W.key("scheme_a");
    W.value(App.SchemeA);
    W.key("scheme_b");
    W.value(App.SchemeB);
    W.key("total_a_j");
    W.value(App.TotalAJ);
    W.key("total_b_j");
    W.value(App.TotalBJ);
    W.key("delta_j");
    W.value(App.TotalBJ - App.TotalAJ);
    W.key("nests");
    W.beginArray();
    for (const AttribNestDelta &N : App.Nests) {
      W.beginObject();
      W.key("label");
      W.value(N.Label);
      W.key("in_a");
      W.value(N.InA);
      W.key("in_b");
      W.value(N.InB);
      for (const auto &[Key, Value] :
           {std::pair{"a_j", N.AJ}, {"b_j", N.BJ}, {"delta_j", N.DeltaJ},
            {"a_busy_ms", N.ABusyMs}, {"b_busy_ms", N.BBusyMs},
            {"delta_busy_ms", N.DeltaBusyMs},
            {"a_ready_delay_ms", N.AReadyDelayMs},
            {"b_ready_delay_ms", N.BReadyDelayMs},
            {"delta_ready_delay_ms", N.DeltaReadyDelayMs}}) {
        W.key(Key);
        W.value(Value);
      }
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

/// A signed two-decimal delta: "+1.50", "-0.25".
static std::string fmtDelta(double V) {
  std::string S = V >= 0 ? "+" : "";
  S += fmtDouble(V, 2);
  return S;
}

std::string dra::renderAttribDiffTable(const AttribDiff &D) {
  std::string Out;
  for (const AppAttribDiff &App : D.Apps) {
    Out += App.App + ": " + App.SchemeA + " (A) vs " + App.SchemeB +
           " (B)  total " + fmtDouble(App.TotalAJ, 1) + " J -> " +
           fmtDouble(App.TotalBJ, 1) + " J (" +
           (App.TotalBJ >= App.TotalAJ ? "+" : "") +
           fmtDouble(App.TotalBJ - App.TotalAJ, 1) + " J)\n";
    TextTable T({"Nest", "A (J)", "B (J)", "Delta (J)", "Delta busy (ms)",
                 "Delta stall (ms)"});
    for (const AttribNestDelta &N : App.Nests) {
      std::string Label = N.Label;
      if (!N.InA)
        Label += " [B only]";
      else if (!N.InB)
        Label += " [A only]";
      T.addRow({Label, fmtDouble(N.AJ, 2), fmtDouble(N.BJ, 2),
                fmtDelta(N.DeltaJ), fmtDelta(N.DeltaBusyMs),
                fmtDelta(N.DeltaReadyDelayMs)});
    }
    Out += T.render();
    Out += '\n';
  }
  return Out;
}

bool dra::diffAttribFiles(const std::string &FileA, const std::string &FileB,
                          const std::string &SchemeA,
                          const std::string &SchemeB, AttribDiff &Out,
                          std::string &Error) {
  // Each file must hold at least one attributed run.
  auto load = [&](const std::string &Path, ReportRecords &Records) {
    if (!loadRunReport(Path, Records, Error))
      return false;
    for (const ReportRun &R : Records.Runs)
      if (R.Attribution)
        return true;
    Error = Path + ": no run carries an attribution section";
    return false;
  };
  ReportRecords A, B;
  if (!load(FileA, A) || !load(FileB, B))
    return false;
  Out = AttribDiff();
  Out.SourceA = FileA;
  Out.SourceB = FileB;
  return buildAttribDiff(A.Runs, B.Runs, SchemeA, SchemeB, Out, Error);
}
