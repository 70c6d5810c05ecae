//===- obs/AttribDiff.cpp - Attribution-granularity run diffing -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/AttribDiff.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace dra;

static double num(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->isNumber() ? V->Num : 0.0;
}

/// Reads one nest (or unattributed-bucket) entry of an attribution section.
static AttribNestView readNestView(const JsonValue &Entry,
                                   const std::string &Label) {
  AttribNestView N;
  N.Label = Label;
  N.EnergyJ = num(Entry, "energy_j");
  N.BusyMs = num(Entry, "busy_ms");
  N.ReadyDelayMs = num(Entry, "ready_delay_ms");
  N.NumRequests = uint64_t(num(Entry, "num_requests"));
  return N;
}

bool dra::extractAttribRuns(const JsonValue &Doc,
                            std::vector<AttribRunView> &Out,
                            std::string &Error) {
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "dra-report-v1") {
    Error = "not a dra-report-v1 document";
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
      if (!Scheme || !Scheme->isString()) {
        Error = "run without 'scheme' in app '" + Name->Str + "'";
        return false;
      }
      // Reports written with attribution off have no section; skip them
      // rather than fail, so a mixed report still diffs on what it has.
      const JsonValue *Attrib = Run.find("attribution");
      if (!Attrib || !Attrib->isObject())
        continue;
      const JsonValue *Total = Attrib->find("total");
      const JsonValue *Nests = Attrib->find("nests");
      const JsonValue *Unattributed = Attrib->find("unattributed");
      if (!Total || !Total->isObject() || !Nests || !Nests->isArray() ||
          !Unattributed || !Unattributed->isObject()) {
        Error = "malformed attribution section in app '" + Name->Str + "'";
        return false;
      }
      AttribRunView V;
      V.App = Name->Str;
      V.Scheme = Scheme->Str;
      V.TotalJ = num(*Total, "energy_j");
      for (const JsonValue &Nest : Nests->Arr) {
        const JsonValue *Label = Nest.find("label");
        if (!Label || !Label->isString()) {
          Error = "nest without 'label' in app '" + Name->Str + "'";
          return false;
        }
        V.Nests.push_back(readNestView(Nest, Label->Str));
      }
      // The unattributed bucket participates like a nest row (warm-up and
      // tail gap halves move between runs too).
      V.Nests.push_back(readNestView(*Unattributed, "(unattributed)"));
      Out.push_back(std::move(V));
    }
  }
  return true;
}

/// Diffs one matched pair of runs into an AppAttribDiff.
static AppAttribDiff diffRuns(const AttribRunView &A, const AttribRunView &B) {
  AppAttribDiff D;
  D.App = A.App;
  D.SchemeA = A.Scheme;
  D.SchemeB = B.Scheme;
  D.TotalAJ = A.TotalJ;
  D.TotalBJ = B.TotalJ;

  // First-seen label order: A's nests, then B-only nests.
  std::map<std::string, size_t> Index;
  for (const AttribNestView &N : A.Nests) {
    Index.emplace(N.Label, D.Nests.size());
    AttribNestDelta Row;
    Row.Label = N.Label;
    Row.InA = true;
    Row.AJ = N.EnergyJ;
    Row.ABusyMs = N.BusyMs;
    Row.AReadyDelayMs = N.ReadyDelayMs;
    D.Nests.push_back(std::move(Row));
  }
  for (const AttribNestView &N : B.Nests) {
    auto [It, Inserted] = Index.emplace(N.Label, D.Nests.size());
    if (Inserted)
      D.Nests.push_back(AttribNestDelta{});
    AttribNestDelta &Row = D.Nests[It->second];
    Row.Label = N.Label;
    Row.InB = true;
    Row.BJ = N.EnergyJ;
    Row.BBusyMs = N.BusyMs;
    Row.BReadyDelayMs = N.ReadyDelayMs;
  }
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

bool dra::buildAttribDiff(const std::vector<AttribRunView> &A,
                          const std::vector<AttribRunView> &B,
                          const std::string &SchemeA,
                          const std::string &SchemeB, AttribDiff &Out,
                          std::string &Error) {
  // An empty scheme filter on one side defaults to the other side's, so
  // `--scheme-a Base` alone means Base-vs-Base across the two files.
  std::string WantA = SchemeA.empty() ? SchemeB : SchemeA;
  std::string WantB = SchemeB.empty() ? SchemeA : SchemeB;

  auto findRun = [](const std::vector<AttribRunView> &Runs,
                    const std::string &App,
                    const std::string &Scheme) -> const AttribRunView * {
    for (const AttribRunView &R : Runs)
      if (R.App == App && R.Scheme == Scheme)
        return &R;
    return nullptr;
  };

  for (const AttribRunView &RA : A) {
    if (!WantA.empty()) {
      if (RA.Scheme != WantA)
        continue;
      if (const AttribRunView *RB = findRun(B, RA.App, WantB))
        Out.Apps.push_back(diffRuns(RA, *RB));
    } else if (const AttribRunView *RB =
                   findRun(B, RA.App, RA.Scheme)) {
      // No filter: pair every (app, scheme) present on both sides.
      Out.Apps.push_back(diffRuns(RA, *RB));
    }
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
      W.key("a_j");
      W.value(N.AJ);
      W.key("b_j");
      W.value(N.BJ);
      W.key("delta_j");
      W.value(N.DeltaJ);
      W.key("a_busy_ms");
      W.value(N.ABusyMs);
      W.key("b_busy_ms");
      W.value(N.BBusyMs);
      W.key("delta_busy_ms");
      W.value(N.DeltaBusyMs);
      W.key("a_ready_delay_ms");
      W.value(N.AReadyDelayMs);
      W.key("b_ready_delay_ms");
      W.value(N.BReadyDelayMs);
      W.key("delta_ready_delay_ms");
      W.value(N.DeltaReadyDelayMs);
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

/// Reads, parses and extracts one input file.
static bool loadAttribFile(const std::string &Path,
                           std::vector<AttribRunView> &Out,
                           std::string &Error) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text) {
    Error = "cannot read '" + Path + "'";
    return false;
  }
  JsonValue Doc;
  std::string Detail;
  if (!parseJson(*Text, Doc, Detail)) {
    Error = Path + ": " + Detail;
    return false;
  }
  if (!extractAttribRuns(Doc, Out, Detail)) {
    Error = Path + ": " + Detail;
    return false;
  }
  if (Out.empty()) {
    Error = Path + ": no run carries an attribution section";
    return false;
  }
  return true;
}

bool dra::diffAttribFiles(const std::string &FileA, const std::string &FileB,
                          const std::string &SchemeA,
                          const std::string &SchemeB, AttribDiff &Out,
                          std::string &Error) {
  std::vector<AttribRunView> A, B;
  if (!loadAttribFile(FileA, A, Error) || !loadAttribFile(FileB, B, Error))
    return false;
  Out = AttribDiff();
  Out.SourceA = FileA;
  Out.SourceB = FileB;
  return buildAttribDiff(A, B, SchemeA, SchemeB, Out, Error);
}
