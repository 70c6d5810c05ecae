//===- obs/CompareReport.cpp - Cross-scheme comparison reports --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/CompareReport.h"

#include "support/FileIO.h"
#include "support/Format.h"


using namespace dra;

static double num(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->isNumber() ? V->Num : 0.0;
}

/// Flattens one run's "ledger" section into \p R's category list.
static bool extractLedgerRun(const JsonValue &Ledger, CompareRun &R,
                             std::string &Error) {
  const JsonValue *Total = Ledger.find("total");
  const JsonValue *Gaps = Ledger.find("gaps");
  if (!Total || !Total->isObject() || !Gaps || !Gaps->isObject()) {
    Error = "malformed ledger section (missing 'total' or 'gaps')";
    return false;
  }
  R.HasLedger = true;
  R.MissedOpportunityJ = num(*Gaps, "missed_opportunity_j");
  R.CategoriesJ.emplace_back("active_read_j", num(*Total, "active_read_j"));
  R.CategoriesJ.emplace_back("active_write_j", num(*Total, "active_write_j"));
  if (const JsonValue *Idle = Total->find("idle_by_rpm_j");
      Idle && Idle->isObject())
    for (const auto &[Rpm, V] : Idle->Obj)
      if (V.isNumber())
        R.CategoriesJ.emplace_back("idle@" + Rpm + "_j", V.Num);
  for (const char *Key : {"spin_down_j", "spin_up_j", "standby_j",
                          "rpm_step_j", "ready_penalty_j"})
    R.CategoriesJ.emplace_back(Key, num(*Total, Key));
  return true;
}

bool dra::extractCompareRuns(const JsonValue &Doc,
                             const std::string &SourceLabel,
                             std::vector<CompareRun> &Out,
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
      CompareRun R;
      R.Source = SourceLabel;
      R.App = Name->Str;
      R.Scheme = Scheme->Str;
      const JsonValue *Sim = Run.find("sim");
      if (!Sim || !Sim->isObject() || !Sim->find("energy_j")) {
        Error = "run without sim results in app '" + Name->Str + "'";
        return false;
      }
      R.EnergyJ = num(*Sim, "energy_j");
      if (const JsonValue *Io = Sim->find("io_time_ms");
          Io && Io->isNumber()) {
        R.HasIoTime = true;
        R.IoTimeMs = Io->Num;
      }
      // Reports written before the ledger section existed simply lack it;
      // they still compare on total energy.
      const JsonValue *Ledger = Run.find("ledger");
      if (Ledger && Ledger->isObject() &&
          !extractLedgerRun(*Ledger, R, Error))
        return false;
      Out.push_back(std::move(R));
    }
  }
  return true;
}

bool dra::buildComparison(const std::vector<CompareRun> &Runs,
                          const std::string &BaselineScheme,
                          const std::vector<std::string> &Inputs,
                          Comparison &Out, std::string &Error) {
  Out = Comparison();
  Out.BaselineScheme = BaselineScheme;
  Out.Inputs = Inputs;
  if (Runs.empty()) {
    Error = "no runs to compare";
    return false;
  }

  // Baseline resolution: same-source first, any-source fallback (lets a
  // set of single-scheme per-job reports borrow the Base job's run).
  auto findBaseline = [&](const CompareRun &R) -> const CompareRun * {
    const CompareRun *Fallback = nullptr;
    for (const CompareRun &C : Runs) {
      if (C.App != R.App || C.Scheme != BaselineScheme)
        continue;
      if (C.Source == R.Source)
        return &C;
      if (!Fallback)
        Fallback = &C;
    }
    return Fallback;
  };

  for (const CompareRun &R : Runs) {
    const CompareRun *B = findBaseline(R);
    if (!B) {
      Error = "no '" + BaselineScheme + "' baseline run for app '" + R.App +
              "' in any input";
      return false;
    }
    if (!(B->EnergyJ > 0)) {
      Error = "baseline energy for app '" + R.App + "' is not positive";
      return false;
    }
    ComparedRun C;
    C.Run = R;
    C.BaselineSource = B->Source;
    C.BaselineEnergyJ = B->EnergyJ;
    C.NormalizedEnergy = R.EnergyJ / B->EnergyJ;
    if (R.HasIoTime && B->HasIoTime && B->IoTimeMs > 0) {
      C.HasIoDegradation = true;
      C.IoDegradation = R.IoTimeMs / B->IoTimeMs - 1.0;
    }
    if (R.HasLedger) {
      C.NormalizedMissedOpportunity = R.MissedOpportunityJ / B->EnergyJ;
      for (const auto &[Key, Joules] : R.CategoriesJ)
        C.NormalizedCategories.emplace_back(Key, Joules / B->EnergyJ);
    }

    AppComparison *A = nullptr;
    for (AppComparison &Existing : Out.Apps)
      if (Existing.App == R.App)
        A = &Existing;
    if (!A) {
      Out.Apps.push_back(AppComparison{R.App, {}});
      A = &Out.Apps.back();
    }
    A->Runs.push_back(std::move(C));
  }

  // Per-(scheme, source) means across apps, first-seen order.
  for (const AppComparison &A : Out.Apps) {
    for (const ComparedRun &C : A.Runs) {
      SchemeSummary *S = nullptr;
      for (SchemeSummary &Existing : Out.Schemes)
        if (Existing.Scheme == C.Run.Scheme && Existing.Source == C.Run.Source)
          S = &Existing;
      if (!S) {
        Out.Schemes.push_back(SchemeSummary{C.Run.Scheme, C.Run.Source, 0,
                                            0.0, 0.0, true});
        S = &Out.Schemes.back();
      }
      ++S->Apps;
      S->MeanNormalizedEnergy += C.NormalizedEnergy;
      S->MeanNormalizedMissedOpportunity += C.NormalizedMissedOpportunity;
      S->AllHaveLedger = S->AllHaveLedger && C.Run.HasLedger;
    }
  }
  for (SchemeSummary &S : Out.Schemes) {
    S.MeanNormalizedEnergy /= double(S.Apps);
    S.MeanNormalizedMissedOpportunity /= double(S.Apps);
  }
  return true;
}

static void writeCategoryMap(
    JsonWriter &W, const std::vector<std::pair<std::string, double>> &Cats) {
  W.beginObject();
  for (const auto &[Key, Val] : Cats) {
    W.key(Key);
    W.value(Val);
  }
  W.endObject();
}

std::string dra::renderCompareJson(const Comparison &C) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("dra-compare-v1");
  W.key("baseline_scheme");
  W.value(C.BaselineScheme);
  W.key("inputs");
  W.beginArray();
  for (const std::string &I : C.Inputs)
    W.value(I);
  W.endArray();
  W.key("apps");
  W.beginArray();
  for (const AppComparison &A : C.Apps) {
    W.beginObject();
    W.key("app");
    W.value(A.App);
    W.key("runs");
    W.beginArray();
    for (const ComparedRun &R : A.Runs) {
      W.beginObject();
      W.key("scheme");
      W.value(R.Run.Scheme);
      W.key("source");
      W.value(R.Run.Source);
      W.key("baseline_source");
      W.value(R.BaselineSource);
      W.key("baseline_energy_j");
      W.value(R.BaselineEnergyJ);
      W.key("energy_j");
      W.value(R.Run.EnergyJ);
      W.key("normalized_energy");
      W.value(R.NormalizedEnergy);
      W.key("io_time_ms");
      if (R.Run.HasIoTime)
        W.value(R.Run.IoTimeMs);
      else
        W.null();
      W.key("io_degradation");
      if (R.HasIoDegradation)
        W.value(R.IoDegradation);
      else
        W.null();
      W.key("missed_opportunity_j");
      if (R.Run.HasLedger)
        W.value(R.Run.MissedOpportunityJ);
      else
        W.null();
      W.key("normalized_missed_opportunity");
      if (R.Run.HasLedger)
        W.value(R.NormalizedMissedOpportunity);
      else
        W.null();
      W.key("categories_j");
      writeCategoryMap(W, R.Run.CategoriesJ);
      W.key("categories_normalized");
      writeCategoryMap(W, R.NormalizedCategories);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("schemes");
  W.beginArray();
  for (const SchemeSummary &S : C.Schemes) {
    W.beginObject();
    W.key("scheme");
    W.value(S.Scheme);
    W.key("source");
    W.value(S.Source);
    W.key("apps");
    W.value(uint64_t(S.Apps));
    W.key("mean_normalized_energy");
    W.value(S.MeanNormalizedEnergy);
    W.key("mean_normalized_missed_opportunity");
    if (S.AllHaveLedger)
      W.value(S.MeanNormalizedMissedOpportunity);
    else
      W.null();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

namespace {

/// Normalized category groups of one run (the table's columns).
struct CategoryGroups {
  double Active = 0.0;
  double Idle = 0.0;
  double Standby = 0.0;
  double Transitions = 0.0;
  double Penalty = 0.0;
};

CategoryGroups
groupCategories(const std::vector<std::pair<std::string, double>> &Cats) {
  CategoryGroups G;
  for (const auto &[Key, Val] : Cats) {
    if (Key.rfind("active", 0) == 0)
      G.Active += Val;
    else if (Key.rfind("idle@", 0) == 0)
      G.Idle += Val;
    else if (Key == "standby_j")
      G.Standby += Val;
    else if (Key == "ready_penalty_j")
      G.Penalty += Val;
    else // spin_down_j / spin_up_j / rpm_step_j
      G.Transitions += Val;
  }
  return G;
}

} // namespace

std::string dra::renderCompareTable(const Comparison &C) {
  bool MultiSource = C.Inputs.size() > 1;
  std::vector<std::string> Header{"App", "Scheme"};
  if (MultiSource)
    Header.push_back("Source");
  for (const char *Col : {"Norm. energy", "Active", "Idle", "Standby",
                          "Transitions", "Penalty", "Missed opp.",
                          "I/O degr."})
    Header.push_back(Col);
  TextTable T(std::move(Header));

  auto addRow = [&](const std::string &App, const ComparedRun &R) {
    std::vector<std::string> Row{App, R.Run.Scheme};
    if (MultiSource)
      Row.push_back(R.Run.Source);
    Row.push_back(fmtDouble(R.NormalizedEnergy, 4));
    if (R.Run.HasLedger) {
      CategoryGroups G = groupCategories(R.NormalizedCategories);
      Row.push_back(fmtDouble(G.Active, 4));
      Row.push_back(fmtDouble(G.Idle, 4));
      Row.push_back(fmtDouble(G.Standby, 4));
      Row.push_back(fmtDouble(G.Transitions, 4));
      Row.push_back(fmtDouble(G.Penalty, 4));
      Row.push_back(fmtDouble(R.NormalizedMissedOpportunity, 4));
    } else {
      for (int I = 0; I != 6; ++I)
        Row.push_back("-");
    }
    Row.push_back(R.HasIoDegradation ? fmtPercent(R.IoDegradation) : "-");
    T.addRow(std::move(Row));
  };

  for (const AppComparison &A : C.Apps)
    for (const ComparedRun &R : A.Runs)
      addRow(A.App, R);

  // Per-(scheme, source) averages across apps, Fig. 9's "average" group.
  for (const SchemeSummary &S : C.Schemes) {
    CategoryGroups Sum;
    double IoSum = 0.0;
    unsigned N = 0, IoN = 0;
    bool AllLedger = true;
    for (const AppComparison &A : C.Apps)
      for (const ComparedRun &R : A.Runs) {
        if (R.Run.Scheme != S.Scheme || R.Run.Source != S.Source)
          continue;
        ++N;
        AllLedger = AllLedger && R.Run.HasLedger;
        CategoryGroups G = groupCategories(R.NormalizedCategories);
        Sum.Active += G.Active;
        Sum.Idle += G.Idle;
        Sum.Standby += G.Standby;
        Sum.Transitions += G.Transitions;
        Sum.Penalty += G.Penalty;
        if (R.HasIoDegradation) {
          IoSum += R.IoDegradation;
          ++IoN;
        }
      }
    std::vector<std::string> Row{"average", S.Scheme};
    if (MultiSource)
      Row.push_back(S.Source);
    Row.push_back(fmtDouble(S.MeanNormalizedEnergy, 4));
    if (AllLedger && N != 0) {
      Row.push_back(fmtDouble(Sum.Active / N, 4));
      Row.push_back(fmtDouble(Sum.Idle / N, 4));
      Row.push_back(fmtDouble(Sum.Standby / N, 4));
      Row.push_back(fmtDouble(Sum.Transitions / N, 4));
      Row.push_back(fmtDouble(Sum.Penalty / N, 4));
      Row.push_back(fmtDouble(S.MeanNormalizedMissedOpportunity, 4));
    } else {
      for (int I = 0; I != 6; ++I)
        Row.push_back("-");
    }
    Row.push_back(IoN != 0 ? fmtPercent(IoSum / IoN) : "-");
    T.addRow(std::move(Row));
  }
  return T.render();
}

bool dra::compareReportFiles(const std::vector<std::string> &Files,
                             const std::string &BaselineScheme,
                             Comparison &Out, std::string &Error) {
  std::vector<CompareRun> Runs;
  for (const std::string &Path : Files) {
    std::optional<std::string> Text = readFile(Path);
    if (!Text) {
      Error = "cannot read '" + Path + "'";
      return false;
    }
    JsonValue Doc;
    std::string ParseError;
    if (!parseJson(*Text, Doc, ParseError)) {
      Error = Path + ": " + ParseError;
      return false;
    }
    if (!extractCompareRuns(Doc, Path, Runs, ParseError)) {
      Error = Path + ": " + ParseError;
      return false;
    }
  }
  return buildComparison(Runs, BaselineScheme, Files, Out, Error);
}
