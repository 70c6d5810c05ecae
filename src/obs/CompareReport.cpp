//===- obs/CompareReport.cpp - Cross-scheme comparison reports --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/CompareReport.h"

#include "support/Format.h"

#include <array>

using namespace dra;

bool dra::buildComparison(const std::vector<ReportRun> &Runs,
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
  auto findBaseline = [&](const ReportRun &R) -> const ReportRun * {
    const ReportRun *Fallback = nullptr;
    for (const ReportRun &C : Runs) {
      if (C.App != R.App || C.Scheme != BaselineScheme)
        continue;
      if (C.Source == R.Source)
        return &C;
      if (!Fallback)
        Fallback = &C;
    }
    return Fallback;
  };

  for (const ReportRun &R : Runs) {
    const ReportRun *B = findBaseline(R);
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
    if (B->IoTimeMs > 0) {
      C.HasIoDegradation = true;
      C.IoDegradation = R.IoTimeMs / B->IoTimeMs - 1.0;
    }
    C.NormalizedMissedOpportunity = R.MissedOpportunityJ / B->EnergyJ;
    for (const auto &[Key, Joules] : R.CategoriesJ)
      C.NormalizedCategories.emplace_back(Key, Joules / B->EnergyJ);

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
        Out.Schemes.push_back(SchemeSummary{C.Run.Scheme, C.Run.Source});
        S = &Out.Schemes.back();
      }
      ++S->Apps;
      S->MeanNormalizedEnergy += C.NormalizedEnergy;
      S->MeanNormalizedMissedOpportunity += C.NormalizedMissedOpportunity;
      if (C.HasIoDegradation) {
        ++S->IoApps;
        S->MeanIoDegradation += C.IoDegradation;
      }
    }
  }
  for (SchemeSummary &S : Out.Schemes) {
    S.MeanNormalizedEnergy /= double(S.Apps);
    S.MeanNormalizedMissedOpportunity /= double(S.Apps);
    if (S.IoApps != 0)
      S.MeanIoDegradation /= double(S.IoApps);
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
      W.value(R.Run.IoTimeMs);
      W.key("io_degradation");
      if (R.HasIoDegradation)
        W.value(R.IoDegradation);
      else
        W.null();
      W.key("missed_opportunity_j");
      W.value(R.Run.MissedOpportunityJ);
      W.key("normalized_missed_opportunity");
      W.value(R.NormalizedMissedOpportunity);
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
    W.value(S.MeanNormalizedMissedOpportunity);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

namespace {

/// The table's category groups of one run, each the sum of its
/// categories: active, idle, standby, transitions (spin-down, spin-up, RPM
/// steps) and ready penalty.
using CategoryGroups = std::array<double, 5>;

CategoryGroups
groupCategories(const std::vector<std::pair<std::string, double>> &Cats) {
  CategoryGroups G{};
  for (const auto &[Key, Val] : Cats) {
    size_t I = Key.rfind("active", 0) == 0  ? 0
               : Key.rfind("idle@", 0) == 0 ? 1
               : Key == "standby_j"         ? 2
               : Key == "ready_penalty_j"   ? 4
                                            : 3; // spin-down/-up, RPM step
    G[I] += Val;
  }
  return G;
}

/// \p A's run of summary \p S's (scheme, source), or null.
const ComparedRun *runOf(const AppComparison &A, const SchemeSummary &S) {
  for (const ComparedRun &R : A.Runs)
    if (R.Run.Scheme == S.Scheme && R.Run.Source == S.Source)
      return &R;
  return nullptr;
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
    for (double V : groupCategories(R.NormalizedCategories))
      Row.push_back(fmtDouble(V, 4));
    Row.push_back(fmtDouble(R.NormalizedMissedOpportunity, 4));
    Row.push_back(R.HasIoDegradation ? fmtPercent(R.IoDegradation) : "-");
    T.addRow(std::move(Row));
  };

  for (const AppComparison &A : C.Apps)
    for (const ComparedRun &R : A.Runs)
      addRow(A.App, R);

  // Per-(scheme, source) averages across apps, Fig. 9's "average" group.
  for (const SchemeSummary &S : C.Schemes) {
    CategoryGroups Sum{};
    for (const AppComparison &A : C.Apps)
      for (const ComparedRun &R : A.Runs)
        if (R.Run.Scheme == S.Scheme && R.Run.Source == S.Source) {
          CategoryGroups G = groupCategories(R.NormalizedCategories);
          for (size_t I = 0; I != G.size(); ++I)
            Sum[I] += G[I];
        }
    std::vector<std::string> Row{"average", S.Scheme};
    if (MultiSource)
      Row.push_back(S.Source);
    Row.push_back(fmtDouble(S.MeanNormalizedEnergy, 4));
    for (double V : Sum)
      Row.push_back(fmtDouble(V / S.Apps, 4));
    Row.push_back(fmtDouble(S.MeanNormalizedMissedOpportunity, 4));
    Row.push_back(S.IoApps != 0 ? fmtPercent(S.MeanIoDegradation) : "-");
    T.addRow(std::move(Row));
  }
  return T.render();
}

std::string dra::renderEnergyMatrix(const Comparison &C) {
  std::vector<std::string> Header{"App"};
  for (const SchemeSummary &S : C.Schemes)
    Header.push_back(S.Scheme);
  TextTable T(std::move(Header));
  for (const AppComparison &A : C.Apps) {
    std::vector<std::string> Row{A.App};
    for (const SchemeSummary &S : C.Schemes) {
      const ComparedRun *R = runOf(A, S);
      Row.push_back(R ? fmtDouble(R->NormalizedEnergy, 4) : "-");
    }
    T.addRow(std::move(Row));
  }
  std::vector<std::string> Avg{"average"};
  for (const SchemeSummary &S : C.Schemes)
    Avg.push_back(fmtDouble(S.MeanNormalizedEnergy, 4));
  T.addRow(std::move(Avg));
  return T.render();
}

std::string dra::renderEnergyBars(const Comparison &C) {
  std::vector<std::string> Names;
  for (const SchemeSummary &S : C.Schemes)
    Names.push_back(S.Scheme);
  BarChart Chart(std::move(Names), 50);
  for (const AppComparison &A : C.Apps) {
    BarGroup G;
    G.Label = A.App;
    for (const SchemeSummary &S : C.Schemes) {
      const ComparedRun *R = runOf(A, S);
      G.Values.push_back(R ? R->NormalizedEnergy : 0.0);
    }
    Chart.addGroup(std::move(G));
  }
  return Chart.render();
}

std::string dra::renderIoDegradationMatrix(const Comparison &C) {
  std::vector<const SchemeSummary *> Cols;
  std::vector<std::string> Header{"App"};
  for (const SchemeSummary &S : C.Schemes)
    if (S.Scheme != C.BaselineScheme) {
      Cols.push_back(&S);
      Header.push_back(S.Scheme);
    }
  TextTable T(std::move(Header));
  for (const AppComparison &A : C.Apps) {
    std::vector<std::string> Row{A.App};
    for (const SchemeSummary *S : Cols) {
      const ComparedRun *R = runOf(A, *S);
      Row.push_back(!R ? "-"
                       : R->HasIoDegradation ? fmtPercent(R->IoDegradation)
                                             : "n/a");
    }
    T.addRow(std::move(Row));
  }
  std::vector<std::string> Avg{"average"};
  for (const SchemeSummary *S : Cols)
    Avg.push_back(S->IoApps != 0 ? fmtPercent(S->MeanIoDegradation) : "n/a");
  T.addRow(std::move(Avg));
  return T.render();
}

bool dra::compareReportJson(const std::string &ReportJson,
                            const std::string &Source,
                            const std::string &BaselineScheme,
                            Comparison &Out, std::string &Error) {
  JsonValue Doc;
  ReportRecords Records;
  if (!parseJson(ReportJson, Doc, Error)) {
    Error = Source + ": " + Error;
    return false;
  }
  return readRunReport(Doc, Source, Records, Error) &&
         buildComparison(Records.Runs, BaselineScheme, {Source}, Out, Error);
}

bool dra::compareReportFiles(const std::vector<std::string> &Files,
                             const std::string &BaselineScheme,
                             Comparison &Out, std::string &Error) {
  ReportRecords Records;
  for (const std::string &Path : Files)
    if (!loadRunReport(Path, Records, Error))
      return false;
  return buildComparison(Records.Runs, BaselineScheme, Files, Out, Error);
}
