//===- core/Report.cpp - Paper-style result tables --------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "support/Format.h"

#include <cassert>

using namespace dra;

AppResults Report::evaluate(const AppUnderTest &App) const {
  AppResults R;
  R.Name = App.Name;
  Program P = App.Build();
  Pipeline Pipe(P, Config);
  for (Scheme S : Schemes)
    R.Runs.push_back(Pipe.run(S));
  return R;
}

size_t Report::baseIndex() const {
  for (size_t I = 0; I != Schemes.size(); ++I)
    if (Schemes[I] == Scheme::Base)
      return I;
  assert(false && "scheme list must contain Base for normalization");
  return 0;
}

double Report::averageNormalizedEnergy(const std::vector<AppResults> &All,
                                       size_t SI) const {
  size_t BI = baseIndex();
  double Sum = 0.0;
  for (const AppResults &A : All)
    Sum += A.Runs[SI].Sim.EnergyJ / A.Runs[BI].Sim.EnergyJ;
  return All.empty() ? 0.0 : Sum / double(All.size());
}

double Report::averagePerfDegradation(const std::vector<AppResults> &All,
                                      size_t SI) const {
  size_t BI = baseIndex();
  double Sum = 0.0;
  for (const AppResults &A : All)
    Sum += A.Runs[SI].Sim.IoTimeMs / A.Runs[BI].Sim.IoTimeMs - 1.0;
  return All.empty() ? 0.0 : Sum / double(All.size());
}

std::string
Report::renderEnergyTable(const std::vector<AppResults> &All) const {
  size_t BI = baseIndex();
  std::vector<std::string> Header{"App"};
  for (Scheme S : Schemes)
    Header.push_back(schemeName(S));
  TextTable T(std::move(Header));
  for (const AppResults &A : All) {
    std::vector<std::string> Row{A.Name};
    for (size_t I = 0; I != Schemes.size(); ++I)
      Row.push_back(
          fmtDouble(A.Runs[I].Sim.EnergyJ / A.Runs[BI].Sim.EnergyJ, 4));
    T.addRow(std::move(Row));
  }
  std::vector<std::string> Avg{"average"};
  for (size_t I = 0; I != Schemes.size(); ++I)
    Avg.push_back(fmtDouble(averageNormalizedEnergy(All, I), 4));
  T.addRow(std::move(Avg));
  return T.render();
}

std::string Report::renderEnergyBars(const std::vector<AppResults> &All) const {
  size_t BI = baseIndex();
  std::vector<std::string> Names;
  for (Scheme S : Schemes)
    Names.push_back(schemeName(S));
  BarChart Chart(std::move(Names), 50);
  for (const AppResults &A : All) {
    BarGroup G;
    G.Label = A.Name;
    for (size_t I = 0; I != Schemes.size(); ++I)
      G.Values.push_back(A.Runs[I].Sim.EnergyJ / A.Runs[BI].Sim.EnergyJ);
    Chart.addGroup(std::move(G));
  }
  return Chart.render();
}

std::string Report::renderPerfTable(const std::vector<AppResults> &All) const {
  size_t BI = baseIndex();
  std::vector<std::string> Header{"App"};
  for (Scheme S : Schemes)
    if (S != Scheme::Base)
      Header.push_back(schemeName(S));
  TextTable T(std::move(Header));
  for (const AppResults &A : All) {
    std::vector<std::string> Row{A.Name};
    for (size_t I = 0; I != Schemes.size(); ++I) {
      if (Schemes[I] == Scheme::Base)
        continue;
      Row.push_back(fmtPercent(A.Runs[I].Sim.IoTimeMs /
                                   A.Runs[BI].Sim.IoTimeMs -
                               1.0));
    }
    T.addRow(std::move(Row));
  }
  std::vector<std::string> Avg{"average"};
  for (size_t I = 0; I != Schemes.size(); ++I) {
    if (Schemes[I] == Scheme::Base)
      continue;
    Avg.push_back(fmtPercent(averagePerfDegradation(All, I)));
  }
  T.addRow(std::move(Avg));
  return T.render();
}

std::string Report::renderCsv(const std::vector<AppResults> &All) const {
  size_t BI = baseIndex();
  // fmtExact everywhere: the CSV feeds external plotting and diffing, so
  // reading a cell back must recover the exact double the run produced.
  std::string Out = "app,scheme,energy_j,norm_energy,io_time_ms,"
                    "io_degradation,wall_ms,spin_downs,rpm_steps,"
                    "missed_opportunity_j\n";
  for (const AppResults &A : All) {
    for (size_t I = 0; I != Schemes.size(); ++I) {
      const SimResults &R = A.Runs[I].Sim;
      const SimResults &B = A.Runs[BI].Sim;
      double MissedJ = 0.0;
      for (const DiskStats &S : R.PerDisk)
        MissedJ += S.MissedOpportunityJ;
      Out += A.Name;
      Out += ",";
      Out += schemeName(Schemes[I]);
      auto Field = [&Out](const std::string &Value) {
        Out += ',';
        Out += Value;
      };
      Field(fmtExact(R.EnergyJ));
      Field(fmtExact(R.EnergyJ / B.EnergyJ));
      Field(fmtExact(R.IoTimeMs));
      Field(fmtExact(R.IoTimeMs / B.IoTimeMs - 1.0));
      Field(fmtExact(R.WallTimeMs));
      Field(std::to_string(R.SpinDowns));
      Field(std::to_string(R.RpmSteps));
      Field(fmtExact(MissedJ));
      Out += "\n";
    }
  }
  return Out;
}

std::string
Report::renderLedgerTable(const std::vector<AppResults> &All) const {
  size_t BI = baseIndex();
  TextTable T({"Scheme", "Active", "Idle", "Spin-down", "Spin-up", "Standby",
               "RPM step", "Penalty", "Total", "Missed opp."});
  for (size_t I = 0; I != Schemes.size(); ++I) {
    // Average each normalized category over the apps, so the row mirrors
    // the renderEnergyTable "average" entry split by where the joules went.
    double Active = 0, Idle = 0, Down = 0, Up = 0, Standby = 0, Step = 0,
           Penalty = 0, Total = 0, Missed = 0;
    for (const AppResults &A : All) {
      double BaseJ = A.Runs[BI].Sim.EnergyJ;
      EnergyLedger L = A.Runs[I].Sim.totalLedger();
      double MissedJ = 0.0;
      for (const DiskStats &S : A.Runs[I].Sim.PerDisk)
        MissedJ += S.MissedOpportunityJ;
      Active += L.activeJ() / BaseJ;
      Idle += L.idleJ() / BaseJ;
      Down += L.SpinDownJ / BaseJ;
      Up += L.SpinUpJ / BaseJ;
      Standby += L.StandbyJ / BaseJ;
      Step += L.RpmStepJ / BaseJ;
      Penalty += L.ReadyPenaltyJ / BaseJ;
      Total += L.totalJ() / BaseJ;
      Missed += MissedJ / BaseJ;
    }
    double N = All.empty() ? 1.0 : double(All.size());
    T.addRow({schemeName(Schemes[I]), fmtDouble(Active / N, 4),
              fmtDouble(Idle / N, 4), fmtDouble(Down / N, 4),
              fmtDouble(Up / N, 4), fmtDouble(Standby / N, 4),
              fmtDouble(Step / N, 4), fmtDouble(Penalty / N, 4),
              fmtDouble(Total / N, 4), fmtDouble(Missed / N, 4)});
  }
  return T.render();
}
