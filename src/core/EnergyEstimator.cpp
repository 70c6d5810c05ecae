//===- core/EnergyEstimator.cpp - Compiler-side energy model ----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/EnergyEstimator.h"
#include "analysis/SymbolicFootprint.h"
#include "sim/DiskTimingModel.h"

#include <cassert>

using namespace dra;

EnergyEstimator::EnergyEstimator(const Program &P, const IterationSpace &Space,
                                 const DiskLayout &Layout,
                                 const DiskParams &Params,
                                 PowerPolicyKind Policy,
                                 const TileAccessTable &Table)
    : Prog(P), Space(Space), Layout(Layout), Params(Params), PM(this->Params),
      Policy(Policy), Table(Table) {
  assert(Table.numIters() == Space.size() &&
         "access table built over a different iteration space");
}

EnergyEstimate EnergyEstimator::estimate(const Schedule &S) const {
  unsigned D = Layout.numDisks();
  EnergyEstimate E;
  E.PerDiskEnergyJ.assign(D, 0.0);

  TpmPolicy Tpm(PM);
  DrpmPolicy Drpm(PM);

  std::vector<double> BusyEnd(D, 0.0);
  std::vector<unsigned> Rpm(D, Params.MaxRpm);
  double Clock = 0.0;

  // The simulator's own gap dispatch; with no DRPM controller modeled, no
  // step-down is ever pending.
  auto AccountGap = [&](unsigned Disk, double GapMs, bool RequestArrives) {
    IdleOutcome O = evaluateIdleGap(Policy, Tpm, Drpm, GapMs, Rpm[Disk],
                                    Rpm[Disk], RequestArrives);
    E.PerDiskEnergyJ[Disk] += O.GapEnergyJ + O.ReadyEnergyJ;
    E.SpinDowns += O.SpinDowns;
    E.RpmSteps += O.RpmSteps;
    Rpm[Disk] = O.EndRpm;
    return O.ReadyDelayMs;
  };

  for (GlobalIter G : S.Order) {
    Clock += Prog.nest(Space.nestOf(G)).computePerIterMs();
    for (const TileAccess &TA : Table.row(G)) {
      unsigned Disk = Layout.primaryDiskOfTile(TA.Tile);
      double Start = Clock;
      if (Start > BusyEnd[Disk])
        Start += AccountGap(Disk, Start - BusyEnd[Disk],
                            /*RequestArrives=*/true);
      else
        Start = BusyEnd[Disk];
      // One processor issues synchronously: there is never a queue, but a
      // request can land while the disk finishes a previous tile of the
      // same iteration.
      double Svc =
          PM.serviceMs(Layout.tileBytes(), Rpm[Disk], /*Sequential=*/false);
      E.PerDiskEnergyJ[Disk] += PM.activePowerW(Rpm[Disk]) * Svc / 1000.0;
      E.IoTimeMs += Svc;
      BusyEnd[Disk] = Start + Svc;
      Clock = BusyEnd[Disk];
    }
  }

  // Trailing idle up to the wall clock on every disk.
  E.WallMs = Clock;
  for (unsigned Disk = 0; Disk != D; ++Disk) {
    if (Clock > BusyEnd[Disk])
      AccountGap(Disk, Clock - BusyEnd[Disk], /*RequestArrives=*/false);
    E.EnergyJ += E.PerDiskEnergyJ[Disk];
  }
  return E;
}

EnergyEstimate EnergyEstimator::footprintBound(const Program &P,
                                               const DiskLayout &Layout,
                                               const DiskParams &Params,
                                               const SymbolicFootprint &FP) {
  PowerModel PM(Params);
  unsigned D = Layout.numDisks();
  EnergyEstimate E;
  E.PerDiskEnergyJ.assign(D, 0.0);

  // Compute time: every iteration thinks once, independent of order.
  double ComputeMs = 0.0;
  for (const NestFootprint &NF : FP.nests())
    ComputeMs += double(NF.Iterations) * P.nest(NF.Nest).computePerIterMs();

  // One full-speed fetch per demanded tile, serialized by the single
  // issuing processor (the estimator's machine model).
  double Svc = PM.nominalServiceMs(Layout.tileBytes());
  std::vector<uint64_t> Demand = FP.totalPerDiskDemand();
  assert(Demand.size() == D && "footprint built for another layout");
  for (unsigned Disk = 0; Disk != D; ++Disk)
    E.IoTimeMs += double(Demand[Disk]) * Svc;
  E.WallMs = ComputeMs + E.IoTimeMs;

  // Active energy while fetching; idle at full speed the rest of the wall
  // time (no policy: this bounds what any policy can then save).
  double ActiveW = PM.activePowerW(Params.MaxRpm);
  double IdleW = PM.idlePowerW(Params.MaxRpm);
  for (unsigned Disk = 0; Disk != D; ++Disk) {
    double BusyMs = double(Demand[Disk]) * Svc;
    E.PerDiskEnergyJ[Disk] =
        (ActiveW * BusyMs + IdleW * (E.WallMs - BusyMs)) / 1000.0;
    E.EnergyJ += E.PerDiskEnergyJ[Disk];
  }
  return E;
}
