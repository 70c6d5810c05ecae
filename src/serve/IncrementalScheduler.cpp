//===- serve/IncrementalScheduler.cpp - Live tick scheduling ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/IncrementalScheduler.h"

#include <algorithm>
#include <cassert>

using namespace dra;

IncrementalScheduler::IncrementalScheduler(const TileAccessTable &Table,
                                           const DiskLayout &Layout,
                                           const IterationGraph &Graph,
                                           const DiskReuseScheduler &Scheduler,
                                           bool Restructure,
                                           uint64_t IdleTicks)
    : Table(Table), Layout(Layout), Graph(Graph), Scheduler(Scheduler),
      Restructure(Restructure), IdleTicks(IdleTicks) {
  RemainingPreds.resize(Graph.numNodes());
  for (GlobalIter G = 0; G != GlobalIter(Graph.numNodes()); ++G)
    RemainingPreds[G] = Graph.inDegree(G);
  Arrived.assign(Graph.numNodes(), 0);
  Done.assign(Graph.numNodes(), 0);
  LastActive.assign(Layout.numDisks(), Never);
}

bool IncrementalScheduler::arrive(GlobalIter G) {
  assert(G < GlobalIter(Arrived.size()) && "arrival outside iteration space");
  if (Arrived[G])
    return false;
  Arrived[G] = 1;
  Pending.push_back(G);
  return true;
}

unsigned IncrementalScheduler::predictedLowPowerDisks(uint64_t Tick) const {
  unsigned N = 0;
  for (uint64_t Last : LastActive)
    if (Last == Never || Tick - Last >= IdleTicks)
      ++N;
  return N;
}

TickResult IncrementalScheduler::runTick(uint64_t Budget, uint64_t Tick) {
  TickResult R;
  R.StartDisk = NextStartDisk;
  R.LowPowerDisks = predictedLowPowerDisks(Tick);

  // Arrivals are reconsidered in ascending global order every tick, the
  // same order restructurePerProc sorts a phase's subset into.
  std::sort(Pending.begin(), Pending.end());

  // Eligible-prefix selection under the budget. Dependence edges point
  // forward in program order, so decrementing successors mid-sweep readies
  // whole chains within one tick — with everything arrived and no budget
  // the selection is the entire pending set, exactly the batch subset.
  std::vector<GlobalIter> Subset;
  std::vector<GlobalIter> Rest;
  for (size_t I = 0; I != Pending.size(); ++I) {
    GlobalIter G = Pending[I];
    bool Budgeted = Budget != 0 && Subset.size() == Budget;
    if (Budgeted || RemainingPreds[G] != 0) {
      Rest.push_back(G);
      continue;
    }
    Subset.push_back(G);
    for (GlobalIter S : Graph.succs(G)) {
      assert(RemainingPreds[S] != 0 && "successor scheduled before pred");
      --RemainingPreds[S];
    }
  }
  Pending.swap(Rest);
  R.Deferred = Pending.size();

  if (Subset.empty())
    return R;

  if (Restructure) {
    // One barrier phase of the batch compile: per-subset dependence graph,
    // then the shared Fig. 3 scheduler (core/Pipeline.cpp
    // restructurePerProc). Predecessors outside the subset were placed by
    // earlier ticks; the tick barrier orders them.
    IterationGraph SubGraph(Table, Subset);
    Schedule S = Scheduler.schedule(SubGraph, R.StartDisk);
    assert(S.RoundOf.size() == S.Order.size() &&
           "scheduler must tag every placed iteration with its round");
    R.Order = std::move(S.Order);
    R.RoundOf = std::move(S.RoundOf);
    R.Rounds = Scheduler.lastRounds();
  } else {
    R.Order = std::move(Subset);
    R.RoundOf.assign(R.Order.size(), 0);
  }

  for (GlobalIter G : R.Order) {
    Done[G] = 1;
    uint64_t Mask = Scheduler.diskMask(G);
    for (unsigned D = 0; Mask != 0; ++D, Mask >>= 1)
      if (Mask & 1)
        LastActive[D] = Tick;
  }

  if (Restructure) {
    // Steer the next tick's sweep to the disk the schedule ended on — the
    // one disk certainly still spun up when the next arrivals land.
    std::span<const TileAccess> Row = Table.row(R.Order.back());
    if (!Row.empty())
      NextStartDisk = Layout.primaryDiskOfTile(Row.front().Tile);
  }
  return R;
}
