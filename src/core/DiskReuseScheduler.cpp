//===- core/DiskReuseScheduler.cpp - Fig. 3 restructuring ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DiskReuseScheduler.h"

#include <bit>
#include <cassert>
#include <stdexcept>

using namespace dra;

namespace {

/// Masks the disk bits the Fig. 3 sweep can ever visit. Bits at or above
/// NumDisks are preserved in diskMask() queries but never schedulable,
/// exactly as in the published rescan formulation.
uint64_t visitableBits(unsigned NumDisks) {
  return NumDisks >= 64 ? ~uint64_t(0) : (uint64_t(1) << NumDisks) - 1;
}

} // namespace

DiskReuseScheduler::DiskReuseScheduler(const TileAccessTable &Table,
                                       const DiskLayout &Layout)
    : Layout(Layout) {
  assert(Layout.numDisks() <= 64 && "disk mask limited to 64 I/O nodes");
  Mask.resize(Table.numIters());
  for (GlobalIter G = 0, E = GlobalIter(Table.numIters()); G != E; ++G) {
    uint64_t M = 0;
    for (const TileAccess &TA : Table.row(G))
      M |= Layout.diskMaskOfTile(TA.Tile);
    Mask[G] = M;
  }
}

Schedule DiskReuseScheduler::scheduleMasked(
    const std::vector<uint64_t> &Masks, const IterationGraph &Graph,
    unsigned NumDisks, unsigned *RoundsOut, unsigned StartDisk,
    std::vector<SchedulerRoundStats> *RoundStatsOut) {
  if (RoundStatsOut)
    RoundStatsOut->clear();

  // The unscheduled iterations, in original program order, are the
  // graph's nodes 0..numLocalNodes(): a subset graph numbers its members
  // in that order, so all per-node state below is the size of the subset.
  // Unlike the published formulation this set is never rescanned; it only
  // seeds the per-disk ready buckets and the predecessor counts.
  const size_t NumNodes = Graph.numLocalNodes();

  const uint64_t Visitable = visitableBits(NumDisks);

  // Exact per-disk bucket size: every iteration sits in the bucket of each
  // disk in its mask.
  std::vector<size_t> BucketCap(NumDisks, 0);
  for (GlobalIter Node = 0; Node != NumNodes; ++Node) {
    uint64_t M = Masks[Graph.iterationOf(Node)] & Visitable;
    while (M != 0) {
      unsigned D = unsigned(std::countr_zero(M));
      ++BucketCap[D];
      M &= M - 1;
    }
  }

  // Buckets[d]: the candidate iterations touching disk d, in ascending
  // global index. Draining a bucket is one forward sweep that schedules
  // every ready entry and keeps the rest (compacting in place) — exactly
  // the published rescan restricted to disk d's candidates. An iteration
  // readied mid-sweep always has a larger index than the iteration that
  // readied it (edges point forward), so it sits ahead of the cursor and
  // is picked up in the same sweep, just as in the published formulation.
  std::vector<std::vector<GlobalIter>> Buckets(NumDisks);
  for (unsigned D = 0; D != NumDisks; ++D)
    Buckets[D].reserve(BucketCap[D]);
  for (GlobalIter Node = 0; Node != NumNodes; ++Node) {
    uint64_t M = Masks[Graph.iterationOf(Node)] & Visitable;
    while (M != 0) {
      unsigned D = unsigned(std::countr_zero(M));
      Buckets[D].push_back(Node);
      M &= M - 1;
    }
  }

  std::vector<uint32_t> RemainingPreds(NumNodes, 0);
  for (GlobalIter Node = 0; Node != NumNodes; ++Node)
    RemainingPreds[Node] = Graph.localInDegree(Node);

  // Multi-disk iterations sit in several buckets; the first disk to sweep
  // them wins and later sweeps drop them.
  std::vector<uint8_t> Done(NumNodes, 0);

  Schedule Result;
  Result.Order.reserve(NumNodes);
  Result.RoundOf.reserve(NumNodes);
  unsigned Rounds = 0;

  size_t Left = NumNodes;
  while (Left != 0) {
    ++Rounds;
    size_t Before = Left;
    for (unsigned DI = 0; DI != NumDisks; ++DI) {
      unsigned D = (StartDisk + DI) % NumDisks;
      std::vector<GlobalIter> &B = Buckets[D];
      size_t Out = 0;
      for (size_t I = 0; I != B.size(); ++I) {
        GlobalIter Node = B[I];
        if (Done[Node])
          continue; // Scheduled via another of its disks; drop.
        if (RemainingPreds[Node] != 0) {
          B[Out++] = Node; // Keep for a later round.
          continue;
        }
        Done[Node] = 1;
        Result.Order.push_back(Graph.iterationOf(Node));
        Result.RoundOf.push_back(Rounds - 1);
        --Left;
        for (GlobalIter V : Graph.localSuccs(Node)) {
          assert(RemainingPreds[V] > 0 && "in-degree bookkeeping broken");
          --RemainingPreds[V];
        }
      }
      B.resize(Out);
    }
    assert(Left < Before &&
           "no progress in a full round; dependence graph is cyclic?");
    if (RoundStatsOut)
      RoundStatsOut->push_back({uint64_t(Before), uint64_t(Before - Left)});
  }
  if (RoundsOut)
    *RoundsOut = Rounds;
  return Result;
}

Schedule DiskReuseScheduler::schedule(const IterationGraph &Graph,
                                      unsigned StartDisk) const {
  return scheduleMasked(Mask, Graph, Layout.numDisks(), &Rounds, StartDisk,
                        &RoundStats);
}

Schedule DiskReuseScheduler::schedule(const IterationGraph &Graph,
                                      const std::vector<GlobalIter> &Subset,
                                      unsigned StartDisk) const {
  if (Subset != Graph.members())
    throw std::invalid_argument(
        "the scheduled subset must be the one its graph was built over");
  return schedule(Graph, StartDisk);
}
