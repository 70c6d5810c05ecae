//===- core/LayoutAwareParallelizer.cpp - Sec. 6.2 scheme ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LayoutAwareParallelizer.h"
#include "analysis/Parallelism.h"
#include "analysis/RegionAnalysis.h"
#include "analysis/SymbolicFootprint.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace dra;

namespace {

/// Picks, per array, the partition dimension demanded by the largest number
/// of nests (the unification step of Sec. 6.2.2). Dimension 0 wins ties and
/// covers arrays with no clean demand.
std::vector<unsigned> unifyDistributions(const Program &P) {
  unsigned NumArrays = unsigned(P.arrays().size());
  // Votes[j][d]: nests demanding array j split along dimension d.
  std::vector<std::vector<unsigned>> Votes(NumArrays);
  for (unsigned J = 0; J != NumArrays; ++J)
    Votes[J].assign(P.array(J).DimsInTiles.size(), 0);

  for (const LoopNest &Nest : P.nests()) {
    auto ParDepth = Parallelism::outermostParallelLoop(P, Nest.id());
    if (!ParDepth)
      continue;
    // One vote per (nest, array): the first access determines the demand.
    std::vector<bool> Voted(NumArrays, false);
    for (const ArrayAccess &A : Nest.accesses()) {
      if (Voted[A.Array])
        continue;
      auto Dim = RegionAnalysis::partitionedDim(A, *ParDepth);
      if (!Dim)
        continue;
      Voted[A.Array] = true;
      ++Votes[A.Array][*Dim];
    }
  }

  std::vector<unsigned> Chosen(NumArrays, 0);
  for (unsigned J = 0; J != NumArrays; ++J) {
    unsigned BestDim = 0;
    for (unsigned D = 1; D != Votes[J].size(); ++D)
      if (Votes[J][D] > Votes[J][BestDim])
        BestDim = D;
    Chosen[J] = BestDim;
  }
  return Chosen;
}

/// Owner of a disk under the contiguous disk-block partition.
uint32_t diskOwner(unsigned Disk, unsigned NumDisks, unsigned NumProcs) {
  assert(Disk < NumDisks && "disk index out of range");
  return uint32_t(uint64_t(Disk) * NumProcs / NumDisks);
}

} // namespace

ParallelPlan LayoutAwareParallelizer::parallelize(
    const Program &P, const IterationSpace &Space, const IterationGraph &Graph,
    const DiskLayout &Layout, unsigned NumProcs, LayoutAwareInfo *Info,
    const TileAccessTable *Table, const SymbolicFootprint *Footprint) {
  assert(NumProcs >= 1 && "need at least one processor");
  assert(Table && "affinity votes read the shared access table");
  assert(Table->numIters() == Space.size() &&
         "access table built over a different iteration space");
  assert(NumProcs <= Layout.numDisks() &&
         "disk-aligned partitioning needs at least one disk per processor");

  ParallelPlan Plan;
  Plan.ProcOf.assign(Space.size(), 0);
  std::vector<unsigned> PartDim = unifyDistributions(P);
  if (Info)
    Info->PartitionDimOfArray = PartDim;
  if (Info && Footprint) {
    // How much tile demand each processor's disk block absorbs, straight
    // from the symbolic per-disk demand — no iteration enumerated.
    Info->PerProcDemand.assign(NumProcs, 0);
    std::vector<uint64_t> Demand = Footprint->totalPerDiskDemand();
    for (unsigned Disk = 0; Disk != Layout.numDisks(); ++Disk)
      Info->PerProcDemand[diskOwner(Disk, Layout.numDisks(), NumProcs)] +=
          Demand[Disk];
  }

  for (const LoopNest &Nest : P.nests()) {
    NestId N = Nest.id();
    if (NumProcs == 1)
      continue;
    auto ParDepth = Parallelism::outermostParallelLoop(P, N);
    if (!ParDepth) {
      Plan.SerializedNests.push_back(N);
      continue;
    }

    // Step 2: iterations follow their data's disks under the
    // owner-computes rule: the disks of *written* tiles decide the owner
    // (keeping every writer of a tile on one processor), and read disks
    // only matter in read-only nests.
    GlobalIter Begin = Space.nestBegin(N), End = Space.nestEnd(N);
    std::vector<int64_t> DataKey(End - Begin, 0);
    std::vector<uint32_t> Vote(NumProcs);
    for (GlobalIter G = Begin; G != End; ++G) {
      std::span<const TileAccess> Row = Table->row(G);
      bool HasWrite = false;
      for (const TileAccess &TA : Row)
        if (TA.Kind == AccessKind::Write)
          HasWrite = true;
      std::fill(Vote.begin(), Vote.end(), 0);
      bool HaveKey = false;
      for (const TileAccess &TA : Row) {
        if (HasWrite && TA.Kind != AccessKind::Write)
          continue;
        unsigned Disk = Layout.primaryDiskOfTile(TA.Tile);
        if (!HaveKey) {
          // Data-position key used by the rebalancing fallback: the
          // deciding reference's disk, then its position on that disk.
          DataKey[G - Begin] =
              int64_t(Disk) * (int64_t(1) << 40) +
              int64_t(Layout.tileByteOffset(TA.Tile) / Layout.tileBytes() /
                      Layout.numDisks());
          HaveKey = true;
        }
        ++Vote[diskOwner(Disk, Layout.numDisks(), NumProcs)];
      }
      uint32_t Best = 0;
      for (uint32_t S = 1; S != NumProcs; ++S)
        if (Vote[S] > Vote[Best])
          Best = S;
      Plan.ProcOf[G] = Best;
    }

    // Step 4: rebalance nests that use only part of the data space (the
    // paper's second issue). Trigger when some processor holds more than
    // twice the average share.
    uint64_t Total = End - Begin;
    std::vector<uint64_t> Load(NumProcs, 0);
    for (GlobalIter G = Begin; G != End; ++G)
      ++Load[Plan.ProcOf[G]];
    uint64_t MaxLoad = *std::max_element(Load.begin(), Load.end());
    if (Total >= NumProcs && MaxLoad * NumProcs > 2 * Total) {
      // Contiguous equal-count chunks in data-position order keep the
      // common elements on consistent processors while spreading the rest.
      std::vector<GlobalIter> Iters(Total);
      std::iota(Iters.begin(), Iters.end(), Begin);
      std::stable_sort(Iters.begin(), Iters.end(),
                       [&](GlobalIter A, GlobalIter B) {
                         return DataKey[A - Begin] < DataKey[B - Begin];
                       });
      for (uint64_t I = 0; I != Total; ++I)
        Plan.ProcOf[Iters[I]] = uint32_t(I * NumProcs / Total);
      if (Info)
        Info->RebalancedNests.push_back(N);
    }

    // Step 5a: correctness guard, as in the loop-based scheme.
    if (LoopParallelizer::hasIntraNestCrossProcEdge(Space, Graph, Plan.ProcOf,
                                                    N)) {
      for (GlobalIter G = Begin; G != End; ++G)
        Plan.ProcOf[G] = 0;
      Plan.SerializedNests.push_back(N);
    }
  }

  Plan.PhaseOf = LoopParallelizer::barrierPhases(P, Space, Graph, Plan.ProcOf);
  return Plan;
}
