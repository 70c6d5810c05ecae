//===- tests/hotpath_test.cpp - compiler hot-path equivalence ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// Differential and property tests for the compiler hot path
// (docs/PERFORMANCE.md). The optimized passes are only admissible because
// they are byte-identical to the published formulations, and these tests
// are that proof:
//
//   * the ready-bucket scheduler emits the exact Order, round count, and
//     per-round stats of the published rescan (scheduleMaskedReference,
//     kept below as the oracle) across randomized programs, subsets, start
//     disks and disk counts;
//   * the CSR dependence graph built from the table equals the one the
//     Program-based reference build derives on its own, for full builds
//     and for every per-processor phase subset of the paper apps;
//   * the TileAccessTable rows — the only access source of every
//     compile-side consumer — agree row-for-row with
//     Program::appendTouchedTiles;
//   * duplicate edges in an explicit edge list no longer inflate
//     in-degrees (the compaction regression).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"
#include "ir/TileAccessTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

using namespace dra;

namespace {

/// Deterministic random affine program, same family as properties_test: 2-3
/// nests over 1-3 2D arrays with random constant-offset accesses (always
/// in-bounds) and occasional transposed references.
Program randomProgram(unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };

  int64_t N = Pick(6, 12);
  int Margin = 2;
  ProgramBuilder B("hot" + std::to_string(Seed));
  int NumArrays = Pick(1, 3);
  std::vector<ArrayId> Arrays;
  for (int A = 0; A != NumArrays; ++A)
    Arrays.push_back(
        B.addArray(std::string("U").append(std::to_string(A)), {N, N}));

  int NumNests = Pick(2, 3);
  for (int K = 0; K != NumNests; ++K) {
    B.beginNest(std::string("n").append(std::to_string(K)),
                0.5 + 0.1 * Pick(0, 10));
    B.loop(Margin, N - Margin).loop(Margin, N - Margin);
    int NumAcc = Pick(1, 3);
    for (int A = 0; A != NumAcc; ++A) {
      ArrayId Arr = Arrays[size_t(Pick(0, NumArrays - 1))];
      bool Transposed = Pick(0, 3) == 0;
      int64_t DI = Pick(-Margin, Margin);
      int64_t DJ = Pick(-Margin, Margin);
      std::vector<AffineExpr> Subs =
          Transposed ? std::vector<AffineExpr>{iv(1) + DI, iv(0) + DJ}
                     : std::vector<AffineExpr>{iv(0) + DI, iv(1) + DJ};
      if (Pick(0, 2) == 0)
        B.write(Arr, std::move(Subs));
      else
        B.read(Arr, std::move(Subs));
    }
    B.endNest();
  }
  return B.build();
}

/// Every Seed-th iteration, ascending — a representative mid-phase subset.
std::vector<GlobalIter> everyNth(uint64_t N, uint64_t Step, uint64_t Phase) {
  std::vector<GlobalIter> S;
  for (uint64_t G = Phase; G < N; G += Step)
    S.push_back(G);
  return S;
}

/// The published Fig. 3 formulation: per disk per round, rescan the whole
/// unscheduled queue. The differential oracle for
/// DiskReuseScheduler::scheduleMasked, which must produce the exact same
/// Order, round count and round stats for every input.
Schedule
scheduleMaskedReference(const std::vector<uint64_t> &Masks,
                        const IterationGraph &Graph, unsigned NumDisks,
                        const std::vector<GlobalIter> &Subset,
                        unsigned *RoundsOut, unsigned StartDisk,
                        std::vector<SchedulerRoundStats> *RoundStatsOut) {
  // Q: unscheduled iterations in original program order.
  std::vector<GlobalIter> Q;
  if (Subset.empty()) {
    Q.resize(Masks.size());
    for (GlobalIter G = 0; G != GlobalIter(Masks.size()); ++G)
      Q[G] = G;
  } else {
    Q = Subset;
  }

  std::vector<uint32_t> RemainingPreds(Masks.size(), 0);
  for (GlobalIter G : Q)
    RemainingPreds[G] = Graph.inDegree(G);

  Schedule Result;
  unsigned Rounds = 0;
  size_t Left = Q.size();
  while (Left != 0) {
    ++Rounds;
    size_t Before = Left;
    for (unsigned DI = 0; DI != NumDisks; ++DI) {
      unsigned D = (StartDisk + DI) % NumDisks;
      uint64_t Bit = uint64_t(1) << D;
      size_t Out = 0;
      for (size_t I = 0; I != Q.size(); ++I) {
        GlobalIter G = Q[I];
        if ((Masks[G] & Bit) == 0 || RemainingPreds[G] != 0) {
          Q[Out++] = G; // Keep for a later disk/round.
          continue;
        }
        // Schedule G: all predecessors done and it touches disk D.
        Result.Order.push_back(G);
        Result.RoundOf.push_back(Rounds - 1);
        for (GlobalIter V : Graph.succs(G))
          --RemainingPreds[V];
        --Left;
      }
      Q.resize(Out);
    }
    // A round without progress means a cyclic graph; fail instead of
    // spinning.
    if (Left == Before) {
      ADD_FAILURE() << "reference scheduler made no progress in a round";
      break;
    }
    RoundStatsOut->push_back({uint64_t(Before), uint64_t(Before - Left)});
  }
  *RoundsOut = Rounds;
  return Result;
}

bool sameGraph(const IterationGraph &A, const IterationGraph &B) {
  if (A.numNodes() != B.numNodes() || A.numEdges() != B.numEdges())
    return false;
  for (GlobalIter G = 0; G != GlobalIter(A.numNodes()); ++G)
    if (!std::ranges::equal(A.succs(G), B.succs(G)) ||
        A.inDegree(G) != B.inDegree(G))
      return false;
  return true;
}

/// The successors of \p U, copied so they compare by value.
std::vector<GlobalIter> succList(const IterationGraph &G, GlobalIter U) {
  std::span<const GlobalIter> S = G.succs(U);
  return {S.begin(), S.end()};
}

/// The pipeline's restructuring subsets: each processor's iterations of
/// one barrier phase, ascending.
std::vector<std::vector<GlobalIter>> phaseSubsets(const ScheduledWork &Work) {
  std::vector<std::vector<GlobalIter>> Out;
  for (const std::vector<GlobalIter> &Proc : Work.PerProc) {
    std::map<uint32_t, std::vector<GlobalIter>> ByPhase;
    for (GlobalIter G : Proc)
      ByPhase[Work.PhaseOf.empty() ? 0 : Work.PhaseOf[G]].push_back(G);
    for (auto &[Phase, Subset] : ByPhase) {
      (void)Phase;
      std::sort(Subset.begin(), Subset.end());
      Out.push_back(std::move(Subset));
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// TileAccessTable vs. Program::appendTouchedTiles
//===----------------------------------------------------------------------===//

TEST(TileAccessTableTest, RowsMatchAppendTouchedTiles) {
  for (unsigned Seed : {1u, 7u, 23u}) {
    Program P = randomProgram(Seed);
    IterationSpace Space(P);
    TileAccessTable Table(P, Space);
    ASSERT_EQ(Table.numIters(), Space.size());

    uint64_t Accesses = 0;
    std::vector<TileAccess> Touched;
    for (GlobalIter G = 0; G != GlobalIter(Space.size()); ++G) {
      Touched.clear();
      P.appendTouchedTiles(Space.nestOf(G), Space.iterOf(G), Touched);
      auto Row = Table.row(G);
      ASSERT_EQ(Row.size(), Touched.size()) << "seed " << Seed << " G " << G;
      for (size_t I = 0; I != Touched.size(); ++I) {
        EXPECT_EQ(Row[I].Tile.Array, Touched[I].Tile.Array);
        EXPECT_EQ(Row[I].Tile.Linear, Touched[I].Tile.Linear);
        EXPECT_EQ(Row[I].Kind, Touched[I].Kind);
      }
      Accesses += Touched.size();
    }
    EXPECT_EQ(Table.numAccesses(), Accesses);
  }
}

TEST(TileAccessTableTest, DistinctTileCensusIsExact) {
  Program P = randomProgram(11);
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);

  std::vector<std::set<int64_t>> Seen(P.arrays().size());
  for (GlobalIter G = 0; G != GlobalIter(Space.size()); ++G)
    for (const TileAccess &TA : Table.row(G))
      Seen[TA.Tile.Array].insert(TA.Tile.Linear);

  ASSERT_EQ(Table.numArrays(), P.arrays().size());
  uint64_t Total = 0;
  for (ArrayId A = 0; A != Seen.size(); ++A) {
    EXPECT_EQ(Table.numDistinctTilesOfArray(A), Seen[A].size());
    Total += Seen[A].size();
  }
  EXPECT_EQ(Table.numDistinctTiles(), Total);
}

//===----------------------------------------------------------------------===//
// Ready-bucket scheduler vs. published rescan (the oracle)
//===----------------------------------------------------------------------===//

TEST(HotPathSchedulerTest, MatchesReferenceAcrossProgramsSubsetsAndDisks) {
  for (unsigned Seed = 1; Seed <= 12; ++Seed) {
    Program P = randomProgram(Seed);
    IterationSpace Space(P);
    TileAccessTable Table(P, Space);

    for (unsigned NumDisks : {2u, 4u, 7u}) {
      StripingConfig SC;
      SC.StripeFactor = NumDisks;
      DiskLayout Layout(P, SC);
      DiskReuseScheduler Sched(Table, Layout);

      std::vector<uint64_t> Masks(Space.size());
      for (GlobalIter G = 0; G != GlobalIter(Space.size()); ++G)
        Masks[G] = Sched.diskMask(G);

      std::vector<std::vector<GlobalIter>> Subsets = {
          {},                                // all iterations
          everyNth(Space.size(), 3, 0),      // strided subset
          everyNth(Space.size(), 5, 2),      // strided, phase-shifted
      };
      for (const auto &Subset : Subsets) {
        // As in the pipeline, the graph covers exactly the scheduled subset.
        IterationGraph Graph(Table, Subset);
        for (unsigned StartDisk = 0; StartDisk != NumDisks; ++StartDisk) {
          unsigned RoundsNew = 0, RoundsRef = 0;
          std::vector<SchedulerRoundStats> StatsNew, StatsRef;
          Schedule New = DiskReuseScheduler::scheduleMasked(
              Masks, Graph, NumDisks, Subset, &RoundsNew, StartDisk,
              &StatsNew);
          Schedule Ref = scheduleMaskedReference(
              Masks, Graph, NumDisks, Subset, &RoundsRef, StartDisk,
              &StatsRef);
          ASSERT_EQ(New.Order, Ref.Order)
              << "seed " << Seed << " disks " << NumDisks << " start "
              << StartDisk << " subset size " << Subset.size();
          EXPECT_EQ(RoundsNew, RoundsRef);
          EXPECT_EQ(StatsNew, StatsRef);
        }
      }
    }
  }
}

TEST(HotPathSchedulerTest, MatchesReferenceOnSubGraphSubsets) {
  // The pipeline's restructurePerProc schedules per-processor, per-phase
  // subsets against a graph built over the same subset — replicate that
  // exact shape.
  Program P = randomProgram(42);
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  StripingConfig SC;
  SC.StripeFactor = 4;
  DiskLayout Layout(P, SC);
  DiskReuseScheduler Sched(Table, Layout);
  std::vector<uint64_t> Masks(Space.size());
  for (GlobalIter G = 0; G != GlobalIter(Space.size()); ++G)
    Masks[G] = Sched.diskMask(G);

  for (uint64_t Step : {2u, 4u}) {
    for (uint64_t Phase = 0; Phase != Step; ++Phase) {
      std::vector<GlobalIter> Subset = everyNth(Space.size(), Step, Phase);
      IterationGraph Sub(Table, Subset);
      unsigned RN = 0, RR = 0;
      std::vector<SchedulerRoundStats> SN, SR;
      Schedule New = DiskReuseScheduler::scheduleMasked(
          Masks, Sub, 4, Subset, &RN, /*StartDisk=*/2, &SN);
      Schedule Ref = scheduleMaskedReference(Masks, Sub, 4, Subset, &RR,
                                             /*StartDisk=*/2, &SR);
      ASSERT_EQ(New.Order, Ref.Order);
      EXPECT_EQ(RN, RR);
      EXPECT_EQ(SN, SR);
      EXPECT_TRUE(Sub.respectsDependences(New.Order));
    }
  }
}

//===----------------------------------------------------------------------===//
// CSR graph build from the table vs. the Program-based reference
//===----------------------------------------------------------------------===//

TEST(CsrGraphTest, FullBuildsMatchProgramReference) {
  for (unsigned Seed : {3u, 17u, 29u}) {
    Program P = randomProgram(Seed);
    IterationSpace Space(P);
    TileAccessTable Table(P, Space);
    EXPECT_TRUE(sameGraph(IterationGraph(P, Space), IterationGraph(Table)))
        << "seed " << Seed;
  }
}

TEST(CsrGraphTest, SubsetBuildsMatchProgramReference) {
  Program P = randomProgram(13);
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  for (uint64_t Step : {1u, 3u, 7u}) {
    std::vector<GlobalIter> Subset = everyNth(Space.size(), Step, 1);
    IterationGraph Reference(P, Space, Subset);
    EXPECT_TRUE(sameGraph(Reference, IterationGraph(Table, Subset)))
        << "step " << Step;
    // Unsorted members with repeats name the same subset.
    std::vector<GlobalIter> Shuffled = Subset;
    std::reverse(Shuffled.begin(), Shuffled.end());
    Shuffled.push_back(Subset.front());
    EXPECT_TRUE(sameGraph(Reference, IterationGraph(Table, Shuffled)))
        << "step " << Step << ", shuffled";
  }
}

TEST(CsrGraphTest, SuccessorListsAreSortedAndUnique) {
  Program P = randomProgram(8);
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  IterationGraph G(Table);
  for (GlobalIter U = 0; U != GlobalIter(G.numNodes()); ++U) {
    std::span<const GlobalIter> S = G.succs(U);
    for (size_t I = 1; I < S.size(); ++I)
      ASSERT_LT(S[I - 1], S[I]) << "node " << U;
  }
}

//===----------------------------------------------------------------------===//
// Duplicate-edge removal (the addEdge regression)
//===----------------------------------------------------------------------===//

TEST(CsrGraphTest, InterleavedDuplicateEdgesDoNotInflateInDegrees) {
  // An explicit list may repeat an edge non-adjacently (0->2, 0->3, 0->2).
  // Counting both once bumped inDegree(2) to 2, and a scheduler run over
  // the graph deadlocked on the phantom predecessor.
  IterationGraph G(4, {{0, 2}, {0, 3}, {0, 2}, {1, 2}});
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_EQ(G.inDegree(2), 2u);
  EXPECT_EQ(G.inDegree(3), 1u);
  EXPECT_EQ(succList(G, 0), (std::vector<GlobalIter>{2, 3}));
  EXPECT_EQ(succList(G, 1), (std::vector<GlobalIter>{2}));

  // The phantom in-degree previously tripped the scheduler's no-progress
  // assert; without it the schedule completes and is legal.
  std::vector<uint64_t> Masks = {1, 1, 1, 1};
  Schedule S = DiskReuseScheduler::scheduleMasked(Masks, G, 1);
  EXPECT_EQ(S.Order.size(), 4u);
  EXPECT_TRUE(G.respectsDependences(S.Order));
}

TEST(CsrGraphTest, ProgramBuildsEmitNoDuplicateEdges) {
  // Property: every stored edge is distinct, and the in-degrees count
  // exactly the stored edges, for both builds.
  for (unsigned Seed : {2u, 9u, 31u}) {
    Program P = randomProgram(Seed);
    IterationSpace Space(P);
    TileAccessTable Table(P, Space);
    for (const IterationGraph &G :
         {IterationGraph(P, Space), IterationGraph(Table)}) {
      std::set<std::pair<GlobalIter, GlobalIter>> Distinct;
      uint64_t InDegrees = 0;
      for (GlobalIter U = 0; U != GlobalIter(G.numNodes()); ++U) {
        for (GlobalIter V : G.succs(U))
          Distinct.emplace(U, V);
        InDegrees += G.inDegree(U);
      }
      EXPECT_EQ(Distinct.size(), G.numEdges()) << "seed " << Seed;
      EXPECT_EQ(InDegrees, G.numEdges()) << "seed " << Seed;
    }
  }
}

TEST(HotPathPipelineTest, PaperAppGraphsMatchProgramReference) {
  // The pipeline's own graphs, full and per processor and barrier phase,
  // against the reference build over the same program and subsets, for
  // the row-block (TPM) and layout-aware (T-TPM-m) parallelizations.
  for (const AppUnderTest &App : paperApps(0.1)) {
    Program P = App.Build();
    Pipeline Pipe(P, paperConfig(4));
    const IterationSpace &Space = Pipe.space();
    EXPECT_TRUE(sameGraph(IterationGraph(P, Space), Pipe.graph()))
        << App.Name;
    unsigned Subsets = 0;
    for (Scheme S : {Scheme::Tpm, Scheme::TTpmM}) {
      for (const std::vector<GlobalIter> &Subset :
           phaseSubsets(Pipe.compile(S))) {
        EXPECT_TRUE(sameGraph(IterationGraph(P, Space, Subset),
                              IterationGraph(Pipe.table(), Subset)))
            << App.Name << " " << schemeName(S) << " subset of "
            << Subset.size();
        ++Subsets;
      }
    }
    EXPECT_GE(Subsets, 8u) << App.Name;
  }
}

} // namespace
