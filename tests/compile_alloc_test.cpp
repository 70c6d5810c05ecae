//===- tests/compile_alloc_test.cpp - Compile front-end allocations -------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Pins the compile front end as flat: building the IterationSpace, the
// TileAccessTable, the full IterationGraph and one subset graph allocates
// a number of times bounded by the program's nests and arrays, the same
// at every app scale, however many iterations, accesses and edges there
// are. Full verification is pinned the same way: the layout check, and
// the footprint and schedule checks with no table (their own virtual
// execution and dependence graph), each allocate a fixed handful of
// times. The test binary replaces the global operator new with a counting
// one (alloc_counter.cpp), which is why it is its own executable rather
// than part of dra_tests.
//
//===----------------------------------------------------------------------===//

#include "analysis/IterationGraph.h"
#include "analysis/SymbolicFootprint.h"
#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"
#include "verify/EnergyAuditor.h"
#include "verify/LayoutVerifier.h"
#include "verify/ScheduleVerifier.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

// Defined in alloc_counter.cpp together with the counting operator new (a
// separate file, so the replacement is never inlined into callers here).
void setAllocCounting(bool On);
uint64_t allocCount();

using namespace dra;

namespace {

/// Allocations of each front-end build of one program.
struct FrontEndAllocs {
  uint64_t Space = 0, Table = 0, Graph = 0, SubGraph = 0;
  uint64_t Iters = 0, Edges = 0, SubEdges = 0;

  uint64_t total() const { return Space + Table + Graph + SubGraph; }
};

template <typename Fn> uint64_t allocsOf(Fn &&Build) {
  uint64_t Before = allocCount();
  setAllocCounting(true);
  Build();
  setAllocCounting(false);
  return allocCount() - Before;
}

FrontEndAllocs frontEndAllocs(const Program &P) {
  FrontEndAllocs A;
  std::unique_ptr<IterationSpace> Space;
  std::unique_ptr<TileAccessTable> Table;
  std::unique_ptr<IterationGraph> Graph, SubGraph;
  A.Space = allocsOf([&] { Space = std::make_unique<IterationSpace>(P); });
  A.Table = allocsOf(
      [&] { Table = std::make_unique<TileAccessTable>(P, *Space); });
  A.Graph = allocsOf([&] { Graph = std::make_unique<IterationGraph>(*Table); });
  // Every iteration but the first, ascending: a subset build (member rows
  // only, tile ids remapped) that keeps dependences inside it.
  std::vector<GlobalIter> Subset;
  for (GlobalIter G = 1; G < GlobalIter(Space->size()); ++G)
    Subset.push_back(G);
  A.SubGraph = allocsOf(
      [&] { SubGraph = std::make_unique<IterationGraph>(*Table, Subset); });
  A.Iters = Space->size();
  A.Edges = Graph->numEdges();
  A.SubEdges = SubGraph->numEdges();
  return A;
}

/// Allocations of each Full-level verification of one program.
struct VerifierAllocs {
  uint64_t Layout = 0, Footprint = 0, Work = 0;
  uint64_t Iters = 0, Edges = 0;
};

VerifierAllocs verifierAllocs(const Program &P) {
  VerifierAllocs A;
  DiagnosticEngine DE;
  IterationSpace Space(P);
  DiskLayout Layout(P, paperConfig(1).Striping);
  SymbolicFootprint FP(P, Layout);
  // The identity order: legal, and it checks every edge of the graph.
  ScheduledWork Work;
  Work.PerProc.emplace_back();
  for (GlobalIter G = 0; G != GlobalIter(Space.size()); ++G)
    Work.PerProc[0].push_back(G);

  ScheduleVerifier SV(P, Space, Layout, DE, /*Table=*/nullptr);
  bool Ok = true;
  A.Layout = allocsOf([&] { Ok &= LayoutVerifier(P, Layout, DE).verify(); });
  A.Footprint = allocsOf([&] { Ok &= SV.verifyFootprint(FP); });
  A.Work = allocsOf([&] { Ok &= SV.verifyWork(Work); });
  EXPECT_TRUE(Ok && !DE.hasErrors()) << P.name();
  A.Iters = Space.size();
  // A second graph, outside the counted calls, only to show the schedule
  // check had edges to walk.
  A.Edges = IterationGraph(P, Space).numEdges();
  return A;
}

} // namespace

TEST(CompileAllocTest, FullVerificationAllocationsDoNotGrowWithIterations) {
  verifierAllocs(makeAst(0.05));

  std::vector<AppUnderTest> Small = paperApps(0.1), Large = paperApps(0.2);
  ASSERT_EQ(Small.size(), Large.size());
  for (size_t I = 0; I != Small.size(); ++I) {
    SCOPED_TRACE(Small[I].Name);
    Program PS = Small[I].Build(), PL = Large[I].Build();
    VerifierAllocs S = verifierAllocs(PS), L = verifierAllocs(PL);
    ASSERT_GT(L.Iters, 2 * S.Iters);
    ASSERT_GT(L.Edges, S.Edges);

    // A fixed handful per check, whatever the iterations, tiles, stripe
    // units and edges: scratch buffers plus the one closing remark.
    for (const VerifierAllocs &A : {S, L}) {
      EXPECT_LE(A.Layout, 12u);
      EXPECT_LE(A.Footprint, 12u);
      EXPECT_LE(A.Work, 20u);
    }
    EXPECT_EQ(S.Layout, L.Layout);
    EXPECT_EQ(S.Footprint, L.Footprint);
    EXPECT_EQ(S.Work, L.Work);
  }
}

TEST(CompileAllocTest, FrontEndAllocationsDoNotGrowWithIterations) {
  // Warm up once so lazily initialized runtime state is not counted.
  frontEndAllocs(makeAst(0.05));

  std::vector<AppUnderTest> Small = paperApps(0.1), Large = paperApps(0.2);
  ASSERT_EQ(Small.size(), Large.size());
  for (size_t I = 0; I != Small.size(); ++I) {
    SCOPED_TRACE(Small[I].Name);
    Program PS = Small[I].Build(), PL = Large[I].Build();
    FrontEndAllocs S = frontEndAllocs(PS), L = frontEndAllocs(PL);
    ASSERT_GT(L.Iters, 2 * S.Iters);
    ASSERT_GT(L.Edges, S.Edges);
    ASSERT_GT(S.SubEdges, 0u);

    // O(nests + arrays): a fixed handful per nest and per array.
    for (const auto &[Prog, A] : {std::pair{&PS, S}, std::pair{&PL, L}}) {
      const uint64_t Shape = Prog->nests().size() + Prog->arrays().size();
      EXPECT_LE(A.Space, 2 * Prog->nests().size() + 4);
      EXPECT_LE(A.Table, 2 * Prog->arrays().size() + 10);
      EXPECT_LE(A.Graph, 8u);
      EXPECT_LE(A.SubGraph, 10u);
      EXPECT_LE(A.total(), 4 * Shape + 24)
          << A.Space << " + " << A.Table << " + " << A.Graph << " + "
          << A.SubGraph << " allocations for " << A.Iters << " iterations";
    }
    // Same program shape at both scales, so the same count.
    if (PS.nests().size() == PL.nests().size() &&
        PS.arrays().size() == PL.arrays().size()) {
      EXPECT_EQ(S.Space, L.Space);
      EXPECT_EQ(S.Table, L.Table);
      EXPECT_EQ(S.Graph, L.Graph);
      EXPECT_EQ(S.SubGraph, L.SubGraph);
    }
  }
}

TEST(CompileAllocTest, LayoutCheckIsIndependentOfTheTileCount) {
  // Two billion tiles: enumerating them asked for 48 GB. The closed form
  // checks one stripe period at each end of the file, so it allocates a
  // handful of times, as for a 64-tile array, and returns at once.
  auto AllocsAndMs = [](int64_t Tiles) {
    ProgramBuilder B("huge");
    ArrayId A = B.addArray("A", {Tiles});
    B.beginNest("n", 1.0).loop(0, 10).read(A, {iv(0)}).endNest();
    Program P = B.build();
    DiskLayout Layout(P, paperConfig(1).Striping);
    DiagnosticEngine DE;
    bool Ok = false;
    auto T0 = std::chrono::steady_clock::now();
    uint64_t Allocs =
        allocsOf([&] { Ok = LayoutVerifier(P, Layout, DE).verify(); });
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    EXPECT_TRUE(Ok && !DE.hasErrors()) << Tiles << " tiles";
    return std::pair<uint64_t, double>(Allocs, Ms);
  };
  AllocsAndMs(64); // Warm-up.
  auto [SmallAllocs, SmallMs] = AllocsAndMs(64);
  auto [HugeAllocs, HugeMs] = AllocsAndMs(2000000000);
  (void)SmallMs;
  EXPECT_EQ(HugeAllocs, SmallAllocs);
  EXPECT_LE(HugeAllocs, 12u);
  EXPECT_LT(HugeMs, 1000.0);
}

TEST(CompileAllocTest, FullPipelineWalksTheProgramOnce) {
  // The verifier's one walk in the constructor feeds the footprint
  // recount, the reference dependence graph of every compile and the
  // first-access tiles of every simulate. So a Full compile or simulate
  // allocates, beyond an Off one, what its checks cost on a verifier that
  // has walked already, reporting into a collector as the pipeline does,
  // and no walk. The slack covers the two collectors' vectors growing at
  // different times; re-deriving even the first-access tiles alone costs
  // more.
  constexpr uint64_t Slack = 1;
  Program P = makeAst(0.05);
  PipelineConfig Cfg = paperConfig(4);
  IterationSpace Space(P);
  DiskLayout Layout(P, Cfg.Striping);
  DiagnosticEngine CheckDE;
  CollectingConsumer Collected;
  CheckDE.addConsumer(&Collected);
  ScheduleVerifier Walked(P, Space, Layout, CheckDE, nullptr);
  Walked.rederive();

  Cfg.Verify = VerifyLevel::Off;
  Pipeline Off(P, Cfg);
  Cfg.Verify = VerifyLevel::Full;
  Pipeline Full(P, Cfg);
  for (Scheme S : allSchemes()) {
    const uint64_t OffAllocs = allocsOf([&] { Off.compile(S); });
    ScheduledWork W;
    const uint64_t FullAllocs = allocsOf([&] { W = Full.compile(S); });
    const uint64_t Check = allocsOf([&] { Walked.verifyWork(W); });
    EXPECT_LE(FullAllocs - OffAllocs, Check + Slack) << schemeName(S);
  }

  const Scheme S = Scheme::TTpmM;
  const ScheduledWork W = Full.compile(S);
  const Trace T = Full.trace(S, W);
  SchemeRun Run;
  const uint64_t OffAllocs = allocsOf([&] { Off.simulate(S, W, T); });
  const uint64_t FullAllocs =
      allocsOf([&] { Run = Full.simulate(S, W, T); });
  Schedule Proc0;
  Proc0.Order = W.PerProc[0];
  const uint64_t Check = allocsOf([&] {
    EnergyAuditor(Run.Sim, CheckDE).verify();
    Walked.verifyLocality(Proc0, Run.Locality);
  });
  EXPECT_LE(FullAllocs - OffAllocs, Check + Slack);
  EXPECT_FALSE(Full.diags().hasErrors());
  EXPECT_FALSE(CheckDE.hasErrors());
}
