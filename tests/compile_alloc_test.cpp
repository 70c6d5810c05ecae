//===- tests/compile_alloc_test.cpp - Compile front-end allocations -------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Pins the compile front end as flat: building the IterationSpace, the
// TileAccessTable, the full IterationGraph and one subset graph allocates
// a number of times bounded by the program's nests and arrays, the same
// at every app scale, however many iterations, accesses and edges there
// are. The test binary replaces the global operator new with a counting
// one (alloc_counter.cpp), which is why it is its own executable rather
// than part of dra_tests.
//
//===----------------------------------------------------------------------===//

#include "analysis/IterationGraph.h"
#include "apps/Apps.h"

#include <gtest/gtest.h>

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

} // namespace

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
