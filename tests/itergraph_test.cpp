//===- tests/itergraph_test.cpp - iteration dependence DAG tests ------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceAnalysis.h"
#include "analysis/IterationGraph.h"
#include "ir/ProgramBuilder.h"
#include "ir/TileAccessTable.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dra;

namespace {

/// True if \p G has the edge U -> V between iterations; a subset graph
/// numbers its members 0.. in ascending order.
bool hasEdge(const IterationGraph &G, GlobalIter U, GlobalIter V) {
  for (uint64_t N = 0; N != G.numLocalNodes(); ++N)
    if (G.iterationOf(N) == U)
      for (GlobalIter S : G.localSuccs(N))
        if (G.iterationOf(S) == V)
          return true;
  return false;
}

} // namespace

TEST(IterGraphTest, RawChain) {
  // U[i] = f(U[i-1]): a chain 0 -> 1 -> 2 -> 3.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {5});
  B.beginNest("n", 1.0)
      .loop(1, 5)
      .read(U, {iv(0) - 1})
      .write(U, {iv(0)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  EXPECT_EQ(G.numNodes(), 4u);
  EXPECT_TRUE(hasEdge(G, 0, 1));
  EXPECT_TRUE(hasEdge(G, 1, 2));
  EXPECT_TRUE(hasEdge(G, 2, 3));
  EXPECT_FALSE(hasEdge(G, 0, 2)); // transitively implied, not materialized
  EXPECT_EQ(G.inDegree(0), 0u);
  EXPECT_EQ(G.inDegree(3), 1u);
}

TEST(IterGraphTest, WawChain) {
  // Every iteration writes U[0]: WAW chain in program order.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {1});
  B.beginNest("n", 1.0)
      .loop(0, 4)
      .write(U, {AffineExpr::constant(0)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  EXPECT_TRUE(hasEdge(G, 0, 1));
  EXPECT_TRUE(hasEdge(G, 1, 2));
  EXPECT_TRUE(hasEdge(G, 2, 3));
  EXPECT_EQ(G.numEdges(), 3u);
}

TEST(IterGraphTest, WarEdgesFromAllReaders) {
  // Nest 0 reads U[0] in every iteration; nest 1 writes U[0] once: the
  // writer must depend on every reader.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {1});
  B.beginNest("r", 1.0).loop(0, 3).read(U, {AffineExpr::constant(0)}).endNest();
  B.beginNest("w", 1.0).loop(0, 1).write(U, {AffineExpr::constant(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  GlobalIter W = Space.nestBegin(1);
  EXPECT_TRUE(hasEdge(G, 0, W));
  EXPECT_TRUE(hasEdge(G, 1, W));
  EXPECT_TRUE(hasEdge(G, 2, W));
  EXPECT_EQ(G.inDegree(W), 3u);
}

TEST(IterGraphTest, InterNestRawMatchesProducer) {
  // Nest 0 writes U[i]; nest 1 reads U[2]: exactly one RAW edge.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {4});
  B.beginNest("w", 1.0).loop(0, 4).write(U, {iv(0)}).endNest();
  B.beginNest("r", 1.0).loop(0, 1).read(U, {AffineExpr::constant(2)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  GlobalIter R = Space.nestBegin(1);
  EXPECT_TRUE(hasEdge(G, 2, R));
  EXPECT_EQ(G.inDegree(R), 1u);
}

TEST(IterGraphTest, IndependentIterationsHaveNoEdges) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {4, 4});
  B.beginNest("n", 1.0)
      .loop(0, 4)
      .loop(0, 4)
      .read(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  EXPECT_EQ(G.numEdges(), 0u);
}

TEST(IterGraphTest, SameIterationReadWriteNoSelfEdge) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {4});
  B.beginNest("n", 1.0).loop(0, 4).read(U, {iv(0)}).write(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  EXPECT_EQ(G.numEdges(), 0u);
}

TEST(IterGraphTest, RespectsDependencesAcceptsProgramOrder) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {8});
  B.beginNest("n", 1.0).loop(1, 8).read(U, {iv(0) - 1}).write(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  std::vector<GlobalIter> Order(Space.size());
  for (GlobalIter I = 0; I != Space.size(); ++I)
    Order[I] = I;
  EXPECT_TRUE(G.respectsDependences(Order));
  std::reverse(Order.begin(), Order.end());
  EXPECT_FALSE(G.respectsDependences(Order));
}

TEST(IterGraphTest, RespectsDependencesDetectsMissingNode) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {4});
  B.beginNest("n", 1.0).loop(1, 4).read(U, {iv(0) - 1}).write(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  std::vector<GlobalIter> Partial{0, 1}; // node 2 constrained but absent
  EXPECT_FALSE(G.respectsDependences(Partial));
}

TEST(IterGraphTest, SubsetRestrictsEdges) {
  // Chain 0->1->2->3; subset {0, 2}: the 0->...->2 dependence flows through
  // the excluded node 1, so the subset graph (intra-subset edges only) has
  // no edge. Cross-subset ordering comes from barriers in the pipeline.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {5});
  B.beginNest("n", 1.0).loop(1, 5).read(U, {iv(0) - 1}).write(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space, {0, 2});
  // Node 2 (iteration i=3) reads U[2], whose writer (node 1) is outside the
  // subset: no intra-subset edge exists.
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.localInDegree(1), 0u);

  // Subset {1, 2} does contain the 1 -> 2 RAW edge.
  IterationGraph G2(P, Space, {1, 2});
  EXPECT_EQ(G2.numEdges(), 1u);
  EXPECT_TRUE(hasEdge(G2, 1, 2));
}

TEST(IterGraphTest, SubsetGraphStateIsSubsetSized) {
  // Chain 0->1->2->3 restricted to {0, 1, 3}: both builds number the
  // members 0..2 and keep one offset and in-degree per member.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {5});
  B.beginNest("n", 1.0).loop(1, 5).read(U, {iv(0) - 1}).write(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  const std::vector<GlobalIter> Subset{0, 1, 3};
  for (const IterationGraph &G :
       {IterationGraph(P, Space, Subset), IterationGraph(Table, Subset)}) {
    EXPECT_EQ(G.numNodes(), 4u);
    EXPECT_EQ(G.numLocalNodes(), 3u);
    EXPECT_EQ(G.members(), Subset);
    EXPECT_EQ(G.iterationOf(2), 3u);
    ASSERT_EQ(G.localSuccs(0).size(), 1u);
    EXPECT_EQ(G.localSuccs(0)[0], 1u);
    EXPECT_EQ(G.localInDegree(1), 1u);
    EXPECT_TRUE(hasEdge(G, 0, 1));
    EXPECT_EQ(G.localInDegree(2), 0u); // Iteration 3's writer is not a member.
    EXPECT_FALSE(hasEdge(G, 1, 2));    // Iteration 2 is not a member.
    EXPECT_EQ(G.numEdges(), 1u);
  }
}

TEST(IterGraphTest, PredListsMatchSuccLists) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {6});
  B.beginNest("n", 1.0).loop(1, 6).read(U, {iv(0) - 1}).write(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  auto Preds = G.buildPredLists();
  uint64_t Count = 0;
  for (const auto &L : Preds)
    Count += L.size();
  EXPECT_EQ(Count, G.numEdges());
  for (GlobalIter U2 = 0; U2 != GlobalIter(G.numNodes()); ++U2)
    for (GlobalIter V : G.succs(U2))
      EXPECT_NE(std::find(Preds[V].begin(), Preds[V].end(), U2),
                Preds[V].end());
}

TEST(IterGraphTest, CrossValidatesWithDistanceVectors) {
  // For a constant-distance stencil, every edge distance must equal a
  // distance vector from the static analysis.
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {6, 6});
  B.beginNest("n", 1.0)
      .loop(1, 6)
      .loop(2, 6)
      .read(U, {iv(0) - 1, iv(1) - 2})
      .write(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  auto M = DependenceAnalysis::nestDistances(P, 0);
  ASSERT_FALSE(M.empty());
  EXPECT_GT(G.numEdges(), 0u);
  for (GlobalIter U2 = 0; U2 != GlobalIter(G.numNodes()); ++U2) {
    for (GlobalIter V : G.succs(U2)) {
      IterVec D = vecDiff(Space.iterOf(V), Space.iterOf(U2));
      bool Matches = false;
      for (const DistanceVector &DV : M)
        if (DV.allKnown() && DV.D == D)
          Matches = true;
      EXPECT_TRUE(Matches) << "edge distance " << toString(D)
                           << " not predicted by distance vectors";
    }
  }
}
