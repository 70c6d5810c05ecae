//===- analysis/IterationGraph.h - Exact iteration dependences -*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-program iteration dependence DAG consumed by the disk-reuse
/// scheduler (Sec. 5, Fig. 3/4). Nodes are flat iteration ids (GlobalIter);
/// an edge u -> v means iteration v must execute after iteration u.
///
/// The graph is built exactly, at tile granularity, by a virtual execution
/// of the original program order: per tile we track the last writer and the
/// readers since that write. A reader depends on the last writer (RAW); a
/// writer depends on the last writer (WAW) and on every intervening reader
/// (WAR). This covers both intra-nest and inter-nest dependences with a
/// near-linear number of edges, and is cross-validated in the tests against
/// the distance-vector analysis.
///
/// The graph is stored in CSR form: one offsets array, one successor array
/// and the in-degrees. Every build runs serially and collects its edges in
/// one buffer, then lays them out with a count pass and a fill pass. The
/// virtual executions emit every edge while visiting its target, in
/// ascending target order, so each successor row comes out sorted and only
/// adjacent duplicates need removing. Both program-order builds keep flat
/// per-tile state and one pooled reader list, so each allocates a fixed
/// number of times, however many nodes, tiles and edges it has
/// (docs/PERFORMANCE.md). A subset graph lays its CSR arrays out over its
/// members only, so a per-(processor, phase) build is the size of its
/// subset, not of the space.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ANALYSIS_ITERATIONGRAPH_H
#define DRA_ANALYSIS_ITERATIONGRAPH_H

#include "ir/Program.h"
#include "ir/TileAccessTable.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace dra {

/// Dependence DAG over a program's flattened iteration space.
class IterationGraph {
public:
  /// Builds the exact tile-granularity dependence graph of \p P over the
  /// iteration space \p Space with a private virtual execution of the
  /// program. Optionally restricted to the iterations in \p Subset (others
  /// become isolated nodes); an empty subset means all. The pipeline uses
  /// the table-based constructor; this build stays independent of the
  /// table as its reference (tests/hotpath_test.cpp) and serves LoopFusion,
  /// which checks legality before any table exists. Tile state is indexed
  /// by each referenced array's declared tiles, so a tile outside its
  /// array throws std::out_of_range.
  IterationGraph(const Program &P, const IterationSpace &Space,
                 const std::vector<GlobalIter> &Subset = {});

  /// Builds the same graph from the precomputed access \p Table. A subset
  /// build visits only the member rows and keeps tile state for only the
  /// tiles they touch. \p Workers is ignored; it stays only until the
  /// benchmark's decomposed compile stops passing it.
  explicit IterationGraph(const TileAccessTable &Table,
                          const std::vector<GlobalIter> &Subset = {},
                          unsigned Workers = 0);

  /// The whole-space program-order build, fed row by row by a caller that
  /// evaluates the subscripts itself: the ScheduleVerifier's one walk over
  /// the program builds this graph and its own recounts from the same
  /// rows. Rows must arrive in ascending iteration order; a tile outside
  /// its array throws std::out_of_range, as in the Program constructor.
  class ProgramWalk {
  public:
    ProgramWalk(const Program &P, const IterationSpace &Space);
    ProgramWalk(ProgramWalk &&) noexcept;
    ~ProgramWalk();

    /// Replays iteration \p G's accesses \p Row.
    void visit(GlobalIter G, std::span<const TileAccess> Row);

    /// The graph of every row visited; the walk is spent.
    IterationGraph finish() &&;

  private:
    friend class IterationGraph;
    struct State;
    std::unique_ptr<State> S;
    uint64_t NumIters = 0;
  };

  /// Builds a graph over \p NumNodes abstract iterations with explicit
  /// edges (each From < To). Used to replay published examples (Fig. 4)
  /// and in tests. Duplicate edges in \p EdgeList are removed rather than
  /// inflating in-degrees.
  IterationGraph(unsigned NumNodes,
                 const std::vector<std::pair<GlobalIter, GlobalIter>> &EdgeList);

  /// Iterations the graph spans: the whole space, members or not.
  uint64_t numNodes() const { return NumIters; }
  uint64_t numEdges() const { return Succ.size(); }

  /// Successors of iteration \p G (iterations that must run after it),
  /// ascending and duplicate-free. Whole-space graphs only; a subset graph
  /// answers in its own numbering (localSuccs).
  std::span<const GlobalIter> succs(GlobalIter G) const {
    assert(Members.empty() && "succs() of a subset graph; use localSuccs()");
    return {Succ.data() + Offset[G], Succ.data() + Offset[G + 1]};
  }

  /// Number of predecessors of iteration \p G. Whole-space graphs only.
  uint32_t inDegree(GlobalIter G) const {
    assert(Members.empty() &&
           "inDegree() of a subset graph; use localInDegree()");
    return InDeg[G];
  }

  /// The graph in its own node numbering, the form the scheduler walks: a
  /// subset graph numbers its members 0.. in ascending iteration order and
  /// keeps state for those alone, so per-(processor, phase) work stays
  /// the size of the subset; a whole-space graph's nodes are iterations.
  uint64_t numLocalNodes() const { return InDeg.size(); }
  std::span<const GlobalIter> localSuccs(uint64_t Node) const {
    return {Succ.data() + Offset[Node], Succ.data() + Offset[Node + 1]};
  }
  uint32_t localInDegree(uint64_t Node) const { return InDeg[Node]; }
  /// The iteration of node \p Node.
  GlobalIter iterationOf(uint64_t Node) const {
    return Members.empty() ? GlobalIter(Node) : Members[Node];
  }
  /// The members of a subset graph, ascending; empty for a whole space.
  const std::vector<GlobalIter> &members() const { return Members; }

  /// Materializes the predecessor lists (for verification and tests; the
  /// scheduler itself only needs successor lists and in-degrees).
  std::vector<std::vector<GlobalIter>> buildPredLists() const;

  /// True if \p Order (a permutation of a subset of iterations containing
  /// every non-isolated node) schedules every node after all of its
  /// predecessors.
  bool respectsDependences(const std::vector<GlobalIter> &Order) const;

private:
  using Edge = std::pair<GlobalIter, GlobalIter>; ///< (From, To).

  uint64_t NumIters = 0;
  std::vector<uint64_t> Offset; ///< numLocalNodes()+1 offsets into Succ.
  std::vector<GlobalIter> Succ; ///< Successor nodes, row by row.
  std::vector<uint32_t> InDeg;  ///< Per node.
  /// Subset graphs only: the member iterations, node I is Members[I].
  std::vector<GlobalIter> Members;

  IterationGraph() = default;

  /// Lays \p Edges out as the CSR arrays over \p NumNodes nodes and counts
  /// the in-degrees. The buffer must be ordered by non-decreasing target,
  /// as every virtual execution emits it; each row then comes out sorted
  /// with its duplicates adjacent, and they are dropped without a sort.
  void buildCsr(uint64_t NumNodes, const std::vector<Edge> &Edges);
};

} // namespace dra

#endif // DRA_ANALYSIS_ITERATIONGRAPH_H
