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
/// adjacent duplicates need removing. A table build allocates a fixed
/// number of times, however many nodes and edges it has
/// (docs/PERFORMANCE.md).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ANALYSIS_ITERATIONGRAPH_H
#define DRA_ANALYSIS_ITERATIONGRAPH_H

#include "ir/Program.h"
#include "ir/TileAccessTable.h"

#include <cstdint>
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
  /// which checks legality before any table exists, and the
  /// ScheduleVerifier, which must not trust the table it checks.
  IterationGraph(const Program &P, const IterationSpace &Space,
                 const std::vector<GlobalIter> &Subset = {});

  /// Builds the same graph from the precomputed access \p Table. A subset
  /// build visits only the member rows and keeps tile state for only the
  /// tiles they touch. \p Workers is ignored; it stays only until the
  /// benchmark's decomposed compile stops passing it.
  explicit IterationGraph(const TileAccessTable &Table,
                          const std::vector<GlobalIter> &Subset = {},
                          unsigned Workers = 0);

  /// Builds a graph over \p NumNodes abstract iterations with explicit
  /// edges (each From < To). Used to replay published examples (Fig. 4)
  /// and in tests. Duplicate edges in \p EdgeList are removed rather than
  /// inflating in-degrees.
  IterationGraph(unsigned NumNodes,
                 const std::vector<std::pair<GlobalIter, GlobalIter>> &EdgeList);

  uint64_t numNodes() const { return InDeg.size(); }
  uint64_t numEdges() const { return Succ.size(); }

  /// Successors of \p G (iterations that must run after it), ascending and
  /// duplicate-free.
  std::span<const GlobalIter> succs(GlobalIter G) const {
    return {Succ.data() + Offset[G], Succ.data() + Offset[G + 1]};
  }

  /// Number of predecessors of \p G.
  uint32_t inDegree(GlobalIter G) const { return InDeg[G]; }

  /// Materializes the predecessor lists (for verification and tests; the
  /// scheduler itself only needs successor lists and in-degrees).
  std::vector<std::vector<GlobalIter>> buildPredLists() const;

  /// True if \p Order (a permutation of a subset of iterations containing
  /// every non-isolated node) schedules every node after all of its
  /// predecessors.
  bool respectsDependences(const std::vector<GlobalIter> &Order) const;

private:
  using Edge = std::pair<GlobalIter, GlobalIter>; ///< (From, To).

  std::vector<uint64_t> Offset; ///< numNodes()+1 offsets into Succ.
  std::vector<GlobalIter> Succ;
  std::vector<uint32_t> InDeg;

  /// Lays \p Edges out as the CSR arrays over \p NumNodes nodes and counts
  /// the in-degrees. The buffer must be ordered by non-decreasing target,
  /// as every virtual execution emits it; each row then comes out sorted
  /// with its duplicates adjacent, and they are dropped without a sort.
  void buildCsr(uint64_t NumNodes, const std::vector<Edge> &Edges);
};

} // namespace dra

#endif // DRA_ANALYSIS_ITERATIONGRAPH_H
