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
/// Because tile state is keyed by (array, tile), the virtual execution
/// shards cleanly by array: the table-based constructor derives each
/// array's edges independently on a bounded std::jthread pool and merges
/// them deterministically. Every constructor finishes with a canonical
/// compaction (per-node successor lists sorted ascending and deduplicated,
/// in-degrees recounted), so the resulting graph is identical for any
/// worker count and for the serial builder (docs/PERFORMANCE.md).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ANALYSIS_ITERATIONGRAPH_H
#define DRA_ANALYSIS_ITERATIONGRAPH_H

#include "ir/Program.h"
#include "ir/TileAccessTable.h"

#include <cstdint>
#include <vector>

namespace dra {

/// Dependence DAG over a program's flattened iteration space.
class IterationGraph {
public:
  /// Builds the exact tile-granularity dependence graph of \p P over the
  /// iteration space \p Space with a private serial virtual execution.
  /// Optionally restricted to the iterations in \p Subset (others become
  /// isolated nodes); an empty subset means all. The pipeline uses the
  /// table-based constructor; this serial build stays as its reference
  /// (tests/hotpath_test.cpp checks the sharded build against it) and
  /// serves LoopFusion, which checks legality before any table exists.
  IterationGraph(const Program &P, const IterationSpace &Space,
                 const std::vector<GlobalIter> &Subset = {});

  /// Builds the same graph from the precomputed access \p Table, sharded
  /// by array over \p Workers threads (0 = one per array, bounded by the
  /// hardware concurrency). The result is identical for every worker
  /// count, including 1.
  explicit IterationGraph(const TileAccessTable &Table,
                          const std::vector<GlobalIter> &Subset = {},
                          unsigned Workers = 0);

  /// Builds a graph over \p NumNodes abstract iterations with explicit
  /// edges (each From < To). Used to replay published examples (Fig. 4)
  /// and in tests. Duplicate edges in \p EdgeList are compacted away
  /// rather than inflating in-degrees.
  IterationGraph(unsigned NumNodes,
                 const std::vector<std::pair<GlobalIter, GlobalIter>> &EdgeList);

  uint64_t numNodes() const { return InDeg.size(); }
  uint64_t numEdges() const { return Edges; }

  /// Successors of \p G (iterations that must run after it), ascending and
  /// duplicate-free after compaction.
  const std::vector<GlobalIter> &succs(GlobalIter G) const {
    return Succ[G];
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
  std::vector<std::vector<GlobalIter>> Succ;
  std::vector<uint32_t> InDeg;
  uint64_t Edges = 0;

  void addEdge(GlobalIter From, GlobalIter To);

  /// Sorts and deduplicates every successor list, then recounts InDeg and
  /// Edges from the compacted lists. Canonicalizes the graph so builds
  /// that only differ in edge-emission order (or duplicate multiplicity)
  /// compare equal. Successor lists are independent, so the sort pass
  /// shards over \p SortWorkers threads (the recount stays serial); the
  /// result is identical for any worker count.
  void compact(unsigned SortWorkers = 1);

  void buildFromTable(const TileAccessTable &Table,
                      const std::vector<GlobalIter> &Subset,
                      unsigned Workers);
};

} // namespace dra

#endif // DRA_ANALYSIS_ITERATIONGRAPH_H
