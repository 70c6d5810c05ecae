//===- analysis/IterationGraph.cpp - Exact iteration dependences ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/IterationGraph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

using namespace dra;

namespace {

constexpr GlobalIter NoIter = ~GlobalIter(0);

/// Virtual-execution state of one tile in the reference build.
struct TileState {
  GlobalIter LastWriter = NoIter;
  std::vector<GlobalIter> ReadersSinceWrite;
};

/// Packs (array, linear tile) into one hash key. Arrays are few; linear tile
/// indices fit comfortably in 48 bits for any workload in this repo.
uint64_t tileKey(const TileRef &T) {
  assert(uint64_t(T.Linear) < (uint64_t(1) << 48) && "tile index overflow");
  return (uint64_t(T.Array) << 48) | uint64_t(T.Linear);
}

/// Rank dictionary over a dense-tile-id universe for subset builds: a
/// bitmap of the ids the subset touches plus per-word prefix popcounts.
/// rank() then maps a dense id to its consecutive local id in O(1) — the
/// bitmap for even the largest workload here is a few KiB, so both the
/// marking pass and the lookups stay in L1, unlike a sorted-vector
/// binary-search remap which pays a cache-cold probe per access.
struct DenseRank {
  std::vector<uint64_t> Bits;
  std::vector<uint32_t> Prefix;
  uint32_t Count = 0; ///< Distinct ids marked; valid after freeze().

  explicit DenseRank(uint64_t Universe) : Bits((Universe + 63) / 64, 0) {}

  void mark(uint32_t D) { Bits[D >> 6] |= uint64_t(1) << (D & 63); }

  void freeze() {
    Prefix.resize(Bits.size());
    uint32_t Run = 0;
    for (size_t W = 0; W != Bits.size(); ++W) {
      Prefix[W] = Run;
      Run += uint32_t(std::popcount(Bits[W]));
    }
    Count = Run;
  }

  uint32_t rank(uint32_t D) const {
    return Prefix[D >> 6] +
           uint32_t(std::popcount(Bits[D >> 6] &
                                  ((uint64_t(1) << (D & 63)) - 1)));
  }
};

} // namespace

void IterationGraph::buildCsr(uint64_t NumNodes,
                              const std::vector<Edge> &Edges) {
  // Count pass: out-degrees, then their prefix sums as row starts.
  Offset.assign(NumNodes + 1, 0);
  for (const auto &[From, To] : Edges) {
    assert(From < To && To < NumNodes &&
           "dependences must flow forward in program order");
    ++Offset[From + 1];
  }
  for (uint64_t U = 0; U != NumNodes; ++U)
    Offset[U + 1] += Offset[U];

  // Fill pass, in buffer order: each row receives its targets in
  // non-decreasing order. Offset[U] serves as U's cursor and ends at U's
  // row end, so shifting by one restores the row starts.
  Succ.resize(Edges.size());
  for (const auto &[From, To] : Edges)
    Succ[Offset[From]++] = To;
  for (uint64_t U = NumNodes; U != 0; --U)
    Offset[U] = Offset[U - 1];
  Offset[0] = 0;

  // Drop adjacent duplicates in place and count in-degrees of what stays.
  InDeg.assign(NumNodes, 0);
  uint64_t Out = 0, Begin = 0;
  for (uint64_t U = 0; U != NumNodes; ++U) {
    const uint64_t End = Offset[U + 1];
    Offset[U] = Out;
    for (uint64_t I = Begin; I != End; ++I) {
      GlobalIter V = Succ[I];
      if (Out != Offset[U] && Succ[Out - 1] == V)
        continue;
      Succ[Out++] = V;
      ++InDeg[V];
    }
    Begin = End;
  }
  Offset[NumNodes] = Out;
  Succ.resize(Out);
}

IterationGraph::IterationGraph(const Program &P, const IterationSpace &Space,
                               const std::vector<GlobalIter> &Subset) {
  std::vector<bool> InSubset;
  if (!Subset.empty()) {
    InSubset.assign(Space.size(), false);
    for (GlobalIter G : Subset)
      InSubset[G] = true;
  }

  // The number of accesses executed bounds the number of distinct tiles;
  // the cap keeps small programs from over-reserving (the table-based
  // builder knows the exact distinct-tile counts instead).
  uint64_t AccessBound = 0;
  for (const LoopNest &Nest : P.nests())
    AccessBound += Nest.numIterations() * Nest.accesses().size();
  std::unordered_map<uint64_t, TileState> Tiles;
  Tiles.reserve(size_t(std::min<uint64_t>(AccessBound, 1 << 16)));
  std::vector<TileAccess> Touched;

  // Every edge is emitted while visiting its target G, so the buffer is
  // ordered by target as buildCsr requires.
  std::vector<Edge> Edges;
  for (GlobalIter G = 0, E = GlobalIter(Space.size()); G != E; ++G) {
    if (!InSubset.empty() && !InSubset[G])
      continue;
    Touched.clear();
    P.appendTouchedTiles(Space.nestOf(G), Space.iterOf(G), Touched);
    for (const TileAccess &TA : Touched) {
      TileState &TS = Tiles[tileKey(TA.Tile)];
      if (TA.Kind == AccessKind::Read) {
        if (TS.LastWriter != NoIter && TS.LastWriter != G)
          Edges.emplace_back(TS.LastWriter, G);
        if (TS.ReadersSinceWrite.empty() || TS.ReadersSinceWrite.back() != G)
          TS.ReadersSinceWrite.push_back(G);
        continue;
      }
      // Write: WAW on the previous writer, WAR on intervening readers.
      if (TS.LastWriter != NoIter && TS.LastWriter != G)
        Edges.emplace_back(TS.LastWriter, G);
      for (GlobalIter R : TS.ReadersSinceWrite)
        if (R != G)
          Edges.emplace_back(R, G);
      TS.ReadersSinceWrite.clear();
      TS.LastWriter = G;
    }
  }
  buildCsr(Space.size(), Edges);
}

IterationGraph::IterationGraph(const TileAccessTable &Table,
                               const std::vector<GlobalIter> &Subset,
                               unsigned /*Workers*/) {
  // The virtual execution must replay accesses in ascending program order,
  // so subset builds walk a sorted copy of an unsorted member list (the
  // pipeline passes sorted subsets, which are walked in place).
  std::vector<GlobalIter> Sorted;
  if (!std::is_sorted(Subset.begin(), Subset.end())) {
    Sorted = Subset;
    std::sort(Sorted.begin(), Sorted.end());
  }
  const std::vector<GlobalIter> &Members = Sorted.empty() ? Subset : Sorted;
  const uint64_t N = Table.numIters();
  auto ForEachRow = [&](auto &&Fn) {
    if (Members.empty()) {
      for (GlobalIter G = 0; G != GlobalIter(N); ++G)
        Fn(G);
      return;
    }
    GlobalIter Prev = NoIter;
    for (GlobalIter G : Members) {
      if (G == Prev)
        continue; // Duplicate subset member; visit each row once.
      Prev = G;
      Fn(G);
    }
  };

  // Tile state never crosses arrays, and the table's dense tile ids are
  // contiguous, so the virtual execution uses direct-indexed per-tile state
  // — no hashing. Readers-since-last-write live in one pooled index-linked
  // list instead of a vector per tile, so a build allocates the same
  // however many tiles it touches. Reader lists come back newest-first,
  // but every edge emitted while visiting G targets G, so the buffer stays
  // ordered by target as buildCsr requires.
  struct PooledTileState {
    GlobalIter LastWriter = NoIter;
    int32_t ReadersHead = -1;
  };
  struct ReaderNode {
    GlobalIter Reader;
    int32_t Next;
  };
  uint64_t TotalEntries = 0;
  if (Members.empty())
    TotalEntries = Table.numAccesses();
  else
    ForEachRow([&](GlobalIter G) { TotalEntries += Table.row(G).size(); });
  assert(TotalEntries < (uint64_t(1) << 31) &&
         "reader pool index exceeds 31 bits");

  // Each access emits at most one edge from the last writer, and each
  // pooled reader is emitted at most once (by the write that clears it),
  // so 2 * TotalEntries bounds the edge count and neither buffer grows.
  std::vector<Edge> Edges;
  Edges.reserve(size_t(2 * TotalEntries));
  std::vector<ReaderNode> Pool;
  Pool.reserve(size_t(TotalEntries));
  auto Apply = [&](PooledTileState &TS, GlobalIter G, AccessKind Kind) {
    if (Kind == AccessKind::Read) {
      if (TS.LastWriter != NoIter && TS.LastWriter != G)
        Edges.emplace_back(TS.LastWriter, G);
      if (TS.ReadersHead < 0 || Pool[size_t(TS.ReadersHead)].Reader != G) {
        Pool.push_back({G, TS.ReadersHead});
        TS.ReadersHead = int32_t(Pool.size() - 1);
      }
      return;
    }
    if (TS.LastWriter != NoIter && TS.LastWriter != G)
      Edges.emplace_back(TS.LastWriter, G);
    for (int32_t I = TS.ReadersHead; I >= 0; I = Pool[size_t(I)].Next)
      if (Pool[size_t(I)].Reader != G)
        Edges.emplace_back(Pool[size_t(I)].Reader, G);
    TS.ReadersHead = -1;
    TS.LastWriter = G;
  };

  if (Members.empty()) {
    std::vector<PooledTileState> State(size_t(Table.numDistinctTiles()));
    ForEachRow([&](GlobalIter G) {
      std::span<const TileAccess> Row = Table.row(G);
      std::span<const uint32_t> Dense = Table.denseRow(G);
      for (size_t I = 0; I != Row.size(); ++I)
        Apply(State[Dense[I]], G, Row[I].Kind);
    });
  } else {
    // A subset (one processor, one phase) touches a sliver of the tile
    // universe. Remap the dense ids it actually uses to consecutive local
    // ids so the state vector is subset-sized — initializing a
    // universe-sized state for each of the many per-processor sub-builds
    // would dwarf the build itself.
    DenseRank Rank(Table.numDistinctTiles());
    ForEachRow([&](GlobalIter G) {
      for (uint32_t D : Table.denseRow(G))
        Rank.mark(D);
    });
    Rank.freeze();
    std::vector<PooledTileState> State(Rank.Count);
    ForEachRow([&](GlobalIter G) {
      std::span<const TileAccess> Row = Table.row(G);
      std::span<const uint32_t> Dense = Table.denseRow(G);
      for (size_t I = 0; I != Row.size(); ++I)
        Apply(State[Rank.rank(Dense[I])], G, Row[I].Kind);
    });
  }
  buildCsr(N, Edges);
}

IterationGraph::IterationGraph(unsigned NumNodes,
                               const std::vector<Edge> &EdgeList) {
  // Explicit lists come in any order and may repeat an edge (a-b, a-c,
  // a-b). Ordering them by target puts each row in order with its
  // duplicates adjacent, so buildCsr drops them instead of letting them
  // inflate in-degrees and deadlock the scheduler.
  std::vector<Edge> Edges = EdgeList;
  std::sort(Edges.begin(), Edges.end(), [](const Edge &A, const Edge &B) {
    return A.second < B.second;
  });
  buildCsr(NumNodes, Edges);
}

std::vector<std::vector<GlobalIter>> IterationGraph::buildPredLists() const {
  std::vector<std::vector<GlobalIter>> Pred(numNodes());
  for (GlobalIter U = 0; U != GlobalIter(numNodes()); ++U)
    for (GlobalIter V : succs(U))
      Pred[V].push_back(U);
  return Pred;
}

bool IterationGraph::respectsDependences(
    const std::vector<GlobalIter> &Order) const {
  std::vector<uint64_t> Pos(numNodes(), ~uint64_t(0));
  for (uint64_t I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = I;
  for (GlobalIter U = 0; U != GlobalIter(numNodes()); ++U) {
    for (GlobalIter V : succs(U)) {
      if (Pos[U] == ~uint64_t(0) || Pos[V] == ~uint64_t(0))
        return false; // A constrained node is missing from the order.
      if (Pos[U] >= Pos[V])
        return false;
    }
  }
  return true;
}
