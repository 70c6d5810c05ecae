//===- analysis/IterationGraph.cpp - Exact iteration dependences ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/IterationGraph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

using namespace dra;

namespace {

constexpr GlobalIter NoIter = ~GlobalIter(0);

/// The virtual execution both program-order builds share. Per-tile state
/// is direct-indexed by a slot the caller assigns (no hashing), and the
/// readers since each tile's last write live in one pooled index-linked
/// list instead of a vector per tile, so a build allocates the same
/// however many tiles it touches. Reader lists come back newest-first,
/// but every edge emitted while visiting G targets G, so the buffer stays
/// ordered by target as buildCsr requires.
class VirtualExecution {
public:
  using Edge = std::pair<GlobalIter, GlobalIter>;

  /// Sizes every buffer up front for \p Slots tiles and \p Accesses
  /// replayed accesses. Each access emits at most one edge from the last
  /// writer, and each pooled reader is emitted at most once (by the write
  /// that clears it), so 2 * Accesses bounds the edge count and no buffer
  /// grows.
  VirtualExecution(uint64_t Slots, uint64_t Accesses)
      : State(static_cast<size_t>(Slots)) {
    assert(Accesses < (uint64_t(1) << 31) &&
           "reader pool index exceeds 31 bits");
    Edges.reserve(size_t(2 * Accesses));
    Pool.reserve(size_t(Accesses));
  }

  /// Replays one access of iteration \p G to the tile in \p Slot.
  void apply(uint64_t Slot, GlobalIter G, AccessKind Kind) {
    TileState &TS = State[size_t(Slot)];
    if (TS.LastWriter != NoIter && TS.LastWriter != G)
      Edges.emplace_back(TS.LastWriter, G);
    if (Kind == AccessKind::Read) {
      if (TS.ReadersHead < 0 || Pool[size_t(TS.ReadersHead)].Reader != G) {
        Pool.push_back({G, TS.ReadersHead});
        TS.ReadersHead = int32_t(Pool.size() - 1);
      }
      return;
    }
    // Write: WAW on the previous writer, WAR on intervening readers.
    for (int32_t I = TS.ReadersHead; I >= 0; I = Pool[size_t(I)].Next)
      if (Pool[size_t(I)].Reader != G)
        Edges.emplace_back(Pool[size_t(I)].Reader, G);
    TS.ReadersHead = -1;
    TS.LastWriter = G;
  }

  const std::vector<Edge> &edges() const { return Edges; }

private:
  struct TileState {
    GlobalIter LastWriter = NoIter;
    int32_t ReadersHead = -1;
  };
  struct ReaderNode {
    GlobalIter Reader;
    int32_t Next;
  };
  std::vector<TileState> State;
  std::vector<ReaderNode> Pool;
  std::vector<Edge> Edges;
};

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
  auto Visited = [&](GlobalIter G) { return InSubset.empty() || InSubset[G]; };

  // Per-tile state is indexed by Base[Array] + Linear over the declared
  // tiles of every array the program references: the same universe the
  // table's census allocates, derived here from the program alone so the
  // reference never sees a table or its dense ids.
  struct ArraySlots {
    uint64_t Base = 0;
    int64_t Tiles = -1; ///< -1 until a nest references the array.
  };
  std::vector<ArraySlots> Slots(P.arrays().size());
  uint64_t NumSlots = 0;
  size_t MaxRow = 0;
  for (const LoopNest &Nest : P.nests()) {
    MaxRow = std::max(MaxRow, Nest.accesses().size());
    for (const ArrayAccess &A : Nest.accesses()) {
      ArraySlots &S = Slots[A.Array];
      if (S.Tiles >= 0)
        continue;
      S = {NumSlots, P.array(A.Array).numTiles()};
      NumSlots += uint64_t(S.Tiles);
    }
  }
  uint64_t Accesses = 0;
  for (GlobalIter G = 0, E = GlobalIter(Space.size()); G != E; ++G)
    if (Visited(G))
      Accesses += P.nest(Space.nestOf(G)).accesses().size();

  VirtualExecution Exec(NumSlots, Accesses);
  std::vector<TileAccess> Touched;
  Touched.reserve(MaxRow);
  for (GlobalIter G = 0, E = GlobalIter(Space.size()); G != E; ++G) {
    if (!Visited(G))
      continue;
    Touched.clear();
    P.appendTouchedTiles(Space.nestOf(G), Space.iterOf(G), Touched);
    for (const TileAccess &TA : Touched) {
      const ArraySlots &S = Slots[TA.Tile.Array];
      if (TA.Tile.Linear < 0 || TA.Tile.Linear >= S.Tiles)
        throw std::out_of_range("iteration " + std::to_string(G) +
                                " touches tile " +
                                std::to_string(TA.Tile.Linear) +
                                " outside array '" +
                                P.array(TA.Tile.Array).Name + "'");
      Exec.apply(S.Base + uint64_t(TA.Tile.Linear), G, TA.Kind);
    }
  }
  buildCsr(Space.size(), Exec.edges());
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
  // contiguous, so they serve directly as the state slots.
  uint64_t TotalEntries = 0;
  if (Members.empty())
    TotalEntries = Table.numAccesses();
  else
    ForEachRow([&](GlobalIter G) { TotalEntries += Table.row(G).size(); });

  if (Members.empty()) {
    VirtualExecution Exec(Table.numDistinctTiles(), TotalEntries);
    ForEachRow([&](GlobalIter G) {
      std::span<const TileAccess> Row = Table.row(G);
      std::span<const uint32_t> Dense = Table.denseRow(G);
      for (size_t I = 0; I != Row.size(); ++I)
        Exec.apply(Dense[I], G, Row[I].Kind);
    });
    buildCsr(N, Exec.edges());
    return;
  }
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
  VirtualExecution Exec(Rank.Count, TotalEntries);
  ForEachRow([&](GlobalIter G) {
    std::span<const TileAccess> Row = Table.row(G);
    std::span<const uint32_t> Dense = Table.denseRow(G);
    for (size_t I = 0; I != Row.size(); ++I)
      Exec.apply(Rank.rank(Dense[I]), G, Row[I].Kind);
  });
  buildCsr(N, Exec.edges());
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
