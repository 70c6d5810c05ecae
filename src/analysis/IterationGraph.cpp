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

  /// The edges, once the replay is over, with the tile state and the
  /// reader pool released first: the verifier's walk lays its graph out
  /// while the pipeline's own structures are alive, so the CSR arrays
  /// must not sit on top of them.
  const std::vector<Edge> &finish() {
    std::vector<TileState>().swap(State);
    std::vector<ReaderNode>().swap(Pool);
    return Edges;
  }

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
  /// One bitmap word and the count of ids marked in the words before it,
  /// side by side so the rank table is one allocation.
  struct Word {
    uint64_t Bits = 0;
    uint32_t Prefix = 0;
  };
  std::vector<Word> Words;
  uint32_t Count = 0; ///< Distinct ids marked; valid after freeze().

  explicit DenseRank(uint64_t Universe) : Words((Universe + 63) / 64) {}

  void mark(uint32_t D) { Words[D >> 6].Bits |= uint64_t(1) << (D & 63); }

  void freeze() {
    uint32_t Run = 0;
    for (Word &W : Words) {
      W.Prefix = Run;
      Run += uint32_t(std::popcount(W.Bits));
    }
    Count = Run;
  }

  uint32_t rank(uint32_t D) const {
    const Word &W = Words[D >> 6];
    return W.Prefix +
           uint32_t(std::popcount(W.Bits & ((uint64_t(1) << (D & 63)) - 1)));
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

/// The program-order virtual execution over per-tile state indexed by
/// Base[Array] + Linear over the declared tiles of every array the
/// program references: the same universe the table's census allocates,
/// derived here from the program alone so the reference never sees a
/// table or its dense ids.
struct IterationGraph::ProgramWalk::State {
  struct ArraySlots {
    uint64_t Base = 0;
    int64_t Tiles = -1; ///< -1 until a nest references the array.
  };

  const Program &P;
  std::vector<ArraySlots> Slots;
  VirtualExecution Exec;

  State(const Program &P, uint64_t Accesses)
      : P(P), Slots(P.arrays().size()), Exec(countSlots(), Accesses) {}

  uint64_t countSlots() {
    uint64_t NumSlots = 0;
    for (const LoopNest &Nest : P.nests()) {
      for (const ArrayAccess &A : Nest.accesses()) {
        ArraySlots &S = Slots[A.Array];
        if (S.Tiles >= 0)
          continue;
        S = {NumSlots, P.array(A.Array).numTiles()};
        NumSlots += uint64_t(S.Tiles);
      }
    }
    return NumSlots;
  }

  /// Replays iteration \p G's \p Row as node \p Node.
  void visit(GlobalIter Node, GlobalIter G, std::span<const TileAccess> Row) {
    for (const TileAccess &TA : Row) {
      const ArraySlots &S = Slots[TA.Tile.Array];
      if (TA.Tile.Linear < 0 || TA.Tile.Linear >= S.Tiles)
        throw std::out_of_range("iteration " + std::to_string(G) +
                                " touches tile " +
                                std::to_string(TA.Tile.Linear) +
                                " outside array '" +
                                P.array(TA.Tile.Array).Name + "'");
      Exec.apply(S.Base + uint64_t(TA.Tile.Linear), Node, TA.Kind);
    }
  }
};

IterationGraph::ProgramWalk::ProgramWalk(const Program &P,
                                         const IterationSpace &Space) {
  uint64_t Accesses = 0;
  for (NestId N = 0; N != P.nests().size(); ++N)
    Accesses += uint64_t(Space.nestEnd(N) - Space.nestBegin(N)) *
                P.nest(N).accesses().size();
  S = std::make_unique<State>(P, Accesses);
  NumIters = Space.size();
}

IterationGraph::ProgramWalk::ProgramWalk(ProgramWalk &&) noexcept = default;
IterationGraph::ProgramWalk::~ProgramWalk() = default;

void IterationGraph::ProgramWalk::visit(GlobalIter G,
                                        std::span<const TileAccess> Row) {
  S->visit(G, G, Row);
}

IterationGraph IterationGraph::ProgramWalk::finish() && {
  IterationGraph G;
  G.NumIters = NumIters;
  G.buildCsr(NumIters, S->Exec.finish());
  S.reset();
  return G;
}

IterationGraph::IterationGraph(const Program &P, const IterationSpace &Space,
                               const std::vector<GlobalIter> &Subset) {
  NumIters = Space.size();
  std::vector<GlobalIter> Sorted = Subset;
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  const uint64_t Nodes = Subset.empty() ? NumIters : Sorted.size();
  auto IterOf = [&](uint64_t Node) {
    return Subset.empty() ? GlobalIter(Node) : Sorted[size_t(Node)];
  };

  size_t MaxRow = 0;
  for (const LoopNest &Nest : P.nests())
    MaxRow = std::max(MaxRow, Nest.accesses().size());
  uint64_t Accesses = 0;
  for (uint64_t Node = 0; Node != Nodes; ++Node)
    Accesses += P.nest(Space.nestOf(IterOf(Node))).accesses().size();

  ProgramWalk::State Walk(P, Accesses);
  std::vector<TileAccess> Touched;
  Touched.reserve(MaxRow);
  for (uint64_t Node = 0; Node != Nodes; ++Node) {
    GlobalIter G = IterOf(Node);
    Touched.clear();
    P.appendTouchedTiles(Space.nestOf(G), Space.iterOf(G), Touched);
    Walk.visit(GlobalIter(Node), G, Touched);
  }
  buildCsr(Nodes, Walk.Exec.edges());
  if (!Subset.empty())
    Members = std::move(Sorted);
}

IterationGraph::IterationGraph(const TileAccessTable &Table,
                               const std::vector<GlobalIter> &Subset,
                               unsigned /*Workers*/) {
  const uint64_t N = Table.numIters();
  NumIters = N;
  if (Subset.empty()) {
    // Tile state never crosses arrays, and the table's dense tile ids are
    // contiguous, so they serve directly as the state slots.
    VirtualExecution Exec(Table.numDistinctTiles(), Table.numAccesses());
    for (GlobalIter G = 0; G != GlobalIter(N); ++G) {
      std::span<const TileAccess> Row = Table.row(G);
      std::span<const uint32_t> Dense = Table.denseRow(G);
      for (size_t I = 0; I != Row.size(); ++I)
        Exec.apply(Dense[I], G, Row[I].Kind);
    }
    buildCsr(N, Exec.edges());
    return;
  }

  // The virtual execution must replay accesses in ascending program order,
  // and node I is the I-th smallest member, so the members are sorted and
  // deduplicated (the pipeline passes sorted subsets, for which this is a
  // copy).
  std::vector<GlobalIter> Sorted = Subset;
  if (!std::is_sorted(Sorted.begin(), Sorted.end()))
    std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());

  // A subset (one processor, one phase) touches a sliver of the tile
  // universe. Remap the dense ids it actually uses to consecutive local
  // ids so the state vector is subset-sized — initializing a
  // universe-sized state for each of the many per-processor sub-builds
  // would dwarf the build itself.
  uint64_t TotalEntries = 0;
  DenseRank Rank(Table.numDistinctTiles());
  for (GlobalIter G : Sorted) {
    TotalEntries += Table.row(G).size();
    for (uint32_t D : Table.denseRow(G))
      Rank.mark(D);
  }
  Rank.freeze();
  VirtualExecution Exec(Rank.Count, TotalEntries);
  for (size_t Node = 0; Node != Sorted.size(); ++Node) {
    std::span<const TileAccess> Row = Table.row(Sorted[Node]);
    std::span<const uint32_t> Dense = Table.denseRow(Sorted[Node]);
    for (size_t I = 0; I != Row.size(); ++I)
      Exec.apply(Rank.rank(Dense[I]), GlobalIter(Node), Row[I].Kind);
  }
  buildCsr(Sorted.size(), Exec.edges());
  Members = std::move(Sorted);
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
  NumIters = NumNodes;
  buildCsr(NumNodes, Edges);
}

std::vector<std::vector<GlobalIter>> IterationGraph::buildPredLists() const {
  std::vector<std::vector<GlobalIter>> Pred(numNodes());
  for (uint64_t U = 0; U != numLocalNodes(); ++U)
    for (GlobalIter V : localSuccs(U))
      Pred[iterationOf(V)].push_back(iterationOf(U));
  return Pred;
}

bool IterationGraph::respectsDependences(
    const std::vector<GlobalIter> &Order) const {
  std::vector<uint64_t> Pos(numNodes(), ~uint64_t(0));
  for (uint64_t I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = I;
  for (uint64_t U = 0; U != numLocalNodes(); ++U) {
    for (GlobalIter V : localSuccs(U)) {
      uint64_t PU = Pos[iterationOf(U)], PV = Pos[iterationOf(V)];
      if (PU == ~uint64_t(0) || PV == ~uint64_t(0))
        return false; // A constrained node is missing from the order.
      if (PU >= PV)
        return false;
    }
  }
  return true;
}
