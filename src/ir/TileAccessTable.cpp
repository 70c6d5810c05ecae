//===- ir/TileAccessTable.cpp - Precomputed tile accesses ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/TileAccessTable.h"

#include <cassert>

using namespace dra;

TileAccessTable::TileAccessTable(const Program &P, const IterationSpace &Space,
                                 unsigned /*Workers*/) {
  uint64_t N = Space.size();

  // Every iteration contributes exactly one entry per access of its nest,
  // so the whole CSR shape is known before any subscript is evaluated.
  RowOffset.resize(N + 1);
  RowOffset[0] = 0;
  for (GlobalIter G = 0; G != GlobalIter(N); ++G)
    RowOffset[G + 1] =
        RowOffset[G] + P.nest(Space.nestOf(G)).accesses().size();

  // Rows are stored in iteration order, so appending each iteration's
  // accesses in turn lays out the CSR entries with no scratch copy.
  Entries.reserve(RowOffset[N]);
  for (GlobalIter G = 0; G != GlobalIter(N); ++G) {
    P.appendTouchedTiles(Space.nestOf(G), Space.iterOf(G), Entries);
    assert(Entries.size() == RowOffset[G + 1] &&
           "virtual execution emitted an unexpected entry count");
  }

  // Distinct-tile census, per array and total. Linear tile indices are
  // bounded by the array's declared tile count, so one bitmap per array
  // makes the census a linear scan (no hashing).
  TileSpanOfArray.reserve(P.arrays().size());
  for (const ArrayInfo &A : P.arrays())
    TileSpanOfArray.push_back(A.numTiles());
  std::vector<std::vector<uint8_t>> Seen(P.arrays().size());
  std::vector<uint64_t> Count(P.arrays().size(), 0);
  for (const TileAccess &TA : Entries) {
    std::vector<uint8_t> &S = Seen[TA.Tile.Array];
    if (S.empty())
      S.assign(size_t(TileSpanOfArray[TA.Tile.Array]), 0);
    uint8_t &Bit = S[size_t(TA.Tile.Linear)];
    Count[TA.Tile.Array] += 1 - Bit;
    Bit = 1;
  }
  DistinctTilesOfArray = std::move(Count);
  for (uint64_t C : DistinctTilesOfArray)
    DistinctTiles += C;

  // Dense tile numbering (array-major, ascending linear index): turn each
  // array's census bitmap into a rank table, then stamp every entry with
  // its tile's dense id. Consumers index flat per-tile state with these
  // instead of hashing (array, linear) pairs.
  DenseBaseOfArray.resize(P.arrays().size() + 1);
  DenseBaseOfArray[0] = 0;
  for (size_t A = 0; A != P.arrays().size(); ++A)
    DenseBaseOfArray[A + 1] =
        DenseBaseOfArray[A] + uint32_t(DistinctTilesOfArray[A]);
  std::vector<std::vector<uint32_t>> Rank(P.arrays().size());
  for (size_t A = 0; A != P.arrays().size(); ++A) {
    if (Seen[A].empty())
      continue;
    Rank[A].resize(Seen[A].size());
    uint32_t R = 0;
    for (size_t L = 0; L != Seen[A].size(); ++L) {
      Rank[A][L] = R;
      R += Seen[A][L];
    }
  }
  DenseIds.resize(Entries.size());
  for (size_t I = 0; I != Entries.size(); ++I) {
    const TileRef &T = Entries[I].Tile;
    DenseIds[I] = DenseBaseOfArray[T.Array] + Rank[T.Array][size_t(T.Linear)];
  }
}
