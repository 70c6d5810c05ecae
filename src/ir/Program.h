//===- ir/Program.h - Whole-program IR --------------------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program is an ordered sequence of affine loop nests operating on
/// disk-resident arrays (the paper's application model, Sec. 2: one array per
/// file). It also provides the flattened iteration space and tile-access
/// evaluation services shared by the analyses and the restructurer.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_PROGRAM_H
#define DRA_IR_PROGRAM_H

#include "ir/LoopNest.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dra {

/// A disk-resident array. Dimensions are expressed in *tiles*; each tile
/// occupies one stripe unit on disk (DESIGN.md Sec. 4). The array is stored
/// in its own file, row-major by tile.
struct ArrayInfo {
  ArrayId Id = 0;
  std::string Name;
  std::vector<int64_t> DimsInTiles;

  int64_t numTiles() const {
    int64_t N = 1;
    for (int64_t D : DimsInTiles)
      N *= D;
    return N;
  }

  /// Row-major linearization of a tile coordinate. Asserts in-bounds.
  int64_t linearTile(const std::vector<int64_t> &Coord) const;
};

/// Identifies one tile of one array.
struct TileRef {
  ArrayId Array = 0;
  int64_t Linear = 0;

  bool operator==(const TileRef &O) const {
    return Array == O.Array && Linear == O.Linear;
  }
};

/// One evaluated tile access (the body of an iteration touches one tile per
/// array reference).
struct TileAccess {
  TileRef Tile;
  AccessKind Kind = AccessKind::Read;
};

/// Flat identifier of one loop iteration across the whole program, assigned
/// in original program order. Used as the node id of the iteration
/// dependence graph and as the unit of scheduling.
using GlobalIter = uint32_t;

/// The most iterations a program may have. Flat ids keep the top bit of
/// GlobalIter clear, so they also fit the signed 32-bit links of the
/// dependence graph's pooled reader lists, and the all-ones value stays
/// free as the graph builds' "no iteration" mark.
constexpr uint64_t MaxIterations = (uint64_t(1) << 31) - 1;
static_assert(LoopNest::MaxWalkPoints == MaxIterations);

class Program;

/// The materialized iteration space of a program: every iteration of every
/// nest in original order, with flat-id <-> (nest, vector) translation.
///
/// The coordinates live in one flat array. Nest N's iterations are stored
/// back to back, each as depth(N) values, so iterOf is a view into that
/// array and building the space allocates O(nests), not per iteration.
class IterationSpace {
public:
  /// Counts every nest's iterations before storing any. Throws
  /// std::invalid_argument if there are more than MaxIterations, or if
  /// counting a nest runs out of its walk budget (LoopNest::numIterations).
  explicit IterationSpace(const Program &P);

  uint64_t size() const { return NestOf.size(); }
  NestId nestOf(GlobalIter G) const { return NestOf[G]; }

  /// The iteration vector of \p G, outermost loop first. The view stays
  /// valid as long as the space does.
  IterSpan iterOf(GlobalIter G) const {
    const NestSlice &S = Slices[NestOf[G]];
    return {Coords.data() + S.CoordBegin + uint64_t(G - S.Begin) * S.Depth,
            S.Depth};
  }

  /// First flat id belonging to nest \p N.
  GlobalIter nestBegin(NestId N) const { return Slices[N].Begin; }
  /// One past the last flat id belonging to nest \p N.
  GlobalIter nestEnd(NestId N) const { return Slices[N + 1].Begin; }

private:
  /// Where nest N's iterations start, as a flat id and as an offset into
  /// Coords, and how many coordinates each has. One trailing slice marks
  /// the end of the space.
  struct NestSlice {
    uint64_t CoordBegin = 0;
    GlobalIter Begin = 0;
    unsigned Depth = 0;
  };

  std::vector<int64_t> Coords;
  std::vector<NestId> NestOf;
  std::vector<NestSlice> Slices;
};

/// An ordered collection of loop nests over disk-resident arrays.
class Program {
public:
  explicit Program(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  ArrayId addArray(std::string ArrName, std::vector<int64_t> DimsInTiles);
  NestId addNest(LoopNest Nest);

  const std::vector<ArrayInfo> &arrays() const { return Arrays; }
  const ArrayInfo &array(ArrayId A) const { return Arrays[A]; }
  const std::vector<LoopNest> &nests() const { return Nests; }
  const LoopNest &nest(NestId N) const { return Nests[N]; }
  LoopNest &nest(NestId N) { return Nests[N]; }

  /// Evaluates every tile touched by iteration \p Iter of nest \p N, in body
  /// order. Out-of-bounds accesses assert (regular codes never go OOB).
  std::vector<TileAccess> touchedTiles(NestId N, IterSpan Iter) const;

  /// Appends the tiles touched by iteration \p Iter of nest \p N to \p Out.
  /// Each subscript is linearized as it is evaluated, so the call allocates
  /// nothing beyond \p Out's own growth.
  void appendTouchedTiles(NestId N, IterSpan Iter,
                          std::vector<TileAccess> &Out) const;

  /// Total bytes transferred when every iteration performs all its accesses
  /// once, for \p TileBytes-sized tiles.
  uint64_t totalBytesAccessed(uint64_t TileBytes) const;

private:
  std::string Name;
  std::vector<ArrayInfo> Arrays;
  std::vector<LoopNest> Nests;
};

} // namespace dra

#endif // DRA_IR_PROGRAM_H
