//===- ir/Program.cpp - Whole-program IR ----------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <cassert>
#include <stdexcept>
#include <string>

using namespace dra;

int64_t ArrayInfo::linearTile(const std::vector<int64_t> &Coord) const {
  assert(Coord.size() == DimsInTiles.size() && "subscript arity mismatch");
  int64_t Linear = 0;
  for (size_t D = 0, E = Coord.size(); D != E; ++D) {
    assert(Coord[D] >= 0 && Coord[D] < DimsInTiles[D] &&
           "array tile access out of bounds");
    Linear = Linear * DimsInTiles[D] + Coord[D];
  }
  return Linear;
}

ArrayId Program::addArray(std::string ArrName,
                          std::vector<int64_t> DimsInTiles) {
  ArrayInfo Info;
  Info.Id = ArrayId(Arrays.size());
  Info.Name = std::move(ArrName);
  Info.DimsInTiles = std::move(DimsInTiles);
  assert(!Info.DimsInTiles.empty() && "array must have at least one dim");
  Arrays.push_back(std::move(Info));
  return Arrays.back().Id;
}

NestId Program::addNest(LoopNest Nest) {
  assert(Nest.id() == Nests.size() && "nest ids must be dense program order");
  Nests.push_back(std::move(Nest));
  return Nests.back().id();
}

void Program::appendTouchedTiles(NestId N, IterSpan Iter,
                                 std::vector<TileAccess> &Out) const {
  for (const ArrayAccess &A : Nests[N].accesses()) {
    const std::vector<int64_t> &Dims = Arrays[A.Array].DimsInTiles;
    assert(A.Subscripts.size() == Dims.size() && "subscript arity mismatch");
    int64_t Linear = 0;
    for (size_t D = 0, E = Dims.size(); D != E; ++D) {
      int64_t C = A.Subscripts[D].evaluate(Iter);
      assert(C >= 0 && C < Dims[D] && "array tile access out of bounds");
      Linear = Linear * Dims[D] + C;
    }
    Out.push_back({{A.Array, Linear}, A.Kind});
  }
}

std::vector<TileAccess> Program::touchedTiles(NestId N, IterSpan Iter) const {
  std::vector<TileAccess> Out;
  Out.reserve(Nests[N].accesses().size());
  appendTouchedTiles(N, Iter, Out);
  return Out;
}

uint64_t Program::totalBytesAccessed(uint64_t TileBytes) const {
  uint64_t Accesses = 0;
  for (const LoopNest &Nest : Nests)
    Accesses += Nest.numIterations() * Nest.accesses().size();
  return Accesses * TileBytes;
}

IterationSpace::IterationSpace(const Program &P) {
  // Count first, so an oversized program fails before anything is stored
  // and the fill below never reallocates.
  uint64_t Iters = 0, NumCoords = 0;
  Slices.reserve(P.nests().size() + 1);
  for (const LoopNest &Nest : P.nests()) {
    uint64_t N = Nest.numIterations(MaxIterations - Iters);
    if (N > MaxIterations - Iters)
      throw std::invalid_argument(
          "program '" + P.name() + "' has more than " +
          std::to_string(MaxIterations) +
          " iterations or loop points to walk, the most flat iteration ids "
          "can number");
    Slices.push_back({NumCoords, GlobalIter(Iters), Nest.depth()});
    Iters += N;
    NumCoords += N * Nest.depth();
  }
  Slices.push_back({NumCoords, GlobalIter(Iters), 0});

  Coords.reserve(NumCoords);
  NestOf.reserve(Iters);
  for (size_t I = 0; I != P.nests().size(); ++I) {
    if (Slices[I].Begin == Slices[I + 1].Begin)
      continue; // An empty nest is not walked.
    const LoopNest &Nest = P.nests()[I];
    Nest.forEachIteration([&](const IterVec &Iter) {
      Coords.insert(Coords.end(), Iter.begin(), Iter.end());
      NestOf.push_back(Nest.id());
    });
  }
  assert(NestOf.size() == Iters && Coords.size() == NumCoords &&
         "enumeration disagrees with the iteration count");
}
