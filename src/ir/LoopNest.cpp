//===- ir/LoopNest.cpp - Affine loop nests --------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/LoopNest.h"

#include <cassert>

using namespace dra;

void LoopNest::enumerate(
    IterVec &Iter, unsigned Depth,
    const std::function<void(const IterVec &)> &Fn) const {
  if (Depth == Loops.size()) {
    Fn(Iter);
    return;
  }
  int64_t Lo = Loops[Depth].Lower.evaluate(Iter);
  int64_t Hi = Loops[Depth].Upper.evaluate(Iter);
  for (int64_t V = Lo; V < Hi; ++V) {
    Iter[Depth] = V;
    enumerate(Iter, Depth + 1, Fn);
  }
  Iter[Depth] = 0;
}

void LoopNest::forEachIteration(
    const std::function<void(const IterVec &)> &Fn) const {
  assert(!Loops.empty() && "loop nest with no loops");
  IterVec Iter(Loops.size(), 0);
  enumerate(Iter, 0, Fn);
}

uint64_t LoopNest::numIterations() const {
  assert(!Loops.empty() && "loop nest with no loops");
  const unsigned Inner = depth() - 1;
  IterVec Iter(Loops.size(), 0);
  uint64_t N = 0;
  auto Count = [&](auto &Self, unsigned Depth) -> void {
    int64_t Lo = Loops[Depth].Lower.evaluate(Iter);
    int64_t Hi = Loops[Depth].Upper.evaluate(Iter);
    if (Depth == Inner) {
      // Trip count in the unsigned domain, where Hi - Lo cannot overflow.
      uint64_t Trips = Hi > Lo ? uint64_t(Hi) - uint64_t(Lo) : 0;
      N = Trips > UINT64_MAX - N ? UINT64_MAX : N + Trips;
      return;
    }
    for (int64_t V = Lo; V < Hi; ++V) {
      Iter[Depth] = V;
      Self(Self, Depth + 1);
    }
    Iter[Depth] = 0;
  };
  Count(Count, 0);
  return N;
}

void LoopNest::evalSubscriptsInto(const ArrayAccess &Access, IterSpan Iter,
                                  std::vector<int64_t> &Coord) {
  Coord.resize(Access.Subscripts.size());
  for (size_t D = 0, E = Access.Subscripts.size(); D != E; ++D)
    Coord[D] = Access.Subscripts[D].evaluate(Iter);
}
