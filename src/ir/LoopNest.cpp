//===- ir/LoopNest.cpp - Affine loop nests --------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/LoopNest.h"

#include <algorithm>
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

uint64_t LoopNest::numIterations(uint64_t Limit) const {
  assert(!Loops.empty() && "loop nest with no loops");
  // Trip counts in the unsigned domain, where Hi - Lo cannot overflow.
  auto Trips = [](int64_t Lo, int64_t Hi) {
    return Hi > Lo ? uint64_t(Hi) - uint64_t(Lo) : uint64_t(0);
  };
  bool Rectangular = true;
  for (const Loop &L : Loops)
    Rectangular &= L.Lower.isConstant() && L.Upper.isConstant();
  if (Rectangular) {
    uint64_t N = 1;
    for (const Loop &L : Loops) {
      uint64_t T = Trips(L.Lower.constTerm(), L.Upper.constTerm());
      if (T == 0)
        return 0;
      if (__builtin_mul_overflow(N, T, &N))
        N = UINT64_MAX; // Saturated; a later empty loop still yields 0.
    }
    return N;
  }

  const unsigned Inner = depth() - 1;
  const uint64_t WalkLimit = std::max(Limit, MaxWalkPoints);
  auto SatAdd = [](uint64_t A, uint64_t B) {
    return B > UINT64_MAX - A ? UINT64_MAX : A + B;
  };
  IterVec Iter(Loops.size(), 0);
  uint64_t N = 0, Walked = 0;
  auto Count = [&](auto &Self, unsigned Depth) -> void {
    int64_t Lo = Loops[Depth].Lower.evaluate(Iter);
    int64_t Hi = Loops[Depth].Upper.evaluate(Iter);
    if (Depth == Inner) {
      N = SatAdd(N, Trips(Lo, Hi));
      return;
    }
    // Charged up front, so a loop past the budget is never entered.
    Walked = SatAdd(Walked, Trips(Lo, Hi));
    for (int64_t V = Lo; V < Hi && N <= Limit && Walked <= WalkLimit; ++V) {
      Iter[Depth] = V;
      Self(Self, Depth + 1);
    }
    Iter[Depth] = 0;
  };
  Count(Count, 0);
  // WalkLimit >= Limit, so a walk can only run out when Limit + 1 fits.
  return Walked > WalkLimit && N <= Limit ? Limit + 1 : N;
}

void LoopNest::evalSubscriptsInto(const ArrayAccess &Access, IterSpan Iter,
                                  std::vector<int64_t> &Coord) {
  Coord.resize(Access.Subscripts.size());
  for (size_t D = 0, E = Access.Subscripts.size(); D != E; ++D)
    Coord[D] = Access.Subscripts[D].evaluate(Iter);
}
