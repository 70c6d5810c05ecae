//===- ir/LoopNest.cpp - Affine loop nests --------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/LoopNest.h"

#include <algorithm>
#include <cassert>

using namespace dra;

namespace {

/// The values of the loop enclosing the innermost one, at the outer point
/// bound in Iter, for which the innermost range is non-empty. Along that
/// loop the innermost trip count is affine, First + Slope * (V - Begin), so
/// the values form one interval [Begin, End), on which every count is
/// positive and the first is First.
struct InnerRun {
  int64_t Begin = 0, End = 0;
  __int128 First = 0, Slope = 0;

  /// The innermost trip counts of the first \p M values, summed and
  /// saturated at UINT64_MAX.
  uint64_t sumFirst(uint64_t M) const {
    if (M == 0)
      return 0;
    // Both end counts are trip counts of real points, so each is below
    // 2^64 and First + Last fits; only the product can overflow.
    auto Ends = (unsigned __int128)(First + First + Slope * __int128(M - 1));
    unsigned __int128 Twice;
    if (__builtin_mul_overflow(Ends, (unsigned __int128)M, &Twice) ||
        Twice / 2 > UINT64_MAX)
      return UINT64_MAX;
    return uint64_t(Twice / 2);
  }
};

InnerRun innerRun(const std::vector<Loop> &Loops, IterVec &Iter) {
  const unsigned Outer = unsigned(Loops.size()) - 2;
  const Loop &In = Loops[Outer + 1];
  InnerRun R;
  int64_t Lo = Loops[Outer].Lower.evaluate(Iter);
  int64_t Hi = Loops[Outer].Upper.evaluate(Iter);
  if (Hi <= Lo)
    return R;
  Iter[Outer] = Lo;
  __int128 T0 = __int128(In.Upper.evaluate(Iter)) - In.Lower.evaluate(Iter);
  Iter[Outer] = 0;
  __int128 Slope = __int128(In.Upper.coeff(Outer)) - In.Lower.coeff(Outer);
  __int128 Span = __int128(Hi) - Lo;
  // Steps K from Lo with T0 + Slope * K >= 1: all or none when the count is
  // constant, a tail when it grows, a head when it shrinks.
  __int128 KBegin = 0, KEnd = Span;
  if (Slope == 0) {
    if (T0 < 1)
      return R;
  } else if (Slope > 0) {
    if (T0 < 1)
      KBegin = (1 - T0 + Slope - 1) / Slope;
  } else {
    if (T0 < 1)
      return R;
    KEnd = std::min(Span, (T0 - 1) / -Slope + 1);
  }
  if (KBegin >= KEnd)
    return R;
  R.Begin = int64_t(Lo + KBegin);
  R.End = int64_t(Lo + KEnd);
  R.First = T0 + Slope * KBegin;
  R.Slope = Slope;
  return R;
}

} // namespace

void LoopNest::enumerate(
    IterVec &Iter, unsigned Depth,
    const std::function<void(const IterVec &)> &Fn) const {
  if (Depth == Loops.size()) {
    Fn(Iter);
    return;
  }
  int64_t Lo, Hi;
  if (Depth + 2 == Loops.size()) {
    // Only the values with a non-empty innermost range are visited.
    InnerRun Run = innerRun(Loops, Iter);
    Lo = Run.Begin;
    Hi = Run.End;
  } else {
    Lo = Loops[Depth].Lower.evaluate(Iter);
    Hi = Loops[Depth].Upper.evaluate(Iter);
  }
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
    if (Depth + 1 == Inner) {
      // The innermost counts along this loop form an arithmetic series:
      // sum it in closed form, stopping at the first value whose count
      // takes N past Limit, as a walk would.
      if (Walked > WalkLimit || N > Limit)
        return;
      InnerRun Run = innerRun(Loops, Iter);
      uint64_t Values = uint64_t(Run.End) - uint64_t(Run.Begin);
      uint64_t Sum = Run.sumFirst(Values);
      if (Sum > Limit - N) {
        uint64_t M = 1, Max = Values; // The first M with N + sum > Limit.
        while (M < Max) {
          uint64_t Mid = M + (Max - M) / 2;
          if (Run.sumFirst(Mid) > Limit - N)
            Max = Mid;
          else
            M = Mid + 1;
        }
        Sum = Run.sumFirst(M);
      }
      N = SatAdd(N, Sum);
      return;
    }
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
