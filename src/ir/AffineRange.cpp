//===- ir/AffineRange.cpp - Interval and stride algebra ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/AffineRange.h"

#include <cassert>
#include <numeric>

using namespace dra;

std::string AffineRange::toString() const {
  if (isEmpty())
    return "[]";
  std::string S = "[";
  S += std::to_string(Lo);
  S += ", ";
  S += std::to_string(Hi);
  S += ']';
  return S;
}

StridedRange StridedRange::make(int64_t Base, int64_t Step, uint64_t Count) {
  StridedRange R;
  if (Count == 0)
    return R;
  R.Count = Count;
  if (Count == 1 || Step == 0) {
    // A single point, or a step-0 progression that repeats one value: both
    // collapse to the canonical point form.
    R.Base = Base;
    R.Stride = 1;
    R.Count = 1;
    return R;
  }
  if (Step > 0) {
    R.Base = Base;
    R.Stride = uint64_t(Step);
  } else {
    // Descending enumeration order; the value *set* ascends from the last
    // element. Negate in the unsigned domain (INT64_MIN-safe).
    R.Stride = 0 - uint64_t(Step);
    R.Base = Base - int64_t(R.Stride * (Count - 1));
  }
  return R;
}

std::string StridedRange::toString() const {
  if (isEmpty())
    return "{}";
  std::string S = "{";
  S += std::to_string(Base);
  S += " + ";
  S += std::to_string(Stride);
  S += "*k, ";
  S += std::to_string(Count);
  S += '}';
  return S;
}

namespace {

/// Extended gcd: returns g = gcd(a, b) and x with a*x === g (mod b).
/// Requires a, b > 0. Intermediate products fit __int128.
int64_t extendedGcd(int64_t A, int64_t B, int64_t &X) {
  int64_t X0 = 1, X1 = 0, R0 = A, R1 = B;
  while (R1 != 0) {
    int64_t Q = R0 / R1;
    int64_t T = R0 - Q * R1;
    R0 = R1;
    R1 = T;
    T = X0 - Q * X1;
    X0 = X1;
    X1 = T;
  }
  X = X0;
  return R0;
}

} // namespace

StridedRange dra::intersect(const StridedRange &A, const StridedRange &B) {
  if (A.isEmpty() || B.isEmpty())
    return StridedRange::empty();

  // Overlap window of the two hulls.
  int64_t Lo = A.Base > B.Base ? A.Base : B.Base;
  int64_t Hi = A.last() < B.last() ? A.last() : B.last();
  if (Lo > Hi)
    return StridedRange::empty();

  int64_t S = int64_t(A.Stride), T = int64_t(B.Stride);
  assert(S >= 1 && T >= 1 && "canonical strided ranges ascend");

  // Solve x === A.Base (mod S), x === B.Base (mod T).
  int64_t Inv = 0;
  int64_t G = extendedGcd(S, T, Inv);
  __int128 Diff = __int128(B.Base) - __int128(A.Base);
  if (Diff % G != 0)
    return StridedRange::empty();
  __int128 Lcm = __int128(S) / G * T;
  // x = A.Base + S * ((Diff / G) * Inv mod (T / G)), the smallest solution
  // at or above A.Base modulo the lcm.
  __int128 M = __int128(T) / G;
  __int128 K = (Diff / G % M) * (__int128(Inv) % M) % M;
  if (K < 0)
    K += M;
  __int128 X0 = __int128(A.Base) + __int128(S) * K;

  // Shift X0 into [Lo, Hi] and count lcm steps.
  if (X0 < Lo)
    X0 += (( __int128(Lo) - X0 + Lcm - 1) / Lcm) * Lcm;
  if (X0 > Hi)
    return StridedRange::empty();
  uint64_t Count = uint64_t((__int128(Hi) - X0) / Lcm) + 1;
  return StridedRange::make(int64_t(X0), int64_t(Lcm), Count);
}

AffineRange dra::rangeOf(const AffineExpr &E,
                         const std::vector<AffineRange> &IvRanges) {
  AffineRange R = AffineRange::point(E.constTerm());
  for (unsigned K = 0, N = E.numCoeffs(); K != N; ++K) {
    int64_t C = E.coeff(K);
    if (C == 0)
      continue;
    assert(K < IvRanges.size() &&
           "expression references an unbound induction variable");
    // scaled() reflects for negative coefficients, so the sum never
    // accumulates an inverted interval.
    R = R + IvRanges[K].scaled(C);
    if (R.isEmpty())
      return AffineRange::empty();
  }
  return R;
}
