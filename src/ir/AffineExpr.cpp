//===- ir/AffineExpr.cpp - Affine expressions over loop ivars -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/AffineExpr.h"

#include <algorithm>
#include <cassert>

using namespace dra;

AffineExpr AffineExpr::var(unsigned Depth, int64_t Coeff, int64_t C) {
  // A zero coefficient folds to the constant immediately instead of
  // allocating a coefficient vector that trims back to empty.
  if (Coeff == 0)
    return AffineExpr(C);
  AffineExpr E(C);
  E.Coeffs.assign(Depth + 1, 0);
  E.Coeffs[Depth] = Coeff;
  return E;
}

void AffineExpr::trim() {
  while (!Coeffs.empty() && Coeffs.back() == 0)
    Coeffs.pop_back();
}

bool AffineExpr::isConstant() const { return Coeffs.empty(); }

AffineExpr AffineExpr::operator+(const AffineExpr &O) const {
  AffineExpr R(Const + O.Const);
  R.Coeffs.assign(std::max(Coeffs.size(), O.Coeffs.size()), 0);
  for (size_t K = 0; K != Coeffs.size(); ++K)
    R.Coeffs[K] += Coeffs[K];
  for (size_t K = 0; K != O.Coeffs.size(); ++K)
    R.Coeffs[K] += O.Coeffs[K];
  R.trim();
  return R;
}

AffineExpr AffineExpr::operator-(const AffineExpr &O) const {
  return *this + (O * -1);
}

AffineExpr AffineExpr::operator*(int64_t Scale) const {
  // Multiplication by zero constant-folds to the canonical constant 0:
  // no coefficient storage survives, so downstream range propagation sees
  // a constant instead of a vector of zero strides.
  if (Scale == 0)
    return AffineExpr(0);
  AffineExpr R(Const * Scale);
  R.Coeffs = Coeffs;
  for (int64_t &C : R.Coeffs)
    C *= Scale;
  R.trim();
  return R;
}

bool AffineExpr::operator==(const AffineExpr &O) const {
  return Const == O.Const && Coeffs == O.Coeffs;
}

// Magnitude of \p V computed in the unsigned domain, where negating
// INT64_MIN is well-defined.
static uint64_t magnitude(int64_t V) {
  return V < 0 ? 0 - uint64_t(V) : uint64_t(V);
}

std::string AffineExpr::toString() const {
  std::string S;
  for (size_t K = 0; K != Coeffs.size(); ++K) {
    int64_t C = Coeffs[K];
    if (C == 0)
      continue;
    if (!S.empty())
      S += C > 0 ? " + " : " - ";
    else if (C < 0)
      S += "-";
    uint64_t A = magnitude(C);
    if (A != 1)
      S += std::to_string(A) + "*";
    S += 'i';
    S += std::to_string(K);
  }
  if (S.empty())
    return std::to_string(Const);
  if (Const > 0)
    S += " + " + std::to_string(Const);
  else if (Const < 0)
    S += " - " + std::to_string(magnitude(Const));
  return S;
}
