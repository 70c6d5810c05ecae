//===- ir/AffineExpr.h - Affine expressions over loop ivars -----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AffineExpr models integer-affine expressions over the induction variables
/// of an enclosing loop nest: C0 + sum_k Coeff[k] * iv[k]. These are the
/// only expressions the paper's compiler reasons about (regular array-based
/// scientific codes), appearing as loop bounds and array subscripts.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_AFFINEEXPR_H
#define DRA_IR_AFFINEEXPR_H

#include "support/IterVec.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace dra {

/// An affine expression over loop induction variables.
///
/// Coefficient k multiplies the induction variable of the loop at depth k
/// (outermost = depth 0). The coefficient vector is stored sparsely short:
/// depths beyond Coeffs.size() have coefficient zero.
class AffineExpr {
public:
  /// Constructs the constant expression \p C.
  AffineExpr(int64_t C = 0) : Const(C) {}

  /// Returns the expression `Coeff * iv[Depth] + C`.
  static AffineExpr var(unsigned Depth, int64_t Coeff = 1, int64_t C = 0);

  /// Returns the constant expression \p C.
  static AffineExpr constant(int64_t C) { return AffineExpr(C); }

  int64_t constTerm() const { return Const; }

  /// Coefficient of the induction variable at \p Depth (0 if untracked).
  int64_t coeff(unsigned Depth) const {
    return Depth < Coeffs.size() ? Coeffs[Depth] : 0;
  }

  /// Number of tracked coefficient slots (trailing zeros trimmed).
  unsigned numCoeffs() const { return unsigned(Coeffs.size()); }

  /// True if the expression has no induction-variable dependence.
  bool isConstant() const;

  /// Evaluates the expression for a concrete iteration vector. The vector
  /// must bind every depth the expression references. Defined here so the
  /// walks over a program's subscripts inline it.
  int64_t evaluate(IterSpan Iter) const {
    assert(Coeffs.size() <= Iter.size() &&
           "expression references an unbound induction variable");
    int64_t V = Const;
    for (size_t K = 0, E = Coeffs.size(); K != E; ++K)
      V += Coeffs[K] * Iter[K];
    return V;
  }

  AffineExpr operator+(const AffineExpr &O) const;
  AffineExpr operator-(const AffineExpr &O) const;
  AffineExpr operator*(int64_t Scale) const;
  AffineExpr operator+(int64_t C) const { return *this + AffineExpr(C); }
  AffineExpr operator-(int64_t C) const { return *this - AffineExpr(C); }

  bool operator==(const AffineExpr &O) const;

  /// Renders e.g. "2*i0 + i2 - 3" using ivar names i0, i1, ...
  std::string toString() const;

private:
  std::vector<int64_t> Coeffs;
  int64_t Const = 0;

  void trim();
};

/// Shorthand for AffineExpr::var(Depth) used by program builders.
inline AffineExpr iv(unsigned Depth) { return AffineExpr::var(Depth); }

} // namespace dra

#endif // DRA_IR_AFFINEEXPR_H
