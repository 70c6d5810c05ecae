//===- support/IterVec.h - Iteration vectors --------------------*- C++ -*-===//
//
// Part of the DRA project: a reproduction of "A Compiler-Guided Approach for
// Reducing Disk Power Consumption by Exploiting Disk Access Locality"
// (Son, Chen, Kandemir; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines IterVec, the iteration-vector type used throughout the compiler
/// (Sec. 6.1 of the paper), together with lexicographic comparisons used by
/// the dependence machinery.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_ITERVEC_H
#define DRA_SUPPORT_ITERVEC_H

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dra {

/// An iteration vector: one entry per loop in a nest, outermost first.
/// Also used for data dependence distance vectors (Sec. 6.1).
using IterVec = std::vector<int64_t>;

/// A read-only view of an iteration vector, e.g. one row of the flat
/// IterationSpace. An IterVec converts to it implicitly.
using IterSpan = std::span<const int64_t>;

/// Copies a viewed iteration vector into an owning one.
inline IterVec toIterVec(IterSpan V) { return IterVec(V.begin(), V.end()); }

/// Returns true if \p A is lexicographically less than \p B.
/// Both vectors must have the same length.
inline bool lexLess(IterSpan A, IterSpan B) {
  assert(A.size() == B.size() && "comparing iteration vectors of mixed rank");
  for (size_t I = 0, E = A.size(); I != E; ++I) {
    if (A[I] != B[I])
      return A[I] < B[I];
  }
  return false;
}

/// Returns true if \p D is lexicographically positive (greater than the zero
/// vector of the same rank). The zero vector itself is not positive.
inline bool lexPositive(const IterVec &D) {
  for (int64_t V : D) {
    if (V != 0)
      return V > 0;
  }
  return false;
}

/// Returns true if \p D is the all-zero vector.
inline bool isZeroVec(const IterVec &D) {
  for (int64_t V : D)
    if (V != 0)
      return false;
  return true;
}

/// Component-wise difference \p B - \p A (the dependence distance when B
/// depends on A).
inline IterVec vecDiff(IterSpan B, IterSpan A) {
  assert(A.size() == B.size() && "subtracting vectors of mixed rank");
  IterVec R(A.size());
  for (size_t I = 0, E = A.size(); I != E; ++I)
    R[I] = B[I] - A[I];
  return R;
}

/// Renders an iteration vector as "(i0, i1, ...)" for diagnostics.
std::string toString(IterSpan V);

} // namespace dra

#endif // DRA_SUPPORT_ITERVEC_H
