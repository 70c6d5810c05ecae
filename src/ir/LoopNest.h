//===- ir/LoopNest.h - Affine loop nests ------------------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A LoopNest is the unit of code the paper's compiler manipulates: a
/// perfectly nested band of loops with affine bounds whose body performs a
/// set of affine array accesses (reads/writes of disk-resident array tiles)
/// plus a fixed amount of computation.
///
/// Iterations are expressed at *tile granularity*: one iteration touches one
/// tile (stripe-unit-sized region) per array reference. See DESIGN.md Sec. 4.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_LOOPNEST_H
#define DRA_IR_LOOPNEST_H

#include "ir/AffineExpr.h"
#include "support/IterVec.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dra {

using ArrayId = unsigned;
using NestId = unsigned;

/// Whether an array access reads or writes its tile.
enum class AccessKind { Read, Write };

/// One affine array reference in a loop-nest body, e.g. U1[i0+2][i1-3].
struct ArrayAccess {
  ArrayId Array = 0;
  AccessKind Kind = AccessKind::Read;
  /// One affine subscript per array dimension, in tile coordinates.
  std::vector<AffineExpr> Subscripts;
};

/// One loop of a nest: iterates Iv from Lower to Upper-1 (half-open). Bounds
/// may reference outer induction variables (triangular nests).
struct Loop {
  AffineExpr Lower;
  AffineExpr Upper;
};

/// A perfectly nested affine loop band with a body of array accesses.
class LoopNest {
public:
  LoopNest(NestId Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  NestId id() const { return Id; }
  const std::string &name() const { return Name; }

  void addLoop(Loop L) { Loops.push_back(std::move(L)); }
  void addAccess(ArrayAccess A) { Accesses.push_back(std::move(A)); }
  void setComputePerIterMs(double Ms) { ComputePerIterMs = Ms; }

  unsigned depth() const { return unsigned(Loops.size()); }
  const std::vector<Loop> &loops() const { return Loops; }
  const std::vector<ArrayAccess> &accesses() const { return Accesses; }

  /// Compute (think) time attributed to one iteration, in milliseconds.
  /// Stands in for the paper's SUN Blade1000 cycle estimates (Sec. 7.1).
  double computePerIterMs() const { return ComputePerIterMs; }

  /// Invokes \p Fn for every iteration vector in original program order
  /// (row-major over the band, respecting affine bounds). Iterations with an
  /// empty range at any depth are skipped.
  void forEachIteration(const std::function<void(const IterVec &)> &Fn) const;

  /// Total number of iterations. The outer loops are enumerated and the
  /// innermost loop adds its trip count in closed form, so a long
  /// innermost loop costs nothing; a count past UINT64_MAX saturates.
  uint64_t numIterations() const;

  /// Evaluates the tile coordinate accessed by \p Access at \p Iter into
  /// \p Coord, reusing its storage, so a loop over many iterations
  /// allocates once.
  static void evalSubscriptsInto(const ArrayAccess &Access, IterSpan Iter,
                                 std::vector<int64_t> &Coord);

private:
  NestId Id;
  std::string Name;
  std::vector<Loop> Loops;
  std::vector<ArrayAccess> Accesses;
  double ComputePerIterMs = 1.0;

  void enumerate(IterVec &Iter, unsigned Depth,
                 const std::function<void(const IterVec &)> &Fn) const;
};

} // namespace dra

#endif // DRA_IR_LOOPNEST_H
