//===- verify/IRVerifier.cpp - Program well-formedness ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/IRVerifier.h"

#include <set>

using namespace dra;

namespace {

const char *PassName = "ir-verifier";

/// Deepest induction variable an affine expression references, or -1 for a
/// constant. Coefficients are stored trimmed, so the last slot is live.
int maxReferencedDepth(const AffineExpr &E) {
  return int(E.numCoeffs()) - 1;
}

} // namespace

bool IRVerifier::verifyArrays() {
  bool Ok = true;
  std::set<std::string> Names;
  for (size_t I = 0; I != Prog.arrays().size(); ++I) {
    const ArrayInfo &A = Prog.arrays()[I];
    if (A.Id != ArrayId(I)) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "array-id-mismatch")
                    .at(loc())
                << "array '" << A.Name << "' at index " << I << " has id "
                << A.Id);
      Ok = false;
    }
    if (!Names.insert(A.Name).second) {
      DE.report(
          Diagnostic(DiagSeverity::Error, PassName, "duplicate-array-name")
              .at(loc())
          << "array name '" << A.Name << "' is not unique");
      Ok = false;
    }
    if (A.DimsInTiles.empty()) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "rankless-array")
                    .at(loc())
                << "array '" << A.Name << "' has no dimensions");
      Ok = false;
    }
    for (int64_t D : A.DimsInTiles) {
      if (D <= 0) {
        DE.report(Diagnostic(DiagSeverity::Error, PassName,
                             "non-positive-array-dim")
                      .at(loc())
                  << "array '" << A.Name << "' has dimension of " << D
                  << " tiles");
        Ok = false;
      }
    }
  }
  return Ok;
}

bool IRVerifier::verifyNest(NestId N) {
  bool Ok = true;
  const LoopNest &Nest = Prog.nest(N);
  unsigned Depth = Nest.depth();

  // Affine bounds may only reference *enclosing* (outer) induction
  // variables: the bound of the loop at depth k sees depths 0..k-1.
  for (unsigned K = 0; K != Depth; ++K) {
    const Loop &L = Nest.loops()[K];
    for (const AffineExpr *B : {&L.Lower, &L.Upper}) {
      int Ref = maxReferencedDepth(*B);
      if (Ref >= int(K)) {
        DE.report(Diagnostic(DiagSeverity::Error, PassName, "bound-depth")
                      .at(loc(N))
                  << "bound '" << B->toString() << "' of loop " << K
                  << " in nest '" << Nest.name()
                  << "' references non-enclosing iv i" << Ref);
        Ok = false;
      }
    }
  }

  for (const ArrayAccess &A : Nest.accesses()) {
    if (A.Array >= Prog.arrays().size()) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "unknown-array")
                    .at(loc(N))
                << "nest '" << Nest.name() << "' accesses unknown array id "
                << A.Array);
      Ok = false;
      continue;
    }
    const ArrayInfo &Arr = Prog.array(A.Array);
    if (A.Subscripts.size() != Arr.DimsInTiles.size()) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "subscript-arity")
                    .at(loc(N))
                << "access to array '" << Arr.Name << "' in nest '"
                << Nest.name() << "' has " << A.Subscripts.size()
                << " subscripts but the array has rank "
                << Arr.DimsInTiles.size());
      Ok = false;
    }
    for (const AffineExpr &S : A.Subscripts) {
      int Ref = maxReferencedDepth(S);
      if (Ref >= int(Depth)) {
        DE.report(Diagnostic(DiagSeverity::Error, PassName, "subscript-depth")
                      .at(loc(N))
                  << "subscript '" << S.toString() << "' of array '"
                  << Arr.Name << "' in nest '" << Nest.name()
                  << "' references iv i" << Ref << " but the nest has depth "
                  << Depth);
        Ok = false;
      }
    }
  }

  if (Nest.computePerIterMs() < 0.0) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "negative-compute")
                  .at(loc(N))
              << "nest '" << Nest.name() << "' has negative compute time "
              << Nest.computePerIterMs() << " ms per iteration");
    Ok = false;
  }

  // Empty iteration spaces are legal but almost always a bug in the input
  // program. Counting stops at the first iteration found.
  if (Ok && Nest.numIterations(/*Limit=*/0) == 0) {
    DE.report(Diagnostic(DiagSeverity::Warning, PassName, "empty-nest")
                  .at(loc(N))
              << "nest '" << Nest.name() << "' has an empty iteration space");
  }
  return Ok;
}

bool IRVerifier::verify() {
  bool Ok = verifyArrays();

  std::set<std::string> NestNames;
  for (size_t I = 0; I != Prog.nests().size(); ++I) {
    const LoopNest &Nest = Prog.nests()[I];
    if (Nest.id() != NestId(I)) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "nest-id-mismatch")
                    .at(loc(int64_t(I)))
                << "nest '" << Nest.name() << "' at index " << I << " has id "
                << Nest.id());
      Ok = false;
    }
    if (!NestNames.insert(Nest.name()).second) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "duplicate-nest-name")
                    .at(loc(int64_t(I)))
                << "nest name '" << Nest.name() << "' is not unique");
      Ok = false;
    }
    Ok &= verifyNest(NestId(I));
  }

  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified")
                  .at(loc())
              << "program '" << Prog.name() << "' is well-formed: "
              << Prog.arrays().size() << " arrays, " << Prog.nests().size()
              << " nests");
  return Ok;
}
