//===- ir/PrettyPrinter.cpp - Program pseudo-code printer -----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/PrettyPrinter.h"

#include <cstdio>

using namespace dra;

/// Appends one "[subscript]" of an access.
static void appendSubscript(std::string &Out, const AffineExpr &S) {
  Out += '[';
  Out += S.toString();
  Out += ']';
}

std::string dra::printNest(const Program &P, NestId N) {
  const LoopNest &Nest = P.nest(N);
  std::string Out = "// nest " + std::to_string(N) + ": " + Nest.name() +
                    "  (compute " + std::to_string(Nest.computePerIterMs()) +
                    " ms/iter)\n";
  std::string Indent;
  for (unsigned D = 0; D != Nest.depth(); ++D) {
    const Loop &L = Nest.loops()[D];
    Out += Indent + "for i" + std::to_string(D) + " = " + L.Lower.toString() +
           " ... " + L.Upper.toString() + " - 1\n";
    Indent += "  ";
  }
  for (const ArrayAccess &A : Nest.accesses()) {
    Out += Indent + (A.Kind == AccessKind::Write ? "write " : "read  ") +
           P.array(A.Array).Name;
    for (const AffineExpr &S : A.Subscripts)
      appendSubscript(Out, S);
    Out += "\n";
  }
  return Out;
}

std::string dra::printProgramAsSource(const Program &P) {
  std::string Out = "program " + P.name() + "\n";
  for (const ArrayInfo &A : P.arrays()) {
    Out += "array " + A.Name;
    for (int64_t D : A.DimsInTiles) {
      Out += '[';
      Out += std::to_string(D);
      Out += ']';
    }
    Out += "\n";
  }
  char Buf[64];
  for (const LoopNest &Nest : P.nests()) {
    std::snprintf(Buf, sizeof(Buf), "%g", Nest.computePerIterMs());
    Out += "nest " + Nest.name() + " compute " + Buf + " {\n";
    for (unsigned D = 0; D != Nest.depth(); ++D) {
      const Loop &L = Nest.loops()[D];
      // Source bounds are inclusive; the IR stores half-open upper bounds.
      Out += "  for i" + std::to_string(D) + " = " + L.Lower.toString() +
             " .. " + (L.Upper - 1).toString() + "\n";
    }
    for (const ArrayAccess &A : Nest.accesses()) {
      Out += A.Kind == AccessKind::Write ? "  write " : "  read ";
      Out += P.array(A.Array).Name;
      for (const AffineExpr &S : A.Subscripts)
        appendSubscript(Out, S);
      Out += "\n";
    }
    Out += "}\n";
  }
  return Out;
}

std::string dra::printProgram(const Program &P) {
  std::string Out = "program " + P.name() + "\n";
  for (const ArrayInfo &A : P.arrays()) {
    Out += "array " + A.Name + " : ";
    for (size_t D = 0; D != A.DimsInTiles.size(); ++D) {
      if (D != 0)
        Out += " x ";
      Out += std::to_string(A.DimsInTiles[D]);
    }
    Out += " tiles\n";
  }
  for (const LoopNest &Nest : P.nests())
    Out += printNest(P, Nest.id());
  return Out;
}
