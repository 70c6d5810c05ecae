//===- core/LoopFusion.cpp - Loop fusion comparison baseline ----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopFusion.h"
#include "ir/ProgramBuilder.h"

#include <cassert>

using namespace dra;

/// True if the two nests have identical loop bands.
static bool sameBands(const LoopNest &A, const LoopNest &B) {
  if (A.depth() != B.depth())
    return false;
  for (unsigned D = 0; D != A.depth(); ++D) {
    if (!(A.loops()[D].Lower == B.loops()[D].Lower) ||
        !(A.loops()[D].Upper == B.loops()[D].Upper))
      return false;
  }
  return true;
}

/// True if every dependence from a nest in \p Group into nest \p C stays
/// lexicographically forward after fusion.
static bool depsStayForward(const IterationSpace &Space,
                            const IterationGraph &Graph,
                            const std::vector<NestId> &Group, NestId C) {
  for (NestId A : Group) {
    for (GlobalIter U = Space.nestBegin(A); U != Space.nestEnd(A); ++U) {
      for (GlobalIter V : Graph.succs(U)) {
        if (Space.nestOf(V) != C)
          continue;
        IterSpan IU = Space.iterOf(U);
        IterSpan IV = Space.iterOf(V);
        // V must not execute before U in the fused nest: require IU <= IV.
        if (lexLess(IV, IU))
          return false;
      }
    }
  }
  return true;
}

bool LoopFusion::canFuse(const Program &P, NestId A, NestId B) {
  assert(B == A + 1 && "fusion operates on adjacent nests");
  if (!sameBands(P.nest(A), P.nest(B)))
    return false;
  IterationSpace Space(P);
  IterationGraph Graph(P, Space);
  return depsStayForward(Space, Graph, {A}, B);
}

Program LoopFusion::fuseAdjacent(
    const Program &P, std::vector<std::vector<NestId>> *FusedGroups) {
  IterationSpace Space(P);
  IterationGraph Graph(P, Space);

  std::vector<std::vector<NestId>> Groups;
  for (const LoopNest &Nest : P.nests()) {
    NestId N = Nest.id();
    if (!Groups.empty()) {
      std::vector<NestId> &G = Groups.back();
      if (sameBands(P.nest(G.front()), Nest) &&
          depsStayForward(Space, Graph, G, N)) {
        G.push_back(N);
        continue;
      }
    }
    Groups.push_back({N});
  }

  Program Out(P.name() + "_fused");
  for (const ArrayInfo &A : P.arrays())
    Out.addArray(A.Name, A.DimsInTiles);

  for (size_t GI = 0; GI != Groups.size(); ++GI) {
    const std::vector<NestId> &G = Groups[GI];
    const LoopNest &First = P.nest(G.front());
    std::string Name = First.name();
    double ComputeMs = 0.0;
    for (NestId N : G)
      ComputeMs += P.nest(N).computePerIterMs();
    if (G.size() > 1)
      Name += "_fused" + std::to_string(G.size());

    LoopNest Fused(NestId(GI), Name);
    Fused.setComputePerIterMs(ComputeMs);
    for (const Loop &L : First.loops())
      Fused.addLoop(L);
    for (NestId N : G)
      for (const ArrayAccess &A : P.nest(N).accesses())
        Fused.addAccess(A);
    Out.addNest(std::move(Fused));
  }

  if (FusedGroups)
    *FusedGroups = std::move(Groups);
  return Out;
}
