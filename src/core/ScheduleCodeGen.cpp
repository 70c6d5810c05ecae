//===- core/ScheduleCodeGen.cpp - Regenerating loop code --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleCodeGen.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace dra;

/// If \p To is reachable from \p From by advancing exactly one induction
/// variable, returns (depth, stride); otherwise returns false.
static bool singleVarStep(IterSpan From, IterSpan To,
                          unsigned &Depth, int64_t &Stride) {
  if (From.size() != To.size())
    return false;
  bool Found = false;
  for (unsigned D = 0; D != From.size(); ++D) {
    if (From[D] == To[D])
      continue;
    if (Found)
      return false;
    Found = true;
    Depth = D;
    Stride = To[D] - From[D];
  }
  return Found;
}

std::vector<LoopBand> ScheduleCodeGen::rollBands(const Schedule &S) const {
  std::vector<LoopBand> Bands;
  size_t I = 0, E = S.Order.size();
  while (I != E) {
    GlobalIter G = S.Order[I];
    LoopBand Band;
    Band.Nest = Space.nestOf(G);
    Band.Start = toIterVec(Space.iterOf(G));
    Band.Count = 1;
    // Try to open a run with the next iteration.
    unsigned Depth = 0;
    int64_t Stride = 0;
    size_t J = I + 1;
    if (J != E && Space.nestOf(S.Order[J]) == Band.Nest &&
        singleVarStep(Band.Start, Space.iterOf(S.Order[J]), Depth, Stride)) {
      Band.VaryDepth = Depth;
      Band.Stride = Stride;
      Band.Count = 2;
      IterSpan Prev = Space.iterOf(S.Order[J]);
      ++J;
      while (J != E && Space.nestOf(S.Order[J]) == Band.Nest) {
        unsigned D2 = 0;
        int64_t S2 = 0;
        if (!singleVarStep(Prev, Space.iterOf(S.Order[J]), D2, S2) ||
            D2 != Depth || S2 != Stride)
          break;
        Prev = Space.iterOf(S.Order[J]);
        ++Band.Count;
        ++J;
      }
    }
    Bands.push_back(std::move(Band));
    I += Band.Count;
  }
  return Bands;
}

std::string
ScheduleCodeGen::printBands(const std::vector<LoopBand> &Bands) const {
  std::string Out;
  for (const LoopBand &B : Bands) {
    const LoopNest &Nest = Prog.nest(B.Nest);
    Out += "exec " + Nest.name() + " ";
    if (B.Count == 1) {
      Out += toString(B.Start) + "\n";
      continue;
    }
    Out += "for i" + std::to_string(B.VaryDepth) + " = " +
           std::to_string(B.Start[B.VaryDepth]) + " step " +
           std::to_string(B.Stride) + " count " + std::to_string(B.Count) +
           " at " + toString(B.Start) + "\n";
  }
  return Out;
}

int64_t ScheduleCodeGen::lookup(NestId N, const IterVec &Iter) const {
  // Iterations of a nest are stored in lexicographic order; binary search.
  GlobalIter Lo = Space.nestBegin(N), Hi = Space.nestEnd(N);
  while (Lo != Hi) {
    GlobalIter Mid = Lo + (Hi - Lo) / 2;
    if (lexLess(Space.iterOf(Mid), Iter))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  if (Lo == Space.nestEnd(N) || !std::ranges::equal(Space.iterOf(Lo), Iter))
    return -1;
  return int64_t(Lo);
}

std::vector<GlobalIter>
ScheduleCodeGen::expandBands(const std::vector<LoopBand> &Bands) const {
  std::vector<GlobalIter> Order;
  for (const LoopBand &B : Bands) {
    IterVec Iter = B.Start;
    for (uint64_t K = 0; K != B.Count; ++K) {
      int64_t G = lookup(B.Nest, Iter);
      assert(G >= 0 && "band enumerates an iteration outside the nest");
      Order.push_back(GlobalIter(G));
      Iter[B.VaryDepth] += B.Stride;
    }
  }
  return Order;
}
