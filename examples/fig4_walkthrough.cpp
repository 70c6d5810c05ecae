//===- examples/fig4_walkthrough.cpp - The paper's Fig. 4, replayed ---------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Replays the worked example of Fig. 4: 13 iterations over 4 disks with
// data dependences, scheduled by the Fig. 3 algorithm. Prints the default
// execution sequence, the dependences, the per-round scheduling decisions,
// and the final restructured sequence (which matches the paper exactly;
// see tests/scheduler_test.cpp).
//
// Run: build/examples/fig4_walkthrough
//
//===----------------------------------------------------------------------===//

#include "analysis/IterationGraph.h"
#include "core/DiskReuseScheduler.h"

#include <cstdio>

using namespace dra;

int main() {
  // Disk of each iteration (paper numbering 1..13 -> index 0..12).
  const unsigned DiskOf[13] = {0, 1, 0, 2, 3, 1, 0, 2, 3, 1, 2, 0, 3};
  // Dependences (paper numbering): 2->9, 6->7, 10->12, 5->11, 11->13.
  const std::pair<GlobalIter, GlobalIter> Deps[] = {
      {1, 8}, {5, 6}, {9, 11}, {4, 10}, {10, 12}};

  std::vector<uint64_t> Mask(13);
  for (int I = 0; I != 13; ++I)
    Mask[I] = uint64_t(1) << DiskOf[I];
  IterationGraph G(13, {Deps, Deps + 5});

  std::printf("== Fig. 4 walkthrough: restructuring with dependences ==\n\n");
  std::printf("Default execution sequence (iteration -> disk):\n  ");
  for (int I = 0; I != 13; ++I)
    std::printf("%d:d%u ", I + 1, DiskOf[I]);
  std::printf("\n\nDependences (must execute in this order):\n");
  for (const auto &[From, To] : Deps)
    std::printf("  iteration %u -> iteration %u\n", From + 1, To + 1);

  unsigned Rounds = 0;
  Schedule S = DiskReuseScheduler::scheduleMasked(Mask, G, 4, &Rounds);

  std::printf("\nRestructured sequence (%u rounds of the Fig. 3 "
              "while-loop):\n  ",
              Rounds);
  for (GlobalIter It : S.Order)
    std::printf("%u:d%u ", It + 1, DiskOf[It]);
  std::printf("\n\n");

  // Annotate the per-disk clusters.
  std::printf("Per-disk clusters in the new order:\n");
  int LastDisk = -1;
  for (GlobalIter It : S.Order) {
    if (int(DiskOf[It]) != LastDisk) {
      LastDisk = int(DiskOf[It]);
      std::printf("\n  disk%d:", LastDisk);
    }
    std::printf(" %u", It + 1);
  }
  std::printf("\n\nAs in the paper: disk0 first takes 1,3 (7, 12 are blocked "
              "by dependences),\nthen disk1 takes 2,6,10, disks 2/3 take "
              "4,8,5,9; the second round completes\n7,12 on disk0 and the "
              "remaining iterations.\n");
  std::printf("\nDependences respected: %s\n",
              G.respectsDependences(S.Order) ? "yes" : "NO (bug!)");
  return 0;
}
