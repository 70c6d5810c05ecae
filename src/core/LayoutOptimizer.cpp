//===- core/LayoutOptimizer.cpp - Unified layout + code optimizer -----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LayoutOptimizer.h"
#include "analysis/IterationGraph.h"
#include "core/DiskReuseScheduler.h"

#include <cassert>

using namespace dra;

double LayoutOptimizer::predictEnergy(const Program &P,
                                      const IterationSpace &Space,
                                      const DiskLayout &Layout,
                                      const DiskParams &Disk,
                                      PowerPolicyKind Policy,
                                      const TileAccessTable &Table,
                                      const IterationGraph &Graph) {
  // Restructure under this layout (the unified part: layout changes feed
  // back into the code transformation), then predict analytically.
  Schedule S = DiskReuseScheduler(Table, Layout).schedule(Graph);
  EnergyEstimator Est(P, Space, Layout, Disk, Policy, Table);
  return Est.estimate(S).EnergyJ;
}

LayoutChoice LayoutOptimizer::optimize(const Program &P,
                                       const StripingConfig &Base,
                                       const DiskParams &Disk,
                                       const Options &Opts) {
  IterationSpace Space(P);

  DiskParams Pred = Disk;
  if (Opts.ProactiveHints) {
    Pred.TpmProactiveHints = Opts.Policy == PowerPolicyKind::Tpm;
    Pred.DrpmProactiveHints = Opts.Policy == PowerPolicyKind::Drpm;
  }

  // Shared across every candidate: accesses and dependences are properties
  // of the program, not of the layout under evaluation.
  TileAccessTable Table(P, Space);
  IterationGraph Graph(Table);

  LayoutChoice Best;
  Best.Config = Base;
  Best.ArrayStartDisks.assign(P.arrays().size(), Base.StartDisk);
  {
    DiskLayout Default(P, Base);
    Best.DefaultEnergyJ =
        predictEnergy(P, Space, Default, Pred, Opts.Policy, Table, Graph);
    Best.PredictedEnergyJ = Best.DefaultEnergyJ;
    Best.CandidatesTried = 1;
  }

  std::vector<unsigned> Factors{Base.StripeFactor};
  for (unsigned F : Opts.CandidateStripeFactors)
    if (F != Base.StripeFactor)
      Factors.push_back(F);

  for (unsigned Factor : Factors) {
    StripingConfig C = Base;
    C.StripeFactor = Factor;
    assert(C.StartDisk < Factor && "base start disk beyond stripe factor");
    std::vector<unsigned> Starts(P.arrays().size(), C.StartDisk);

    auto Evaluate = [&](const std::vector<unsigned> &Cand) {
      DiskLayout L(P, C);
      for (ArrayId A = 0; A != Cand.size(); ++A)
        L.setArrayStartDisk(A, Cand[A]);
      ++Best.CandidatesTried;
      return predictEnergy(P, Space, L, Pred, Opts.Policy, Table, Graph);
    };

    double Cur = Evaluate(Starts);
    if (Opts.TuneStartDisks) {
      // Coordinate descent: one pass over the arrays, each trying every
      // starting iodevice. A single pass suffices in practice because the
      // objective decomposes almost additively over arrays.
      for (ArrayId A = 0; A != P.arrays().size(); ++A) {
        unsigned BestStart = Starts[A];
        for (unsigned SD = 0; SD != Factor; ++SD) {
          if (SD == Starts[A])
            continue;
          std::vector<unsigned> Cand = Starts;
          Cand[A] = SD;
          double E = Evaluate(Cand);
          if (E < Cur) {
            Cur = E;
            BestStart = SD;
          }
        }
        Starts[A] = BestStart;
      }
    }
    if (Cur < Best.PredictedEnergyJ) {
      Best.PredictedEnergyJ = Cur;
      Best.Config = C;
      Best.ArrayStartDisks = Starts;
    }
  }
  return Best;
}
