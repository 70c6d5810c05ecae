//===- core/LayoutOptimizer.cpp - Unified layout + code optimizer -----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LayoutOptimizer.h"

#include <cassert>

using namespace dra;

LayoutChoice LayoutOptimizer::optimize(const Program &P,
                                       const PipelineConfig &Base, Scheme S,
                                       const Options &Opts) {
  // Scoring runs are not part of the caller's observed run.
  PipelineConfig Cfg = Base;
  Cfg.Trace = nullptr;
  Cfg.Metrics = nullptr;
  Cfg.Timeline = nullptr;

  LayoutChoice Best;
  auto Evaluate = [&](unsigned Factor, const std::vector<unsigned> &Starts) {
    Cfg.Striping.StripeFactor = Factor;
    Cfg.ArrayStartDisks = Starts;
    ++Best.CandidatesTried;
    return Pipeline(P, Cfg).run(S).Sim.EnergyJ;
  };

  const StripingConfig &C = Base.Striping;
  Best.Config = C;
  Best.ArrayStartDisks.assign(P.arrays().size(), C.StartDisk);
  Best.DefaultEnergyJ = Evaluate(C.StripeFactor, Best.ArrayStartDisks);
  Best.ChosenEnergyJ = Best.DefaultEnergyJ;

  std::vector<unsigned> Factors{C.StripeFactor};
  for (unsigned F : Opts.CandidateStripeFactors)
    if (F != C.StripeFactor)
      Factors.push_back(F);

  for (unsigned Factor : Factors) {
    assert(C.StartDisk < Factor && "base start disk beyond stripe factor");
    std::vector<unsigned> Starts(P.arrays().size(), C.StartDisk);
    // The base factor's all-default candidate is the default layout.
    double Cur = Factor == C.StripeFactor ? Best.DefaultEnergyJ
                                          : Evaluate(Factor, Starts);
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
          double E = Evaluate(Factor, Cand);
          if (E < Cur) {
            Cur = E;
            BestStart = SD;
          }
        }
        Starts[A] = BestStart;
      }
    }
    if (Cur < Best.ChosenEnergyJ) {
      Best.ChosenEnergyJ = Cur;
      Best.Config = C;
      Best.Config.StripeFactor = Factor;
      Best.ArrayStartDisks = Starts;
    }
  }
  return Best;
}
