//===- bench/ablation_storage_cache.cpp - caching vs restructuring ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Ablation G: the Sec. 3 related-work axis. Power-aware caching (Zhu et
// al. [29]) lengthens disk idle periods by absorbing re-reads; the
// compiler's restructuring lengthens them by reordering. This bench sweeps
// the storage-cache size under DRPM for FFT and shows (a) caching alone
// helps as the hit rate grows, (b) restructuring helps more, and (c) PA-LRU
// never beats LRU: under T-DRPM-s it costs energy at small caches and ties
// at the largest (EXPERIMENTS.md has the scale-1.0 figures).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace dra;

int main() {
  std::printf("== Ablation G: storage cache vs restructuring (FFT, DRPM, 1 "
              "CPU) ==\n\n");
  Program P = makeFft(benchScale() * 0.5);

  double BaseE = 0.0;
  {
    Pipeline Pipe(P, paperConfig(1));
    BaseE = Pipe.run(Scheme::Base).Sim.EnergyJ;
  }

  TextTable T({"Cache (blocks)", "Policy", "Hit rate", "DRPM energy",
               "T-DRPM-s energy"});
  for (uint64_t Blocks : {uint64_t(0), uint64_t(512), uint64_t(2048),
                          uint64_t(8192)}) {
    for (CachePolicyKind Policy :
         {CachePolicyKind::Lru, CachePolicyKind::PaLru}) {
      if (Blocks == 0 && Policy == CachePolicyKind::PaLru)
        continue; // No cache: one row suffices.
      PipelineConfig Cfg = paperConfig(1);
      Cfg.Cache.Policy =
          Blocks == 0 ? CachePolicyKind::None : Policy;
      Cfg.Cache.CapacityBlocks = Blocks;
      Pipeline Pipe(P, Cfg);
      SchemeRun Drpm = Pipe.run(Scheme::Drpm);
      SchemeRun TDrpm = Pipe.run(Scheme::TDrpmS);
      T.addRow({fmtGrouped(int64_t(Blocks)),
                Blocks == 0         ? "-"
                : Policy == CachePolicyKind::Lru ? "LRU"
                                                 : "PA-LRU",
                fmtPercent(Drpm.Sim.Cache.hitRate()),
                fmtDouble(Drpm.Sim.EnergyJ / BaseE, 4),
                fmtDouble(TDrpm.Sim.EnergyJ / BaseE, 4)});
    }
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Reading: caching alone trims energy (longer idle periods) and "
              "the restructuring\nalone trims more; PA-LRU never beats LRU, "
              "and under T-DRPM-s it costs energy\nuntil the cache is "
              "large.\n");
  return 0;
}
