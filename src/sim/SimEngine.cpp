//===- sim/SimEngine.cpp - Closed-loop trace replay -------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/SimEngine.h"

#include "sim/ReplayCore.h"


using namespace dra;

SimResults SimEngine::run(const Trace &T) const {
  // Each run gets its own trace process so back-to-back schemes (Base,
  // TPM, ...) land on separate simulated-time timelines.
  uint64_t TracePid = Tracer ? Tracer->addProcess(TraceLabel) : 0;
  RunTimeline *Run =
      Timeline ? &Timeline->beginRun(TraceLabel, Layout.numDisks()) : nullptr;
  StorageSystem Storage(Layout, Params, Policy, Cache, Tracer, TracePid, Run);

  // The closed-loop processor model and the result assembly live in
  // sim/ReplayCore.h, shared with the sharded engine; the serial oracle's
  // submit is the full storage system (disks with energy accounting,
  // attribution, telemetry).
  SimResults Res = replayAndAssemble(
      T,
      [&](double IssueMs, const Request &R) {
        return Storage.submit(IssueMs, T.byteOffset(R), R.SizeBytes, R.IsWrite,
                              R.Prov);
      },
      [&](double WallMs) { Storage.finalize(WallMs); }, Storage.numDisks(),
      [&](unsigned D) { return Storage.takeStats(D); }, Attribution,
      Timeline, Tracer, TracePid);
  Res.Cache = Storage.cacheStats();
  return Res;
}

EnergyLedger SimResults::totalLedger() const {
  EnergyLedger L;
  for (const DiskStats &S : PerDisk)
    L += S.Ledger;
  return L;
}
