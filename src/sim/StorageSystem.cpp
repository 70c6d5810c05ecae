//===- sim/StorageSystem.cpp - Striped multi-disk storage ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/StorageSystem.h"

#include <algorithm>
#include <cassert>

using namespace dra;

DiskParams StorageSystem::scaleForNode(DiskParams P, unsigned DisksPerNode) {
  assert(DisksPerNode >= 1 && "node needs at least one disk");
  if (DisksPerNode == 1)
    return P;
  double K = double(DisksPerNode);
  P.TransferMBPerSecAtMax *= K; // RAID-0 media-parallel transfer.
  P.ActivePowerW *= K;
  P.IdlePowerW *= K;
  P.StandbyPowerW *= K;
  P.SpinDownJ *= K;
  P.SpinUpJ *= K;
  P.IdlePowerAtMinW *= K;
  P.ActivePowerAtMinW *= K;
  return P;
}

StorageFrontEnd::StorageFrontEnd(const DiskLayout &Layout, CacheConfig Cache,
                                 const DiskParams &Params,
                                 PowerPolicyKind Policy,
                                 std::function<double(unsigned)> BusyUntilMs)
    : Layout(Layout),
      Cache(Cache, [this, ColdMs = powerDecisionMs(Params, Policy),
                    BusyUntilMs = std::move(BusyUntilMs)](unsigned D) {
        double IdleMs = NowMs - BusyUntilMs(D);
        return IdleMs > 0 && IdleMs >= ColdMs;
      }) {}

StorageSystem::StorageSystem(const DiskLayout &Layout, const DiskParams &Params,
                             PowerPolicyKind Policy, CacheConfig Cache,
                             EventTracer *Trace, uint64_t TracePid,
                             RunTimeline *Run)
    : Front(Layout, Cache, Params, Policy,
            [this](unsigned D) { return Disks[D].busyUntilMs(); }) {
  DiskParams NodeParams = scaleForNode(Params, Layout.config().DisksPerNode);
  Disks.reserve(Layout.numDisks());
  for (unsigned D = 0; D != Layout.numDisks(); ++D) {
    Disks.emplace_back(D, NodeParams, Policy, Trace, TracePid,
                       Run ? &Run->Disks[D] : nullptr);
    if (Trace)
      Trace->nameThread(TracePid, D + 1, "disk " + std::to_string(D));
  }
}

double StorageSystem::submit(double ArrivalMs, uint64_t GlobalOffset,
                             uint64_t Bytes, bool IsWrite, Provenance Prov) {
  return Front.submit(ArrivalMs, GlobalOffset, Bytes, IsWrite,
                      [&](const SubRequest &Sub) {
                        return Disks[Sub.Disk].submit(
                            ArrivalMs, Sub.DiskByteOffset, Sub.Bytes, IsWrite,
                            Prov);
                      });
}

void StorageSystem::finalize(double EndMs) {
  for (Disk &D : Disks)
    D.finalize(EndMs);
}
