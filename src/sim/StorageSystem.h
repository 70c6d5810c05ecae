//===- sim/StorageSystem.h - Striped multi-disk storage ---------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array of I/O nodes behind the striped layout. Logical requests are
/// split into per-node fragments exactly as the paper's simulator does with
/// its striping information; a request completes when its last fragment
/// completes. When the layout declares DisksPerNode > 1, each node is
/// modeled as a RAID-0 group: its transfer rate and all power/energy
/// figures scale with the group size (the hidden second striping level of
/// Sec. 2).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_STORAGESYSTEM_H
#define DRA_SIM_STORAGESYSTEM_H

#include "layout/DiskLayout.h"
#include "sim/Disk.h"
#include "sim/StorageCache.h"

#include <algorithm>
#include <vector>

namespace dra {

/// The storage front end of both simulator engines (StorageSystem and the
/// sharded coordinator): splits a logical request into per-disk fragments
/// and passes each through the optional storage cache at stripe-unit
/// granularity. A fragment goes to disk unless every block it covers hits.
class StorageFrontEnd {
public:
  /// \param BusyUntilMs the engine's busy-until time of a disk. PA-LRU
  ///        calls a disk cold once it has idled for powerDecisionMs of
  ///        \p Params under \p Policy.
  StorageFrontEnd(const DiskLayout &Layout, CacheConfig Cache,
                  const DiskParams &Params, PowerPolicyKind Policy,
                  std::function<double(unsigned)> BusyUntilMs);
  StorageFrontEnd(const StorageFrontEnd &) = delete;
  StorageFrontEnd &operator=(const StorageFrontEnd &) = delete;

  /// Submits a logical request arriving at \p ArrivalMs. \p OnMiss(const
  /// SubRequest &) services each fragment the cache cannot and returns its
  /// completion. Returns the completion time of the last fragment.
  template <typename MissFn>
  double submit(double ArrivalMs, uint64_t GlobalOffset, uint64_t Bytes,
                bool IsWrite, MissFn &&OnMiss) {
    NowMs = ArrivalMs;
    double Completion = ArrivalMs;
    uint64_t Unit = Layout.config().StripeUnitBytes;
    Layout.splitRequestInto(GlobalOffset, Bytes, Split);
    for (const SubRequest &Sub : Split) {
      if (!Cache.enabled()) {
        Completion = std::max(Completion, OnMiss(Sub));
        continue;
      }
      bool AllHit = true;
      for (uint64_t B = Sub.DiskByteOffset / Unit;
           B <= (Sub.DiskByteOffset + Sub.Bytes - 1) / Unit; ++B) {
        if (IsWrite) {
          Cache.write(Sub.Disk, B);
          AllHit = false; // Write-through: the disk is always updated.
        } else if (!Cache.read(Sub.Disk, B)) {
          AllHit = false;
        }
      }
      double C = AllHit ? ArrivalMs + Cache.config().HitServiceMs
                        : OnMiss(Sub);
      Completion = std::max(Completion, C);
    }
    return Completion;
  }

  const CacheStats &cacheStats() const { return Cache.stats(); }

private:
  const DiskLayout &Layout;
  StorageCache Cache;
  double NowMs = 0.0; ///< Arrival time of the in-flight submit (for PA-LRU).
  /// Reused fragment buffer for splitRequestInto: replay submits millions
  /// of requests, so the per-request split must not allocate.
  std::vector<SubRequest> Split;
};

/// All I/O nodes of the machine behind the storage front end (request
/// splitting and the optional storage cache).
class StorageSystem {
public:
  /// \param Trace optional event tracer: every disk gets a named thread
  ///        track under process \p TracePid (see Disk).
  /// \param Run optional timeline run (obs/Timeline.h) with one slot per
  ///        disk; disk D records into Run->Disks[D].
  StorageSystem(const DiskLayout &Layout, const DiskParams &Params,
                PowerPolicyKind Policy, CacheConfig Cache = CacheConfig(),
                EventTracer *Trace = nullptr, uint64_t TracePid = 0,
                RunTimeline *Run = nullptr);

  /// Submits a logical request; returns the completion time of its last
  /// fragment. Every fragment inherits the request's provenance \p Prov.
  double submit(double ArrivalMs, uint64_t GlobalOffset, uint64_t Bytes,
                bool IsWrite, Provenance Prov = Provenance());

  /// Finalizes every disk at \p EndMs.
  void finalize(double EndMs);

  unsigned numDisks() const { return unsigned(Disks.size()); }
  const Disk &disk(unsigned D) const { return Disks[D]; }
  /// Moves disk \p D's stats out (Disk::takeStats) after finalize().
  DiskStats takeStats(unsigned D) { return Disks[D].takeStats(); }
  const CacheStats &cacheStats() const { return Front.cacheStats(); }

  /// Scales per-disk parameters to model a DisksPerNode-way RAID-0 node.
  static DiskParams scaleForNode(DiskParams P, unsigned DisksPerNode);

private:
  std::vector<Disk> Disks;
  StorageFrontEnd Front;
};

} // namespace dra

#endif // DRA_SIM_STORAGESYSTEM_H
