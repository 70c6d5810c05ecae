//===- sim/ShardedSimEngine.h - Sharded trace replay ------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded discrete-event simulator (DESIGN.md Sec. 11): the simulation
/// is partitioned by disk, so each shard owns its disks' replay state —
/// power-policy state (TPM/DRPM), energy ledgers, attribution maps and
/// their slots of the run's timeline, each with one writer — while
/// processor think/compute state lives on a coordinator that advances
/// simulated time in conservative windows.
///
/// The coordinator runs the shared closed loop (sim/ReplayCore.h) through
/// the shared StorageFrontEnd against bare per-disk DiskTimingModels — the
/// same model every Disk owns, with nothing charged — computing every
/// fragment's completion ahead of the shards; the per-disk accounting
/// (ledger categories, attribution map walks, gap analytics, timeline
/// windows) is replayed concurrently by a bounded std::jthread pool, one
/// worker per shard, fed per-destination CompletionBatches delivered at
/// window edges in deterministic (time, proc, seq) order. Each shard
/// cross-checks every replayed completion against the coordinator's
/// expected value bit-for-bit, which catches a batch delivered to the
/// wrong disk or out of order.
///
/// Results are byte-identical to the serial SimEngine for any shard count
/// and any legal window (tests/sharded_sim_test.cpp, bench/sharded_sim):
/// same SimResults (per-disk sums accumulated in disk order), same
/// ledgers, same attribution, same timeline JSON. The one telemetry
/// exception: per-disk Chrome-trace spans are not emitted under sharding
/// (cross-shard tracer interleaving has no deterministic order); an
/// attached EventTracer receives the engine-level replay span only.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_SHARDEDSIMENGINE_H
#define DRA_SIM_SHARDEDSIMENGINE_H

#include "sim/SimEngine.h"

namespace dra {

/// Drop-in SimEngine replacement that replays on \p NumShards shard
/// workers. Construction validates the window width against the policy
/// (sim/ShardRouter.h) and throws std::invalid_argument on an illegal
/// config.
class ShardedSimEngine {
public:
  /// \param NumShards shard (worker thread) count; clamped to the disk
  ///        count at run time. Must be >= 1.
  /// \param WindowMs conservative window width in simulated ms; 0 picks
  ///        the policy's maximum legal window. Must not exceed the
  ///        policy's break-even gap (checked here, at config time).
  /// Remaining parameters are as for SimEngine.
  ShardedSimEngine(const DiskLayout &Layout, const DiskParams &Params,
                   PowerPolicyKind Policy, unsigned NumShards,
                   double WindowMs = 0.0, CacheConfig Cache = CacheConfig(),
                   EventTracer *Trace = nullptr, std::string TraceLabel = "sim",
                   bool Attribution = false,
                   TimelineRecorder *Timeline = nullptr);

  /// Runs the sharded replay of \p T; byte-identical to SimEngine::run.
  SimResults run(const Trace &T) const;

private:
  const DiskLayout &Layout;
  DiskParams Params;
  PowerPolicyKind Policy;
  unsigned NumShards;
  double WindowMs;
  CacheConfig Cache;
  EventTracer *Tracer;
  std::string TraceLabel;
  bool Attribution;
  TimelineRecorder *Timeline;
};

} // namespace dra

#endif // DRA_SIM_SHARDEDSIMENGINE_H
