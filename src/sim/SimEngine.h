//===- sim/SimEngine.h - Closed-loop trace replay ---------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-loop discrete-event replay of an I/O trace: each processor
/// alternates compute (think time) and synchronous I/O, so power-mode
/// penalties (TPM spin-ups, DRPM transitions) and queueing shift every
/// subsequent request of that processor — the behaviour a real out-of-core
/// application exhibits. Barrier phases order cross-processor dependent
/// nest groups (a phase-p request starts only after all lower-phase
/// requests completed).
///
/// Metrics follow the paper: "disk I/O time" is the total disk busy time
/// (what DRPM's slower rotation inflates); wall time and per-request
/// response sums are reported alongside (EXPERIMENTS.md discusses the
/// mapping).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_SIMENGINE_H
#define DRA_SIM_SIMENGINE_H

#include "sim/StorageSystem.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace dra {

/// Aggregate results of one simulation run.
struct SimResults {
  double WallTimeMs = 0.0;     ///< End-to-end execution time.
  double IoTimeMs = 0.0;       ///< Total disk busy time (paper's I/O time).
  double EnergyJ = 0.0;        ///< Total disk energy.
  double ResponseSumMs = 0.0;  ///< Sum of request response times.
  uint64_t NumRequests = 0;    ///< Logical requests replayed.
  uint64_t NumFragments = 0;   ///< Per-disk fragments after striping.
  unsigned SpinDowns = 0;
  unsigned SpinUps = 0;
  unsigned RpmSteps = 0;
  CacheStats Cache;
  std::vector<DiskStats> PerDisk;
  /// True when the run kept per-(nest, reference, round) attribution
  /// (PerDisk[*].Attrib); lets the auditor distinguish "attribution off"
  /// from "attribution lost".
  bool AttributionEnabled = false;

  double avgResponseMs() const {
    return NumRequests == 0 ? 0.0 : ResponseSumMs / double(NumRequests);
  }

  /// Sum of the per-disk energy ledgers; totalJ() == EnergyJ to ~1e-9
  /// relative (sim/EnergyLedger.h).
  EnergyLedger totalLedger() const;
};

/// Replays traces against a fresh storage system per run.
class SimEngine {
public:
  /// \param Trace optional event tracer; each run() registers a fresh
  ///        process named \p TraceLabel whose threads are the disks,
  ///        stamped in simulated time (one trace us per simulated us).
  ///        Purely observational: results are identical with and without.
  /// \param Attribution when true the results keep every disk's
  ///        per-(nest, reference, round) entries (sim/Attribution.h). The
  ///        disks record them either way and fold them into the ledgers,
  ///        so all other results are bit-identical with and without.
  /// \param Timeline optional windowed time-series recorder
  ///        (obs/Timeline.h); each run() begins a recorder run labelled
  ///        \p TraceLabel in which every disk writes its own slot of
  ///        power-state/energy windows and the engine the per-phase
  ///        request latency. Purely observational: results are identical
  ///        with and without.
  SimEngine(const DiskLayout &Layout, const DiskParams &Params,
            PowerPolicyKind Policy, CacheConfig Cache = CacheConfig(),
            EventTracer *Trace = nullptr, std::string TraceLabel = "sim",
            bool Attribution = false, TimelineRecorder *Timeline = nullptr)
      : Layout(Layout), Params(Params), Policy(Policy), Cache(Cache),
        Tracer(Trace), TraceLabel(std::move(TraceLabel)),
        Attribution(Attribution), Timeline(Timeline) {}

  /// Runs the closed-loop replay of \p T and returns the results.
  SimResults run(const Trace &T) const;

private:
  const DiskLayout &Layout;
  DiskParams Params;
  PowerPolicyKind Policy;
  CacheConfig Cache;
  EventTracer *Tracer;
  std::string TraceLabel;
  bool Attribution;
  TimelineRecorder *Timeline;
};

} // namespace dra

#endif // DRA_SIM_SIMENGINE_H
