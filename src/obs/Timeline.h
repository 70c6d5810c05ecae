//===- obs/Timeline.h - Simulated-time windowed series ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A windowed time-series recorder keyed by *simulated* time
/// (docs/OBSERVABILITY.md "Time series & SLOs"). Every aggregate the
/// framework reports — energy ledger categories, idle/busy times, request
/// counts — is also bucketed here into fixed-width simulated-time windows,
/// so the temporal phenomena the paper is about (spin-downs, RPM steps,
/// break-even misses) become visible as series instead of end-of-run sums.
///
/// Contracts (tests/timeline_test.cpp):
///  * Closure: per-disk sums over all windows reproduce the end-of-run
///    aggregates — state occupancy sums equal DiskStats BusyMs/IdleMsTotal
///    (and all states together tile [0, EndMs] exactly), per-category
///    energy sums equal the EnergyLedger categories.
///  * Observational: the recorder is an optional sink; every existing
///    export is byte-identical with and without it attached.
///  * Deterministic: bucketing is a pure function of simulated time, so
///    timeline JSON is byte-identical across sweep worker counts.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OBS_TIMELINE_H
#define DRA_OBS_TIMELINE_H

#include "sim/IdleOutcome.h"
#include "support/Statistics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dra {

/// What a disk spends window time on. Service/Stall/Ramp partition the
/// busy side; the five in-gap states partition DiskStats::IdleMsTotal.
enum TimelineState : unsigned {
  TlService = 0, ///< Request service (DiskStats::BusyMs).
  TlIdle,        ///< Idle dwell at full speed.
  TlIdleLow,     ///< Idle dwell at a reduced DRPM speed.
  TlSpinDown,    ///< TPM spin-down in progress.
  TlStandby,     ///< TPM standby residency.
  TlSpinUp,      ///< Compiler-hidden spin-up inside a gap tail.
  TlRpmStep,     ///< DRPM speed transition inside a gap.
  TlStall,       ///< Post-gap ready wait (spin-up or mid-step stall).
  TlRamp,        ///< Post-service emergency ramp (DRPM controller).
  NumTimelineStates
};

/// Energy split per window; mirrors sim/EnergyLedger.h with idle collapsed
/// over RPM levels. Per-category sums over all windows equal the ledger.
enum TimelineEnergyCat : unsigned {
  TlEActiveRead = 0,
  TlEActiveWrite,
  TlEIdle,
  TlESpinDown,
  TlESpinUp,
  TlEStandby,
  TlERpmStep,
  TlEReadyPenalty,
  NumTimelineEnergyCats
};

/// Schema name of state \p S ("service", "idle", ...).
const char *timelineStateName(unsigned S);
/// Schema name of energy category \p C ("active_read", ...).
const char *timelineEnergyName(unsigned C);

/// One fixed-width simulated-time window of one disk. Windows are sparse:
/// only windows something happened in exist.
struct TimelineWindow {
  uint64_t Index = 0; ///< Window start = Index * WindowMs.
  double StateMs[NumTimelineStates] = {};
  double EnergyJ[NumTimelineEnergyCats] = {};
  uint64_t Requests = 0; ///< Fragments whose service started here.
  uint64_t Bytes = 0;
  /// Integral of the number of waiting requests over the window, in ms
  /// (divide by the window width for the mean queue depth).
  double QueueMs = 0.0;
};

/// One idle gap as a time-stamped event (satellite of IdleGapAnalyzer:
/// the analyzer's percentiles summarize, these locate). BelowBreakEven
/// gaps with MissedJ > 0 are the dashboard's missed-opportunity markers.
struct TimelineGapEvent {
  double StartMs = 0.0;
  double Ms = 0.0;
  unsigned EndRpm = 0;
  bool BelowBreakEven = false;
  /// Full-speed idle joules inside a sub-break-even gap (the paper's
  /// missed opportunity); 0 for gaps at or above break-even.
  double MissedJ = 0.0;
  unsigned SpinDowns = 0;
  unsigned SpinUps = 0;
  unsigned RpmSteps = 0;
};

/// All series of one disk within one run. The disk that owns this slot
/// (sim/Disk.h) is its only writer, through the hooks below, in both
/// simulator engines.
struct DiskTimeline {
  std::vector<TimelineWindow> Windows; ///< Ascending Index, sparse.
  std::vector<TimelineGapEvent> Gaps;  ///< In gap start order.
  /// Window width in simulated ms, set by TimelineRecorder::beginRun.
  double WindowMs = 1000.0;

  // Disk-side hooks. Spans crossing window edges are split proportionally,
  // with the residual assigned to the last window so the parts always sum
  // exactly to the whole span.

  /// One serviced fragment: service span + throughput counters.
  void recordService(double StartMs, double Ms, double Joules, bool IsWrite,
                     uint64_t Bytes);
  /// One evaluated idle gap: its segments become state/energy spans (idle
  /// at \p MaxRpm is TlIdle, below it TlIdleLow), the post-gap stall (if
  /// any) a TlStall span, and the gap itself a time-stamped
  /// TimelineGapEvent carrying the disk's break-even classification
  /// \p BelowBreakEven and missed-opportunity joules \p MissedJ.
  void recordGap(double StartMs, double GapMs, const IdleOutcome &O,
                 unsigned MaxRpm, bool BelowBreakEven, double MissedJ);
  /// Post-service emergency DRPM ramp (occupies the disk, RpmStep energy).
  void recordRamp(double StartMs, double Ms, double Joules);
  /// One fragment's wait between arrival and service start (queue-depth
  /// integral; zero-length waits contribute nothing).
  void recordQueueWait(double ArrivalMs, double ServiceStartMs);

private:
  /// The window containing Index, created on demand. Spans are recorded in
  /// near-sorted order, so the scan from the back is O(1) amortized.
  TimelineWindow &windowAt(uint64_t Index);
  /// Spreads a span over windows: \p Ms of \p State and \p Joules of
  /// \p Cat starting at \p StartMs. Zero-length spans charge their energy
  /// to the window containing StartMs.
  void addSpan(unsigned State, unsigned Cat, double StartMs, double Ms,
               double Joules);
};

/// Per-barrier-phase request latency (issue -> completion). In the online
/// serving mode phases are ticks, so this doubles as the per-tick
/// completion-latency series (docs/SERVING.md).
struct PhaseLatency {
  uint64_t Requests = 0;
  double SumMs = 0.0;
  double MaxMs = 0.0;
  /// Latency distribution in seconds (finer buckets than the idle
  /// histogram: latencies cluster tightly).
  DurationHistogram Hist{1e-4, 2.0, 24};

  double meanMs() const {
    return Requests == 0 ? 0.0 : SumMs / double(Requests);
  }
  double percentileMs(double Q) const { return Hist.percentile(Q) * 1000.0; }
};

/// One simulation run's timeline (one scheme / one trace replay).
struct RunTimeline {
  std::string Label; ///< The SimEngine trace label, e.g. "sim TPM".
  double EndMs = 0.0;
  std::vector<DiskTimeline> Disks;
  std::vector<PhaseLatency> Phases;
};

/// The recorder. Attach one per job (like EventTracer / MetricsRegistry:
/// concurrent sweep jobs get private recorders); each SimEngine::run
/// appends one RunTimeline and hands disk D its slot Disks[D]. Purely
/// observational — simulation results are identical with and without a
/// recorder attached.
class TimelineRecorder {
public:
  /// \param WindowMs simulated-time window width; bucketing is
  ///        floor(t / WindowMs), so it is deterministic and the same for
  ///        every disk and run.
  explicit TimelineRecorder(double WindowMs = 1000.0);

  double windowMs() const { return WindowMs; }

  /// Starts a new run of \p NumDisks disk slots, each at this recorder's
  /// window width; the engine passes slot D to disk D.
  RunTimeline &beginRun(const std::string &Label, unsigned NumDisks);
  /// Stamps the current run's end time (the simulation's MaxCompletion).
  void endRun(double EndMs);

  const std::vector<RunTimeline> &runs() const { return Runs; }

  /// Engine-side hook: one logical request's issue -> completion latency,
  /// keyed by barrier phase (== tick in serving mode).
  void recordRequestLatency(uint32_t Phase, double IssueMs,
                            double CompletionMs);

private:
  double WindowMs;
  std::vector<RunTimeline> Runs;
};

/// Renders \p TL as a dra-timeline-v1 document (docs/FORMATS.md).
/// \param Source the generating tool ("drac", "dra-serve", ...).
/// \param ServingJson optional pre-rendered serving section (one JSON
///        value) spliced under "serving"; empty omits the key.
std::string renderTimelineJson(const TimelineRecorder &TL,
                               const std::string &Source,
                               const std::string &ServingJson = "");

} // namespace dra

#endif // DRA_OBS_TIMELINE_H
