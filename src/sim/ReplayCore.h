//===- sim/ReplayCore.h - Shared closed-loop replay core --------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay core shared by the serial SimEngine and the sharded engine
/// (sim/ShardedSimEngine.h):
///
///  * replayClosedLoop — the closed-loop processor model (think time,
///    synchronous I/O, per-tenant barrier phases) as a template over the
///    storage submit function, so both engines run the *same* issue-order
///    selection code and differ only in what servicing a request means.
///  * replayAndAssemble — replayClosedLoop plus the SimResults assembly
///    both engines report, in one fixed order so every FP sum
///    reassociates identically.
///
/// Both engines service fragments through the same StorageFrontEnd
/// (sim/StorageSystem.h) and time them with the same DiskTimingModel
/// (sim/DiskTimingModel.h).
///
/// The selection loop issues requests in globally non-decreasing time
/// (equal-time ties in increasing processor order): a processor's next
/// candidate can only move later as ProcReady/PhaseEnd grow, and a newly
/// barrier-unlocked candidate starts at or after the completion that
/// unlocked it. The sharded engine's batch ordering relies on this.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_REPLAYCORE_H
#define DRA_SIM_REPLAYCORE_H

#include "sim/SimEngine.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace dra {

/// Runs the closed-loop replay of \p T: each processor alternates think
/// time and synchronous I/O; barrier phases are scoped per tenant (a
/// phase-p request of tenant t starts only after all lower-phase requests
/// of tenant t completed — single-tenant traces behave exactly as before).
///
/// \param Submit double(double IssueMs, const Request &R): services the
///        request and returns its completion time.
/// \param Observe void(const Request &R, double IssueMs, double
///        CompletionMs): per-request bookkeeping after the submit.
/// \returns the maximum completion time (the run's wall clock).
template <typename SubmitFn, typename ObserveFn>
double replayClosedLoop(const Trace &T, SubmitFn &&Submit,
                        ObserveFn &&Observe) {
  // Per-processor request streams in issue order (one flat allocation).
  TraceProcIndex Stream(T);

  // Per-(tenant, phase) barrier bookkeeping, row-major by tenant.
  uint32_t NumPhases = T.maxPhase() + 1;
  uint32_t NumTenants = T.maxTenant() + 1;
  std::vector<uint64_t> Unissued(size_t(NumTenants) * NumPhases, 0);
  std::vector<double> PhaseEnd(size_t(NumTenants) * NumPhases, 0.0);
  for (const Request &R : T.requests())
    ++Unissued[size_t(R.Tenant) * NumPhases + R.Phase];

  auto BarrierFor = [&](uint32_t Tenant, uint32_t Phase) {
    double B = 0.0;
    for (uint32_t Q = 0; Q != Phase; ++Q)
      B = std::max(B, PhaseEnd[size_t(Tenant) * NumPhases + Q]);
    return B;
  };
  auto PhaseReady = [&](uint32_t Tenant, uint32_t Phase) {
    for (uint32_t Q = 0; Q != Phase; ++Q)
      if (Unissued[size_t(Tenant) * NumPhases + Q] != 0)
        return false;
    return true;
  };

  std::vector<size_t> Next(T.numProcs(), 0);
  std::vector<double> ProcReady(T.numProcs(), 0.0);

  double MaxCompletion = 0.0;
  uint64_t Remaining = T.size();

  while (Remaining != 0) {
    // Pick the eligible processor with the earliest issue time.
    int Best = -1;
    double BestIssue = 0.0;
    for (unsigned P = 0; P != T.numProcs(); ++P) {
      if (Next[P] == Stream.ofProc(P).size())
        continue;
      const Request &R = *Stream.ofProc(P)[Next[P]];
      if (!PhaseReady(R.Tenant, R.Phase))
        continue;
      double Issue =
          std::max(ProcReady[P], BarrierFor(R.Tenant, R.Phase)) + R.ThinkMs;
      if (Best < 0 || Issue < BestIssue) {
        Best = int(P);
        BestIssue = Issue;
      }
    }
    assert(Best >= 0 && "barrier deadlock: no eligible processor");

    const Request &R = *Stream.ofProc(uint32_t(Best))[Next[Best]];
    ++Next[Best];
    --Remaining;

    double Completion = Submit(BestIssue, R);
    ProcReady[Best] = Completion;
    --Unissued[size_t(R.Tenant) * NumPhases + R.Phase];
    double &PE = PhaseEnd[size_t(R.Tenant) * NumPhases + R.Phase];
    PE = std::max(PE, Completion);
    MaxCompletion = std::max(MaxCompletion, Completion);

    Observe(R, BestIssue, Completion);
  }
  return MaxCompletion;
}

/// Runs replayClosedLoop over \p Submit and assembles the SimResults both
/// engines report: request count, response sum and per-phase latency
/// (into \p Timeline) in issue order; then \p Finish(WallMs), which must
/// finalize every disk; then the \p NumDisks per-disk stats
/// (\p StatsOf(D)) in disk order; and last the engine's "replay" span on
/// thread 0 of \p TracePid when \p Tracer is set. The caller fills in
/// Cache and AttributionEnabled.
template <typename SubmitFn, typename FinishFn, typename StatsFn>
SimResults replayAndAssemble(const Trace &T, SubmitFn &&Submit,
                             FinishFn &&Finish, unsigned NumDisks,
                             StatsFn &&StatsOf, TimelineRecorder *Timeline,
                             EventTracer *Tracer, uint64_t TracePid) {
  SimResults Res;
  double WallMs = replayClosedLoop(
      T, Submit, [&](const Request &R, double IssueMs, double Completion) {
        ++Res.NumRequests;
        Res.ResponseSumMs += Completion - IssueMs;
        if (Timeline)
          Timeline->recordRequestLatency(R.Phase, IssueMs, Completion);
      });

  Finish(WallMs);
  if (Timeline)
    Timeline->endRun(WallMs);
  Res.WallTimeMs = WallMs;
  for (unsigned D = 0; D != NumDisks; ++D) {
    const DiskStats &S = StatsOf(D);
    Res.IoTimeMs += S.BusyMs;
    Res.EnergyJ += S.EnergyJ;
    Res.NumFragments += S.NumRequests;
    Res.SpinDowns += S.SpinDowns;
    Res.SpinUps += S.SpinUps;
    Res.RpmSteps += S.RpmSteps;
    Res.PerDisk.push_back(S);
  }
  if (Tracer) {
    Tracer->nameThread(TracePid, 0, "engine");
    Tracer->completeEvent(
        TracePid, 0, "replay", "sim", 0.0, Res.WallTimeMs * 1000.0,
        {TraceArg::num("num_requests", Res.NumRequests),
         TraceArg::num("io_time_ms", Res.IoTimeMs),
         TraceArg::num("energy_j", Res.EnergyJ)});
  }
  return Res;
}

} // namespace dra

#endif // DRA_SIM_REPLAYCORE_H
