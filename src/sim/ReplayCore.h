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
/// candidate can only move later as its ready time and its tenant's
/// barrier grow, and a newly barrier-unlocked candidate starts at or after
/// the completion that unlocked it. The sharded engine's batch ordering
/// relies on this.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_REPLAYCORE_H
#define DRA_SIM_REPLAYCORE_H

#include "sim/SimEngine.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace dra {

namespace replay_detail {

inline constexpr uint32_t NoProc = ~uint32_t(0);

/// One tenant's barrier gate. Every phase below Open is fully issued, so
/// exactly the requests of phase Open are eligible; Barrier is the latest
/// completion of the phases below it, OpenEnd that of phase Open so far.
/// Processors whose next request waits on a later phase are parked on the
/// tenant's list (Parked, linked through the replay's ParkNext) until Open
/// reaches it.
struct Gate {
  size_t Open = 0;
  double Barrier = 0.0;
  double OpenEnd = 0.0;
  uint32_t Parked = NoProc;
};

/// An eligible processor and the time its next request would issue.
struct Candidate {
  double IssueMs;
  uint32_t Proc;
};

} // namespace replay_detail

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
  // Everything below is sized by processors, tenants and phases, all of
  // which the trace recorded as it was built: replay starts without a
  // pass over the requests.
  const std::vector<Request> &Reqs = T.requests();
  const TraceProcIndex Stream(T);
  const unsigned NumProcs = T.numProcs();
  const size_t NumPhases = size_t(T.maxPhase()) + 1;
  const size_t NumTenants = size_t(T.maxTenant()) + 1;

  // Per-(tenant, phase) requests not yet issued, row-major by tenant.
  std::vector<uint64_t> Unissued(NumTenants * NumPhases);
  for (size_t Tn = 0; Tn != NumTenants; ++Tn)
    for (size_t Ph = 0; Ph != NumPhases; ++Ph)
      Unissued[Tn * NumPhases + Ph] = T.phaseCount(uint32_t(Tn), uint32_t(Ph));

  using replay_detail::Gate;
  using replay_detail::NoProc;
  std::vector<Gate> Gates(NumTenants);
  auto SkipIssued = [&](size_t Tn) {
    Gate &G = Gates[Tn];
    while (G.Open != NumPhases && Unissued[Tn * NumPhases + G.Open] == 0)
      ++G.Open;
  };
  for (size_t Tn = 0; Tn != NumTenants; ++Tn)
    SkipIssued(Tn);

  // Eligible processors in a min-heap on (issue time, processor): the
  // earliest issue goes next, equal times in increasing processor order.
  // An entry's issue time cannot go stale: its processor's ready time
  // moves only when it issues, and its tenant's barrier only when the
  // open phase closes, at which point no processor of the tenant is
  // eligible.
  using replay_detail::Candidate;
  auto Later = [](const Candidate &A, const Candidate &B) {
    return A.IssueMs != B.IssueMs ? A.IssueMs > B.IssueMs : A.Proc > B.Proc;
  };
  std::vector<Candidate> Heap;
  Heap.reserve(NumProcs);
  std::vector<uint32_t> Head(NumProcs), ParkNext(NumProcs, NoProc);
  std::vector<double> ProcReady(NumProcs, 0.0);

  // Queues processor P's next request as a candidate, or parks P behind
  // its tenant's barrier.
  auto Place = [&](uint32_t P) {
    if (Head[P] == Trace::NoRequest)
      return;
    const Request &R = Reqs[Head[P]];
    Gate &G = Gates[R.Tenant];
    if (R.Phase != G.Open) {
      assert(R.Phase > G.Open && "a closed phase has unissued requests");
      ParkNext[P] = G.Parked;
      G.Parked = P;
      return;
    }
    Heap.push_back({std::max(ProcReady[P], G.Barrier) + R.ThinkMs, P});
    std::push_heap(Heap.begin(), Heap.end(), Later);
  };
  for (uint32_t P = 0; P != NumProcs; ++P) {
    Head[P] = Stream.first(P);
    Place(P);
  }

  double MaxCompletion = 0.0;
  uint64_t Issued = 0;
  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), Later);
    const auto [IssueMs, P] = Heap.back();
    Heap.pop_back();
    const Request &R = Reqs[Head[P]];
    Head[P] = Stream.next(Head[P]);
    ++Issued;

    double Completion = Submit(IssueMs, R);
    ProcReady[P] = Completion;
    Gate &G = Gates[R.Tenant];
    G.OpenEnd = std::max(G.OpenEnd, Completion);
    if (--Unissued[R.Tenant * NumPhases + R.Phase] == 0) {
      // Phase closed: fold it into the barrier and release the processors
      // parked on the next phase with requests.
      G.Barrier = std::max(G.Barrier, G.OpenEnd);
      G.OpenEnd = 0.0;
      SkipIssued(R.Tenant);
      uint32_t Q = G.Parked;
      G.Parked = NoProc;
      while (Q != NoProc) {
        uint32_t NextQ = ParkNext[Q];
        Place(Q);
        Q = NextQ;
      }
    }
    MaxCompletion = std::max(MaxCompletion, Completion);

    Observe(R, IssueMs, Completion);
    Place(P);
  }
  assert(Issued == T.size() && "barrier deadlock: no eligible processor");
  (void)Issued;
  return MaxCompletion;
}

/// Runs replayClosedLoop over \p Submit and assembles the SimResults both
/// engines report: request count, response sum and per-phase latency
/// (into \p Timeline) in issue order; then \p Finish(WallMs), which must
/// finalize every disk; then the \p NumDisks per-disk stats, moved out of
/// the finalized disks by \p TakeStats(D) in disk order, each keeping its
/// attribution entries only when \p Attribution is set (the ledger is
/// folded from them either way); and last the engine's "replay" span on
/// thread 0 of \p TracePid when \p Tracer is set. The caller fills in
/// Cache.
template <typename SubmitFn, typename FinishFn, typename TakeStatsFn>
SimResults replayAndAssemble(const Trace &T, SubmitFn &&Submit,
                             FinishFn &&Finish, unsigned NumDisks,
                             TakeStatsFn &&TakeStats, bool Attribution,
                             TimelineRecorder *Timeline, EventTracer *Tracer,
                             uint64_t TracePid) {
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
  Res.AttributionEnabled = Attribution;
  Res.PerDisk.reserve(NumDisks);
  for (unsigned D = 0; D != NumDisks; ++D) {
    DiskStats S = TakeStats(D);
    if (!Attribution)
      S.Attrib = AttributionMap();
    Res.IoTimeMs += S.BusyMs;
    Res.EnergyJ += S.EnergyJ;
    Res.NumFragments += S.NumRequests;
    Res.SpinDowns += S.SpinDowns;
    Res.SpinUps += S.SpinUps;
    Res.RpmSteps += S.RpmSteps;
    Res.PerDisk.push_back(std::move(S));
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
