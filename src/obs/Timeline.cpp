//===- obs/Timeline.cpp - Simulated-time windowed series -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Timeline.h"

#include "support/Json.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dra;

const char *dra::timelineStateName(unsigned S) {
  switch (S) {
  case TlService:
    return "service";
  case TlIdle:
    return "idle";
  case TlIdleLow:
    return "idle_low";
  case TlSpinDown:
    return "spin_down";
  case TlStandby:
    return "standby";
  case TlSpinUp:
    return "spin_up";
  case TlRpmStep:
    return "rpm_step";
  case TlStall:
    return "stall";
  case TlRamp:
    return "ramp";
  }
  assert(false && "unknown timeline state");
  return "?";
}

const char *dra::timelineEnergyName(unsigned C) {
  switch (C) {
  case TlEActiveRead:
    return "active_read";
  case TlEActiveWrite:
    return "active_write";
  case TlEIdle:
    return "idle";
  case TlESpinDown:
    return "spin_down";
  case TlESpinUp:
    return "spin_up";
  case TlEStandby:
    return "standby";
  case TlERpmStep:
    return "rpm_step";
  case TlEReadyPenalty:
    return "ready_penalty";
  }
  assert(false && "unknown timeline energy category");
  return "?";
}

TimelineRecorder::TimelineRecorder(double WindowMs) : WindowMs(WindowMs) {
  assert(WindowMs > 0 && "window width must be positive");
}

RunTimeline &TimelineRecorder::beginRun(const std::string &Label,
                                        unsigned NumDisks) {
  Runs.emplace_back();
  Runs.back().Label = Label;
  Runs.back().Disks.resize(NumDisks);
  for (DiskTimeline &DT : Runs.back().Disks)
    DT.WindowMs = WindowMs;
  return Runs.back();
}

void TimelineRecorder::endRun(double EndMs) {
  assert(!Runs.empty() && "endRun before beginRun");
  Runs.back().EndMs = EndMs;
}

TimelineWindow &DiskTimeline::windowAt(uint64_t Index) {
  // The common case appends or re-touches the last window; queue waits can
  // reach back a few windows, which the binary search covers.
  if (!Windows.empty() && Windows.back().Index == Index)
    return Windows.back();
  if (Windows.empty() || Windows.back().Index < Index) {
    Windows.emplace_back();
    Windows.back().Index = Index;
    return Windows.back();
  }
  auto It = std::lower_bound(
      Windows.begin(), Windows.end(), Index,
      [](const TimelineWindow &W, uint64_t I) { return W.Index < I; });
  if (It == Windows.end() || It->Index != Index) {
    It = Windows.insert(It, TimelineWindow());
    It->Index = Index;
  }
  return *It;
}

void DiskTimeline::addSpan(unsigned State, unsigned Cat, double StartMs,
                           double Ms, double Joules) {
  if (Ms <= 0.0) {
    // Instantaneous charge (e.g. a zero-length overlap remainder): energy
    // lands in the window containing the instant, no occupancy.
    if (Joules != 0.0)
      windowAt(uint64_t(StartMs / WindowMs)).EnergyJ[Cat] += Joules;
    return;
  }
  double End = StartMs + Ms;
  double Cursor = StartMs;
  double RemMs = Ms, RemJ = Joules;
  uint64_t Idx = uint64_t(StartMs / WindowMs);
  while (true) {
    double WinEnd = double(Idx + 1) * WindowMs;
    bool LastPart = End <= WinEnd;
    // Residual rule: the last window takes whatever is left, so the parts
    // sum exactly (bit-for-bit) to the span's Ms and Joules.
    double PartMs = LastPart ? RemMs : WinEnd - Cursor;
    double PartJ = LastPart ? RemJ : Joules * (PartMs / Ms);
    TimelineWindow &Win = windowAt(Idx);
    Win.StateMs[State] += PartMs;
    Win.EnergyJ[Cat] += PartJ;
    if (LastPart)
      return;
    RemMs -= PartMs;
    RemJ -= PartJ;
    Cursor = WinEnd;
    ++Idx;
  }
}

void DiskTimeline::recordService(double StartMs, double Ms, double Joules,
                                 bool IsWrite, uint64_t Bytes) {
  addSpan(TlService, IsWrite ? TlEActiveWrite : TlEActiveRead, StartMs, Ms,
          Joules);
  TimelineWindow &Win = windowAt(uint64_t(StartMs / WindowMs));
  ++Win.Requests;
  Win.Bytes += Bytes;
}

void DiskTimeline::recordGap(double StartMs, double GapMs, const IdleOutcome &O,
                             unsigned MaxRpm, bool BelowBreakEven,
                             double MissedJ) {
  double T = StartMs;
  for (const GapSegment &Seg : O.Segments) {
    unsigned State = TlIdle, Cat = TlEIdle;
    switch (Seg.Phase) {
    case GapPhase::Idle:
      State = Seg.Rpm == MaxRpm ? TlIdle : TlIdleLow;
      Cat = TlEIdle;
      break;
    case GapPhase::SpinDown:
      State = TlSpinDown;
      Cat = TlESpinDown;
      break;
    case GapPhase::Standby:
      State = TlStandby;
      Cat = TlEStandby;
      break;
    case GapPhase::Wake:
      State = TlSpinUp;
      Cat = TlESpinUp;
      break;
    case GapPhase::RpmStep:
      State = TlRpmStep;
      Cat = TlERpmStep;
      break;
    }
    addSpan(State, Cat, T, Seg.Ms, Seg.Joules);
    T += Seg.Ms;
  }
  assert(std::fabs(T - (StartMs + GapMs)) <=
             1e-6 * std::max(1.0, StartMs + GapMs) &&
         "gap segments must tile the gap");

  // A stalled wake burns its ready energy after the gap: the request sits
  // out the remaining spin-up/step time. Mirrors the ledger's
  // ready-penalty branch (sim/Disk.cpp chargeGap).
  if (O.ReadyDelayMs > 0)
    addSpan(TlStall, TlEReadyPenalty, StartMs + GapMs, O.ReadyDelayMs,
            O.ReadyEnergyJ);

  TimelineGapEvent E;
  E.StartMs = StartMs;
  E.Ms = GapMs;
  E.EndRpm = O.EndRpm;
  E.BelowBreakEven = BelowBreakEven;
  E.MissedJ = MissedJ;
  E.SpinDowns = O.SpinDowns;
  E.SpinUps = O.SpinUps;
  E.RpmSteps = O.RpmSteps;
  Gaps.push_back(E);
}

void DiskTimeline::recordRamp(double StartMs, double Ms, double Joules) {
  addSpan(TlRamp, TlERpmStep, StartMs, Ms, Joules);
}

void DiskTimeline::recordQueueWait(double ArrivalMs, double ServiceStartMs) {
  double Ms = ServiceStartMs - ArrivalMs;
  if (Ms <= 0.0)
    return;
  double Cursor = ArrivalMs;
  double Rem = Ms;
  uint64_t Idx = uint64_t(ArrivalMs / WindowMs);
  while (true) {
    double WinEnd = double(Idx + 1) * WindowMs;
    bool LastPart = ServiceStartMs <= WinEnd;
    double PartMs = LastPart ? Rem : WinEnd - Cursor;
    windowAt(Idx).QueueMs += PartMs;
    if (LastPart)
      return;
    Rem -= PartMs;
    Cursor = WinEnd;
    ++Idx;
  }
}

void TimelineRecorder::recordRequestLatency(uint32_t Phase, double IssueMs,
                                            double CompletionMs) {
  assert(!Runs.empty() && "hook before beginRun");
  std::vector<PhaseLatency> &Phases = Runs.back().Phases;
  if (Phases.size() <= Phase)
    Phases.resize(Phase + 1);
  PhaseLatency &PL = Phases[Phase];
  double Ms = CompletionMs - IssueMs;
  ++PL.Requests;
  PL.SumMs += Ms;
  PL.MaxMs = std::max(PL.MaxMs, Ms);
  PL.Hist.addSample(Ms / 1000.0);
}

/// Writes disk \p D's windows, gaps and totals as one object.
static void writeDiskTimelineJson(JsonWriter &W, size_t D,
                                  const DiskTimeline &DT) {
  W.beginObject();
  W.key("disk");
  W.value(uint64_t(D));
  W.key("windows");
  W.beginArray();
  for (const TimelineWindow &Win : DT.Windows) {
    W.beginObject();
    W.key("w");
    W.value(Win.Index);
    W.key("state_ms");
    W.beginArray();
    for (double S : Win.StateMs)
      W.value(S);
    W.endArray();
    W.key("energy_j");
    W.beginArray();
    for (double E : Win.EnergyJ)
      W.value(E);
    W.endArray();
    W.key("requests");
    W.value(Win.Requests);
    W.key("bytes");
    W.value(Win.Bytes);
    W.key("queue_ms");
    W.value(Win.QueueMs);
    W.endObject();
  }
  W.endArray();
  W.key("gaps");
  W.beginArray();
  for (const TimelineGapEvent &G : DT.Gaps) {
    W.beginObject();
    W.key("start_ms");
    W.value(G.StartMs);
    W.key("ms");
    W.value(G.Ms);
    W.key("end_rpm");
    W.value(uint64_t(G.EndRpm));
    W.key("below_break_even");
    W.value(G.BelowBreakEven);
    W.key("missed_j");
    W.value(G.MissedJ);
    W.key("spin_downs");
    W.value(uint64_t(G.SpinDowns));
    W.key("spin_ups");
    W.value(uint64_t(G.SpinUps));
    W.key("rpm_steps");
    W.value(uint64_t(G.RpmSteps));
    W.endObject();
  }
  W.endArray();
  // Per-disk sums: the closure the tests assert, exported so downstream
  // consumers (dra-dash, check-regression) never recompute them
  // differently.
  double StateTot[NumTimelineStates] = {};
  double EnergyTot[NumTimelineEnergyCats] = {};
  uint64_t Requests = 0, Bytes = 0;
  for (const TimelineWindow &Win : DT.Windows) {
    for (unsigned S = 0; S != NumTimelineStates; ++S)
      StateTot[S] += Win.StateMs[S];
    for (unsigned C = 0; C != NumTimelineEnergyCats; ++C)
      EnergyTot[C] += Win.EnergyJ[C];
    Requests += Win.Requests;
    Bytes += Win.Bytes;
  }
  W.key("totals");
  W.beginObject();
  W.key("state_ms");
  W.beginArray();
  for (double S : StateTot)
    W.value(S);
  W.endArray();
  W.key("energy_j");
  W.beginArray();
  for (double E : EnergyTot)
    W.value(E);
  W.endArray();
  W.key("requests");
  W.value(Requests);
  W.key("bytes");
  W.value(Bytes);
  W.endObject();
  W.endObject();
}

std::string dra::renderTimelineJson(const TimelineRecorder &TL,
                                    const std::string &Source,
                                    const std::string &ServingJson) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("dra-timeline-v1");
  W.key("source");
  W.value(Source);
  W.key("window_ms");
  W.value(TL.windowMs());
  W.key("states");
  W.beginArray();
  for (unsigned S = 0; S != NumTimelineStates; ++S)
    W.value(timelineStateName(S));
  W.endArray();
  W.key("energy_categories");
  W.beginArray();
  for (unsigned C = 0; C != NumTimelineEnergyCats; ++C)
    W.value(timelineEnergyName(C));
  W.endArray();

  W.key("runs");
  W.beginArray();
  for (const RunTimeline &R : TL.runs()) {
    W.beginObject();
    W.key("label");
    W.value(R.Label);
    W.key("end_ms");
    W.value(R.EndMs);
    W.key("disks");
    W.beginArray();
    writeElements(W, R.Disks.size(), [&R](JsonWriter &Elem, size_t D) {
      writeDiskTimelineJson(Elem, D, R.Disks[D]);
    });
    W.endArray();
    W.key("phases");
    W.beginArray();
    for (size_t P = 0; P != R.Phases.size(); ++P) {
      const PhaseLatency &PL = R.Phases[P];
      W.beginObject();
      W.key("phase");
      W.value(uint64_t(P));
      W.key("requests");
      W.value(PL.Requests);
      W.key("mean_ms");
      W.value(PL.meanMs());
      W.key("p50_ms");
      W.value(PL.percentileMs(0.50));
      W.key("p95_ms");
      W.value(PL.percentileMs(0.95));
      W.key("p99_ms");
      W.value(PL.percentileMs(0.99));
      W.key("max_ms");
      W.value(PL.MaxMs);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  if (!ServingJson.empty()) {
    W.key("serving");
    W.rawValue(ServingJson);
  }
  W.endObject();
  return W.take();
}
