//===- serve/SessionRunner.cpp - Stream session execution ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/SessionRunner.h"

#include "frontend/Parser.h"
#include "obs/Telemetry.h"
#include "trace/TraceGenerator.h"

#include <algorithm>
#include <cassert>

using namespace dra;

namespace {

/// One pending ad-hoc object I/O, recorded in arrival order and spliced
/// into the exec trace after its tick's exec requests.
struct AdHocIo {
  uint32_t Phase = 0;
  uint64_t Slot = 0;
  bool IsWrite = false;
};

/// A live ad-hoc object: the scratch slots it occupies, ascending.
struct LiveObject {
  std::vector<uint64_t> Slots;
};

} // namespace

SessionRunner::SessionRunner(StreamSession Session, DiagnosticEngine &DE,
                             EventTracer *Tracer, MetricsRegistry *Metrics,
                             TimelineRecorder *Timeline)
    : Session(std::move(Session)), DE(DE), Tracer(Tracer), Metrics(Metrics),
      Timeline(Timeline) {}

SessionRunner::~SessionRunner() = default;

bool SessionRunner::fail(const std::string &Check, const std::string &Msg) {
  DE.report(Diagnostic(DiagSeverity::Error, "serve-session", Check) << Msg);
  return false;
}

SessionResult SessionRunner::run() {
  SessionResult Result;

  // Bind the program.
  std::string Error;
  std::optional<Program> P = Parser::parse(Session.ProgramSource, Error);
  if (!P) {
    fail("serve-program-parse", "program does not parse: " + Error);
    return Result;
  }
  Prog = std::make_unique<Program>(std::move(*P));
  Result.ProgramName = Prog->name();

  // Map the session config onto the batch pipeline's.
  Scheme S;
  if (!schemeByName(Session.Config.SchemeName, S)) {
    fail("serve-bad-scheme",
         "unknown scheme '" + Session.Config.SchemeName + "'");
    return Result;
  }
  Cfg = PipelineConfig();
  Cfg.NumProcs = 1; // v1 serves single-processor sessions only.
  Cfg.Striping.StripeFactor = Session.Config.StripeFactor;
  Cfg.Striping.StripeUnitBytes = Session.Config.StripeUnitKb * 1024;
  Cfg.ScratchTiles = Session.Config.ScratchTiles;
  Cfg.Attribution = true;
  Cfg.Trace = Tracer;
  Cfg.Metrics = Metrics;
  Cfg.Timeline = Timeline;
  if (Cfg.Striping.StripeUnitBytes % Cfg.BlockBytes != 0) {
    fail("serve-bad-config",
         "stripe unit (" + std::to_string(Cfg.Striping.StripeUnitBytes) +
             " bytes) must be a whole number of " +
             std::to_string(Cfg.BlockBytes) + "-byte page blocks");
    return Result;
  }

  Pipe = std::make_unique<Pipeline>(*Prog, Cfg);
  const IterationSpace &Space = Pipe->space();
  const DiskLayout &Layout = Pipe->layout();
  Result.FootprintJson = Pipe->footprint().renderJson();

  IncrementalScheduler Inc(Pipe->table(), Layout, Pipe->graph(),
                           Pipe->scheduler(), schemeRestructures(S),
                           Cfg.GraphWorkers);

  // Live ad-hoc object state: named objects over a fixed pool of scratch
  // slots, allocated lowest-slot-first so replays place identically.
  std::vector<char> SlotUsed(size_t(Session.Config.ScratchTiles), 0);
  std::map<std::string, LiveObject> Objects;
  std::vector<AdHocIo> AdHoc;

  std::vector<GlobalIter> &Order = Result.Order;
  std::vector<uint32_t> RoundOf(Space.size(), 0);
  std::vector<uint32_t> PhaseOf(Space.size(), 0);
  // The tick (dense phase index) each iteration arrived in, for the
  // dispatch-lag histograms: lag = dispatch phase - arrival phase.
  std::vector<uint32_t> ArrivePhase(Space.size(), 0);
  unsigned MaxRounds = 0;
  uint32_t Phase = 0;

  auto runOneTick = [&](uint64_t TickValue, uint64_t ArrivedNow,
                        uint64_t AdHocNow) {
    TickResult T = Inc.runTick(Session.Config.TickBudget, TickValue);
    LagHistogram Lags;
    for (size_t I = 0; I != T.Order.size(); ++I) {
      RoundOf[T.Order[I]] = T.RoundOf[I];
      PhaseOf[T.Order[I]] = Phase;
      Lags.add(Phase - ArrivePhase[T.Order[I]]);
    }
    Result.TickLags.push_back(std::move(Lags));
    Order.insert(Order.end(), T.Order.begin(), T.Order.end());
    MaxRounds = std::max(MaxRounds, T.Rounds);
    ServeTickStats St;
    St.Tick = TickValue;
    St.Phase = Phase;
    St.Arrived = ArrivedNow;
    St.Scheduled = T.Order.size();
    St.Deferred = T.Deferred;
    St.AdHocRequests = AdHocNow;
    St.Rounds = T.Rounds;
    St.StartDisk = T.StartDisk;
    St.LowPowerDisks = T.LowPowerDisks;
    Result.Ticks.push_back(St);
    ++Phase;
  };

  for (const StreamFrame &F : Session.Frames) {
    uint64_t ArrivedNow = 0, AdHocNow = 0;
    for (const StreamRequest &R : F.Requests) {
      std::string Where = "tick " + std::to_string(F.Tick) + ": ";
      switch (R.Op) {
      case StreamOp::Exec: {
        if (R.First + R.Count > Space.size()) {
          fail("serve-exec-range",
               Where + "exec range [" + std::to_string(R.First) + ", " +
                   std::to_string(R.First + R.Count) +
                   ") exceeds the program's " +
                   std::to_string(Space.size()) + " iterations");
          return Result;
        }
        for (uint64_t G = R.First; G != R.First + R.Count; ++G) {
          if (!Inc.arrive(GlobalIter(G))) {
            fail("serve-exec-duplicate",
                 Where + "iteration " + std::to_string(G) +
                     " was already delivered");
            return Result;
          }
          ArrivePhase[G] = Phase;
        }
        ArrivedNow += R.Count;
        break;
      }
      case StreamOp::Write: {
        if (Session.Config.ScratchTiles == 0) {
          fail("serve-no-scratch",
               Where + "object '" + R.Object +
                   "': the session reserved no scratch slots "
                   "(config scratch_tiles)");
          return Result;
        }
        if (Objects.count(R.Object)) {
          fail("serve-object-exists",
               Where + "object '" + R.Object + "' already exists");
          return Result;
        }
        LiveObject O;
        for (uint64_t Slot = 0;
             Slot != SlotUsed.size() && O.Slots.size() != R.Tiles; ++Slot) {
          if (!SlotUsed[Slot])
            O.Slots.push_back(Slot);
        }
        if (O.Slots.size() != R.Tiles) {
          fail("serve-scratch-full",
               Where + "object '" + R.Object + "' needs " +
                   std::to_string(R.Tiles) + " slots; the scratch region (" +
                   std::to_string(Session.Config.ScratchTiles) +
                   " slots) has too few free");
          return Result;
        }
        for (uint64_t Slot : O.Slots) {
          SlotUsed[Slot] = 1;
          AdHoc.push_back(AdHocIo{Phase, Slot, /*IsWrite=*/true});
        }
        AdHocNow += O.Slots.size();
        Objects.emplace(R.Object, std::move(O));
        break;
      }
      case StreamOp::Read: {
        auto It = Objects.find(R.Object);
        if (It == Objects.end()) {
          fail("serve-object-unknown",
               Where + "object '" + R.Object + "' does not exist");
          return Result;
        }
        for (uint64_t Slot : It->second.Slots)
          AdHoc.push_back(AdHocIo{Phase, Slot, /*IsWrite=*/false});
        AdHocNow += It->second.Slots.size();
        break;
      }
      case StreamOp::Delete: {
        auto It = Objects.find(R.Object);
        if (It == Objects.end()) {
          fail("serve-object-unknown",
               Where + "object '" + R.Object + "' does not exist");
          return Result;
        }
        // Metadata only: slots return to the pool, no I/O is issued.
        for (uint64_t Slot : It->second.Slots)
          SlotUsed[Slot] = 0;
        Objects.erase(It);
        break;
      }
      }
    }
    runOneTick(F.Tick, ArrivedNow, AdHocNow);
  }

  // Drain budget-deferred arrivals on synthetic ticks after the last frame.
  // Every predecessor has arrived by now, so each drain tick must make
  // progress — unless a delivered iteration depends on one the session
  // never delivered, which is a protocol violation.
  uint64_t DrainTick = Session.Frames.empty() ? 0 : Session.Frames.back().Tick;
  while (Inc.backlog() != 0) {
    ++DrainTick;
    uint64_t Before = Inc.backlog();
    runOneTick(DrainTick, 0, 0);
    if (Inc.backlog() == Before) {
      fail("serve-missing-deps",
           std::to_string(Before) +
               " delivered iterations depend on iterations the session "
               "never delivered");
      return Result;
    }
  }

  // One cumulative trace over everything the ticks placed, generated with
  // the batch generator so per-processor clocks, think times and phases
  // come out exactly as a batch compile's.
  ScheduledWork Work;
  Work.PerProc.push_back(Order);
  Work.PhaseOf = std::move(PhaseOf);
  Work.RoundOf = std::move(RoundOf);
  TraceGenerator Gen(*Prog, Space, Layout, Cfg.BlockBytes, &Pipe->table());
  Trace T = Gen.generate(Work);

  // Splice the ad-hoc object I/O after the exec requests of its tick.
  // Sessions without object traffic keep the generator's trace untouched —
  // the byte-identity path. Ad-hoc requests carry no provenance (they land
  // in the attribution ledger's unattributed bucket) and zero think time.
  if (!AdHoc.empty()) {
    Result.AdHocRequests = AdHoc.size();
    dra::Trace Merged(1, Cfg.BlockBytes);
    Merged.reserve(T.size() + AdHoc.size());
    size_t Next = 0;
    auto emitAdHocBefore = [&](uint32_t Limit) {
      for (; Next != AdHoc.size() && AdHoc[Next].Phase < Limit; ++Next) {
        Request R;
        uint64_t Offset = Layout.scratchSlotOffset(AdHoc[Next].Slot);
        assert(Offset % Cfg.BlockBytes == 0 && "slots are block aligned");
        R.StartBlock = Offset / Cfg.BlockBytes;
        R.SizeBytes = Layout.tileBytes();
        R.IsWrite = AdHoc[Next].IsWrite;
        R.Phase = AdHoc[Next].Phase;
        Merged.addRequest(R);
      }
    };
    for (const Request &R : T.requests()) {
      emitAdHocBefore(R.Phase);
      Merged.addRequest(R);
    }
    emitAdHocBefore(~uint32_t(0));
    T = std::move(Merged);
  }

  Result.Run.S = S;
  Result.Run.AttribNames = attributionNamesOf(*Prog);
  Result.Run.Sim = simulateScheme(S, Layout, Cfg, T);
  Result.Run.SchedulerRounds = MaxRounds;
  Result.Run.TraceRequests = T.size();
  Result.Run.TraceBytes = T.totalBytes();
  Schedule Proc0;
  Proc0.Order = Order;
  Result.Run.Locality = Proc0.locality(Pipe->table(), Layout);

  // The serve counter set (serve/ServeTelemetry.h).
  if (Metrics)
    recordServeMetrics(*Metrics, Result);

  Result.Ok = true;
  return Result;
}
