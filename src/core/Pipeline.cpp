//===- core/Pipeline.cpp - End-to-end driver --------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "obs/Telemetry.h"
#include "trace/TraceGenerator.h"
#include "verify/EnergyAuditor.h"
#include "verify/IRVerifier.h"
#include "verify/LayoutVerifier.h"
#include "verify/ScheduleVerifier.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace dra;

const char *dra::schemeName(Scheme S) {
  switch (S) {
  case Scheme::Base:
    return "Base";
  case Scheme::Tpm:
    return "TPM";
  case Scheme::Drpm:
    return "DRPM";
  case Scheme::TTpmS:
    return "T-TPM-s";
  case Scheme::TDrpmS:
    return "T-DRPM-s";
  case Scheme::TTpmM:
    return "T-TPM-m";
  case Scheme::TDrpmM:
    return "T-DRPM-m";
  }
  assert(false && "unknown scheme");
  return "?";
}

std::vector<Scheme> dra::allSchemes() {
  return {Scheme::Base,   Scheme::Tpm,   Scheme::Drpm, Scheme::TTpmS,
          Scheme::TDrpmS, Scheme::TTpmM, Scheme::TDrpmM};
}

std::vector<Scheme> dra::singleProcSchemes() {
  return {Scheme::Base, Scheme::Tpm, Scheme::Drpm, Scheme::TTpmS,
          Scheme::TDrpmS};
}

PowerPolicyKind dra::schemePolicy(Scheme S) {
  switch (S) {
  case Scheme::Base:
    return PowerPolicyKind::None;
  case Scheme::Tpm:
  case Scheme::TTpmS:
  case Scheme::TTpmM:
    return PowerPolicyKind::Tpm;
  case Scheme::Drpm:
  case Scheme::TDrpmS:
  case Scheme::TDrpmM:
    return PowerPolicyKind::Drpm;
  }
  assert(false && "unknown scheme");
  return PowerPolicyKind::None;
}

DiskParams dra::schemeDiskParams(Scheme S, DiskParams Disk) {
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Tpm)
    Disk.TpmProactiveHints = true;
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Drpm)
    Disk.DrpmProactiveHints = true;
  return Disk;
}

bool dra::schemeRestructures(Scheme S) {
  return S == Scheme::TTpmS || S == Scheme::TDrpmS || S == Scheme::TTpmM ||
         S == Scheme::TDrpmM;
}

bool dra::schemeLayoutAware(Scheme S) {
  return S == Scheme::TTpmM || S == Scheme::TDrpmM;
}

bool dra::schemeByName(const std::string &Name, Scheme &Out) {
  for (Scheme S : allSchemes()) {
    if (Name == schemeName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

SimResults dra::simulateScheme(Scheme S, const DiskLayout &Layout,
                               const PipelineConfig &Cfg, const Trace &T) {
  // The simulator's events live on their own process track, named after
  // the scheme, stamped in simulated (not wall) time.
  return SimEngine(Layout, schemeDiskParams(S, Cfg.Disk), schemePolicy(S),
                   Cfg.Cache, Cfg.Trace, std::string("sim ") + schemeName(S),
                   Cfg.Attribution, Cfg.Timeline)
      .run(T);
}

AttributionNames dra::attributionNamesOf(const Program &P) {
  AttributionNames Names;
  for (const LoopNest &N : P.nests()) {
    Names.Nests.push_back(N.name());
    std::vector<std::string> Refs;
    for (size_t A = 0; A != N.accesses().size(); ++A) {
      const ArrayAccess &Acc = N.accesses()[A];
      Refs.push_back(P.array(Acc.Array).Name + "." +
                     (Acc.Kind == AccessKind::Write ? "w" : "r") +
                     std::to_string(A));
    }
    Names.Refs.push_back(std::move(Refs));
  }
  return Names;
}

Pipeline::Pipeline(const Program &P, PipelineConfig Config)
    : Prog(P), Config(Config) {
  DE.addConsumer(&Collected);
  if (this->Config.Trace) {
    TracePid = this->Config.Trace->addProcess("compiler");
    this->Config.Trace->nameThread(TracePid, 0, "passes");
  }
  EventTracer *Tr = this->Config.Trace;
  MetricsRegistry *Me = this->Config.Metrics;

  // IR well-formedness must be established before any analysis runs: the
  // iteration space, dependence graph and scheduler assert (and abort) on
  // malformed programs, whereas the verifier reports structured errors.
  if (Config.Verify != VerifyLevel::Off) {
    PassTimer PT(Tr, TracePid, 0, "verify-ir", Me);
    checkVerified(IRVerifier(Prog, DE).verify(), "ir");
  }

  {
    PassTimer PT(Tr, TracePid, 0, "iteration-space", Me);
    Space = std::make_unique<IterationSpace>(Prog);
  }
  {
    // The single virtual execution of the run; every downstream pass reads
    // per-iteration accesses from this table instead of re-evaluating
    // subscripts (docs/PERFORMANCE.md).
    PassTimer PT(Tr, TracePid, 0, "tile-access-table", Me);
    Table = std::make_unique<TileAccessTable>(Prog, *Space);
    if (Me) {
      Me->counter("table.rows").add(Table->numIters());
      Me->counter("table.accesses").add(Table->numAccesses());
      Me->counter("table.distinct_tiles").add(Table->numDistinctTiles());
    }
  }
  {
    PassTimer PT(Tr, TracePid, 0, "disk-layout", Me);
    Layout = std::make_unique<DiskLayout>(Prog, Config.Striping);
    if (Config.ScratchTiles != 0)
      Layout->setScratchTiles(Config.ScratchTiles);
    if (!Config.ArrayStartDisks.empty()) {
      assert(Config.ArrayStartDisks.size() == Prog.arrays().size() &&
             "one start disk per array");
      for (ArrayId A = 0; A != Config.ArrayStartDisks.size(); ++A)
        Layout->setArrayStartDisk(A, Config.ArrayStartDisks[A]);
    }
  }
  {
    // Closed-form tile demand per reference (docs/ANALYSIS.md). In Auto
    // mode irregular references fall back to rows of the shared table.
    PassTimer PT(Tr, TracePid, 0, "symbolic-footprint", Me);
    Footprint = std::make_unique<SymbolicFootprint>(
        Prog, *Layout, Config.Footprint, Table.get());
    if (Me) {
      Me->counter("footprint.refs_total").add(Footprint->numRefs());
      Me->counter("footprint.refs_closed_form")
          .add(Footprint->numClosedFormRefs());
      Me->counter("footprint.refs_row_symbolic")
          .add(Footprint->numRowSymbolicRefs());
      Me->counter("footprint.refs_fallback").add(Footprint->numFallbackRefs());
      Me->counter("footprint.distinct_tiles")
          .add(Footprint->totalDistinctTiles());
    }
  }
  {
    PassTimer PT(Tr, TracePid, 0, "dependence-graph", Me);
    Graph = std::make_unique<IterationGraph>(*Table);
  }
  {
    PassTimer PT(Tr, TracePid, 0, "scheduler-init", Me);
    Scheduler = std::make_unique<DiskReuseScheduler>(*Table, *Layout);
  }

  if (Config.Verify != VerifyLevel::Off) {
    PassTimer PT(Tr, TracePid, 0, "verify-layout", Me);
    if (Config.Verify == VerifyLevel::Full)
      checkVerified(LayoutVerifier(Prog, *Layout, DE).verify(), "layout");
    else
      checkVerified(LayoutVerifier::verifyConfig(Config.Striping, DE),
                    "layout");
  }

  if (Config.Verify != VerifyLevel::Off) {
    // Oracle cross-check of the symbolic counts (docs/ANALYSIS.md): at
    // Cheap the recount reads shared-table rows; at Full it re-evaluates
    // every subscript so neither the table nor the closed forms can
    // self-certify. That one walk also derives the reference dependence
    // graph and the first-accessed tiles the schedule and locality checks
    // of every later compile() and simulate() read.
    PassTimer PT(Tr, TracePid, 0, "verify-footprint", Me);
    Verifier = std::make_unique<ScheduleVerifier>(
        Prog, *Space, *Layout, DE,
        Config.Verify == VerifyLevel::Cheap ? Table.get() : nullptr);
    if (Config.Verify == VerifyLevel::Full)
      Verifier->rederive();
    checkVerified(Verifier->verifyFootprint(*Footprint), "footprint");
  }
}

Pipeline::~Pipeline() = default;

void Pipeline::checkVerified(bool Ok, const char *Stage) const {
  if (Ok)
    return;
  std::string Msg = "verification failed at stage '";
  Msg += Stage;
  Msg += "' (";
  Msg += std::to_string(DE.numErrors());
  Msg += " errors)";
  for (const Diagnostic &D : Collected.diagnostics()) {
    if (D.severity() == DiagSeverity::Error) {
      Msg += ": ";
      Msg += D.render();
      break;
    }
  }
  throw VerificationError(Stage, Msg);
}

ScheduledWork Pipeline::restructurePerProc(const ScheduledWork &Work) const {
  ScheduledWork Out;
  Out.PerProc.assign(Work.PerProc.size(), {});
  Out.PhaseOf = Work.PhaseOf;
  // Per-iteration scheduling round (provenance for attribution); every
  // iteration appears in exactly one processor's schedule.
  Out.RoundOf.assign(Space->size(), 0);

  for (size_t P = 0; P != Work.PerProc.size(); ++P) {
    // Group this processor's iterations by barrier phase; reordering must
    // stay inside a phase.
    std::map<uint32_t, std::vector<GlobalIter>> ByPhase;
    for (GlobalIter G : Work.PerProc[P]) {
      uint32_t Phase = Work.PhaseOf.empty() ? 0 : Work.PhaseOf[G];
      ByPhase[Phase].push_back(G);
    }
    // Stagger each processor's round-robin start so concurrent processors
    // cluster different disks (the Fig. 3 disk order is arbitrary).
    unsigned StartDisk =
        unsigned(P) * Layout->numDisks() / unsigned(Work.PerProc.size());
    for (auto &[Phase, Subset] : ByPhase) {
      (void)Phase;
      std::sort(Subset.begin(), Subset.end());
      // Intra-processor dependences within the phase constrain the order;
      // cross-processor ones are enforced by the barrier itself.
      IterationGraph SubGraph(*Table, Subset);
      Schedule S = Scheduler->schedule(SubGraph, StartDisk);
      if (Config.Metrics) {
        Config.Metrics->counter("scheduler.invocations").add(1);
        Config.Metrics->counter("scheduler.rounds_total")
            .add(Scheduler->lastRoundStats().size());
        Histogram &Depth =
            Config.Metrics->histogram("scheduler.round_queue_depth");
        for (const SchedulerRoundStats &RS : Scheduler->lastRoundStats())
          Depth.observe(double(RS.QueueDepth));
      }
      if (Config.Trace) {
        // One counter sample per Fig. 3 round: how deep the ready queue was
        // entering the round. Samples are spread one us apart so Perfetto
        // draws a stepped series even though rounds have no wall duration.
        double T0 = Config.Trace->nowUs();
        const auto &Rounds = Scheduler->lastRoundStats();
        for (size_t R = 0; R != Rounds.size(); ++R)
          Config.Trace->counterEvent(TracePid, 0, "ready-queue", "compiler",
                                     T0 + double(R),
                                     double(Rounds[R].QueueDepth));
      }
      assert(S.RoundOf.size() == S.Order.size() &&
             "scheduler must tag every placed iteration with its round");
      for (size_t I = 0; I != S.Order.size(); ++I)
        Out.RoundOf[S.Order[I]] = S.RoundOf[I];
      Out.PerProc[P].insert(Out.PerProc[P].end(), S.Order.begin(),
                            S.Order.end());
    }
  }
  return Out;
}

ScheduledWork Pipeline::compile(Scheme S) const {
  EventTracer *Tr = Config.Trace;
  MetricsRegistry *Me = Config.Metrics;
  PassTimer Whole(Tr, TracePid, 0, "compile", Me,
                  {TraceArg::str("scheme", schemeName(S))});

  ScheduledWork Work;
  {
    PassTimer PT(Tr, TracePid, 0, "parallelize", Me);
    if (Config.NumProcs == 1) {
      Work.PerProc.resize(1);
      Work.PerProc[0].resize(Space->size());
      for (GlobalIter G = 0; G != GlobalIter(Space->size()); ++G)
        Work.PerProc[0][G] = G;
    } else if (schemeLayoutAware(S)) {
      ParallelPlan Plan = LayoutAwareParallelizer::parallelize(
          Prog, *Space, *Graph, *Layout, Config.NumProcs,
          /*Info=*/nullptr, Table.get(), Footprint.get());
      Work = Plan.toWork(Config.NumProcs);
    } else {
      ParallelPlan Plan =
          LoopParallelizer::parallelize(Prog, *Space, *Graph, Config.NumProcs);
      Work = Plan.toWork(Config.NumProcs);
    }
  }

  if (schemeRestructures(S)) {
    PassTimer PT(Tr, TracePid, 0, "restructure", Me);
    Work = restructurePerProc(Work);
  }

  if (Config.Verify != VerifyLevel::Off) {
    PassTimer PT(Tr, TracePid, 0, "verify-schedule", Me);
    // Independent re-check of the emitted schedule: the verifier derived
    // its own dependence graph and never consults Graph or Scheduler. At
    // Full even the shared access table is withheld; Cheap may read it for
    // the structural recounts.
    bool Ok = Config.Verify == VerifyLevel::Full
                  ? Verifier->verifyWork(Work)
                  : Verifier->verifyPartition(Work);
    checkVerified(Ok, "schedule");
  }
  return Work;
}

Trace Pipeline::trace(Scheme S, const ScheduledWork &Work) const {
  PassTimer PT(Config.Trace, TracePid, 0, "trace-gen", Config.Metrics,
               {TraceArg::str("scheme", schemeName(S))});
  TraceGenerator Gen(Prog, *Space, *Layout, Config.BlockBytes, Table.get());
  return Gen.generate(Work);
}

SchemeRun Pipeline::run(Scheme S) const {
  ScheduledWork Work = compile(S);
  return simulate(S, Work, trace(S, Work));
}

SchemeRun Pipeline::simulate(Scheme S, const ScheduledWork &Work,
                             const Trace &T) const {
  SchemeRun Run;
  Run.S = S;
  if (Config.Attribution)
    Run.AttribNames = attributionNamesOf(Prog);
  {
    PassTimer PT(Config.Trace, TracePid, 0, "simulate", Config.Metrics,
                 {TraceArg::str("scheme", schemeName(S))});
    Run.Sim = simulateScheme(S, *Layout, Config, T);
  }
  if (Config.Verify != VerifyLevel::Off)
    checkVerified(EnergyAuditor(Run.Sim, DE).verify(), "energy-ledger");
  // Every Fig. 3 round places at least one iteration, so the largest
  // round tag is the deepest schedule's round count less one.
  if (!Work.RoundOf.empty())
    Run.SchedulerRounds =
        *std::max_element(Work.RoundOf.begin(), Work.RoundOf.end()) + 1;
  Run.TraceRequests = T.size();
  Run.TraceBytes = T.totalBytes();

  Schedule Proc0;
  if (!Work.PerProc.empty())
    Proc0.Order = Work.PerProc[0];
  Run.Locality = Proc0.locality(*Table, *Layout);
  if (Config.Verify != VerifyLevel::Off) {
    // At Full the verifier recounts from its own virtual execution rather
    // than the shared table, so a table bug cannot self-certify.
    checkVerified(Verifier->verifyLocality(Proc0, Run.Locality), "locality");
  }
  return Run;
}
