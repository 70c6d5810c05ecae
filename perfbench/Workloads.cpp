//===- perfbench/Workloads.cpp - The three benchmark workloads --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// paper-matrix    one sweep job per op: build, Pipeline::run, report export
// compile-verify  parse, Pipeline at VerifyLevel::Full, compile, codegen
// array-1024      one SimEngine::run of a 1024-disk multi-tenant trace with
//                 attribution and timeline, plus both exports
//
// Each workload also has a traced op that makes the same public calls one
// at a time under spans and must reproduce the untraced op's outputs
// exactly (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Apps.h"
#include "core/ScheduleCodeGen.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"
#include "ir/ProgramBuilder.h"
#include "ir/TileAccessTable.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "sim/ShardedSimEngine.h"
#include "trace/TenantMerge.h"
#include "trace/TraceGenerator.h"
#include "verify/EnergyAuditor.h"
#include "verify/IRVerifier.h"
#include "verify/LayoutVerifier.h"
#include "verify/ScheduleVerifier.h"

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

using namespace dra;
using namespace perfbench;

namespace {

constexpr const char *Source = "perfbench";
/// Application scale of the smoke mode (1.0 otherwise).
constexpr double SmokeScale = 0.1;
/// The seed whose array-1024 trace has reference values (it reproduces the
/// bench/sharded_sim scenario: tenant t uses generator seed 1000 + 77 t).
constexpr uint64_t DefaultSeed = 1000;

//===----------------------------------------------------------------------===//
// Shared helpers.
//===----------------------------------------------------------------------===//

/// The most recent span named \p Name (one was just recorded).
const Span &lastSpan(const SpanRecorder &R, const char *Name) {
  const auto &S = R.spans();
  return *std::find_if(S.rbegin(), S.rend(),
                       [&](const Span &X) { return X.Name == Name; });
}

template <class T> uint64_t hashVec(const std::vector<T> &V, uint64_t H) {
  uint64_t N = V.size();
  H = fnv1a(&N, sizeof(N), H);
  return fnv1a(V.data(), V.size() * sizeof(T), H);
}

uint64_t hashWork(const ScheduledWork &W) {
  uint64_t H = fnv1a("work", 4);
  for (const auto &Order : W.PerProc)
    H = hashVec(Order, H);
  H = hashVec(W.PhaseOf, H);
  return hashVec(W.RoundOf, H);
}

/// Disk parameters of scheme \p S, with the proactive hints Pipeline::run
/// gives the restructured versions.
DiskParams schemeDisk(DiskParams Disk, Scheme S) {
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Tpm)
    Disk.TpmProactiveHints = true;
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Drpm)
    Disk.DrpmProactiveHints = true;
  return Disk;
}

JsonValue number(double V) {
  JsonValue J;
  J.K = JsonValue::Kind::Number;
  J.Num = V;
  return J;
}

JsonValue string(const std::string &S) {
  JsonValue J;
  J.K = JsonValue::Kind::String;
  J.Str = S;
  return J;
}

/// The reference section of workload \p Name (null when absent).
const JsonValue *referenceSection(const BenchOptions &Opts,
                                  const std::string &Name) {
  return Opts.Reference ? Opts.Reference->find(Name) : nullptr;
}

/// Entry \p Key of the section \p Name being written (null when not
/// writing a reference).
JsonValue *referenceSlot(const BenchOptions &Opts, const std::string &Name,
                         const std::string &Key) {
  if (!Opts.WriteReference)
    return nullptr;
  JsonValue &Sec = Opts.WriteReference->Obj[Name];
  Sec.K = JsonValue::Kind::Object;
  JsonValue &E = Sec.Obj[Key];
  E.K = JsonValue::Kind::Object;
  return &E;
}

/// Closure, and the simulated outputs against reference \p Ref (when
/// given): energy, simulated wall and I/O time, request and fragment
/// counts at check-regression's 1e-6 relative tolerance.
void checkSimulated(const SimResults &R, const std::string &Key,
                    const JsonValue *Ref, JsonValue *Write, Checks &C) {
  DiagnosticEngine DE;
  C.expect(EnergyAuditor(R, DE).verify(),
           Key + ": energy ledger does not close");
  const std::pair<const char *, double> Values[] = {
      {"energy_j", R.EnergyJ},
      {"wall_ms", R.WallTimeMs},
      {"io_ms", R.IoTimeMs},
      {"requests", double(R.NumRequests)},
      {"fragments", double(R.NumFragments)}};
  if (Write)
    for (const auto &[Name, V] : Values)
      Write->Obj[Name] = number(V);
  if (!Ref)
    return;
  const JsonValue *E = Ref->find(Key);
  if (!E) {
    C.expect(false, Key + ": no reference values");
    return;
  }
  for (const auto &[Name, V] : Values) {
    const JsonValue *W = E->find(Name);
    if (!W || !W->isNumber())
      C.expect(false, Key + ": reference lacks " + Name);
    else
      C.near(V, W->Num, Key + ": " + Name);
  }
}

/// Simulated results that every observer setting must leave unchanged.
bool sameTimings(const SimResults &A, const SimResults &B) {
  return A.EnergyJ == B.EnergyJ && A.WallTimeMs == B.WallTimeMs &&
         A.IoTimeMs == B.IoTimeMs && A.ResponseSumMs == B.ResponseSumMs &&
         A.NumRequests == B.NumRequests && A.NumFragments == B.NumFragments &&
         A.SpinDowns == B.SpinDowns && A.SpinUps == B.SpinUps &&
         A.RpmSteps == B.RpmSteps;
}

/// Records the first fingerprint seen for \p Key and checks later ones
/// against it (a repeat of the same input must give identical outputs).
void checkRepeat(std::map<std::string, uint64_t> &First, const std::string &Key,
                 uint64_t H, Checks &C) {
  auto [It, New] = First.emplace(Key, H);
  C.expect(New || It->second == H, Key + ": repeat run gave different output");
}

//===----------------------------------------------------------------------===//
// The decomposed compile: Pipeline's constructor and compile(S), one public
// call per span. At VerifyLevel::Full the verifiers run where Pipeline runs
// them, each on its own re-derivation (never the shared table).
//===----------------------------------------------------------------------===//

struct Compiled {
  std::unique_ptr<IterationSpace> Space;
  std::unique_ptr<TileAccessTable> Table;
  std::unique_ptr<DiskLayout> Layout;
  std::unique_ptr<SymbolicFootprint> Footprint;
  std::unique_ptr<IterationGraph> Graph;
  std::unique_ptr<DiskReuseScheduler> Scheduler;
  ScheduledWork Work;
  unsigned Rounds = 0;
};

void verified(bool Ok, const char *Stage) {
  if (!Ok)
    throw std::runtime_error(std::string("verification failed at stage '") +
                             Stage + "'");
}

/// Pipeline's per-processor, per-barrier-phase restructuring, through the
/// public scheduler API.
ScheduledWork restructure(const Compiled &Cd, const PipelineConfig &Cfg,
                          const ScheduledWork &Work, unsigned &Rounds,
                          SpanRecorder &R) {
  ScheduledWork Out;
  Out.PerProc.assign(Work.PerProc.size(), {});
  Out.PhaseOf = Work.PhaseOf;
  Out.RoundOf.assign(Cd.Space->size(), 0);
  Rounds = 0;
  for (size_t P = 0; P != Work.PerProc.size(); ++P) {
    std::map<uint32_t, std::vector<GlobalIter>> ByPhase;
    for (GlobalIter G : Work.PerProc[P])
      ByPhase[Work.PhaseOf.empty() ? 0 : Work.PhaseOf[G]].push_back(G);
    unsigned StartDisk =
        unsigned(P) * Cd.Layout->numDisks() / unsigned(Work.PerProc.size());
    for (auto &[Phase, Subset] : ByPhase) {
      (void)Phase;
      std::sort(Subset.begin(), Subset.end());
      IterationGraph Sub = R.span("analysis.subgraph", [&] {
        return IterationGraph(*Cd.Table, Subset, Cfg.GraphWorkers);
      });
      Schedule S = R.span("core.schedule", [&] {
        return Cd.Scheduler->schedule(Sub, Subset, StartDisk);
      });
      Rounds = std::max(Rounds, Cd.Scheduler->lastRounds());
      for (size_t I = 0; I != S.Order.size(); ++I)
        Out.RoundOf[S.Order[I]] = S.RoundOf[I];
      Out.PerProc[P].insert(Out.PerProc[P].end(), S.Order.begin(),
                            S.Order.end());
    }
  }
  return Out;
}

/// The benchmark always compiles for paperConfig(4)'s four processors, so
/// the single-processor shortcut of Pipeline::compile is not mirrored.
Compiled compileDecomposed(const Program &P, const PipelineConfig &Cfg,
                           Scheme S, SpanRecorder &R, DiagnosticEngine &DE) {
  if (Cfg.NumProcs < 2)
    throw std::logic_error("the decomposed compile needs >= 2 processors");
  const bool Full = Cfg.Verify == VerifyLevel::Full;
  Compiled Cd;
  if (Full)
    verified(R.span("verify.ir", [&] { return IRVerifier(P, DE).verify(); }),
             "ir");
  Cd.Space = R.span("ir.iteration_space",
                    [&] { return std::make_unique<IterationSpace>(P); });
  Cd.Table = R.span("ir.table", [&] {
    return std::make_unique<TileAccessTable>(P, *Cd.Space, Cfg.GraphWorkers);
  });
  Cd.Layout = R.span("layout.build", [&] {
    return std::make_unique<DiskLayout>(P, Cfg.Striping);
  });
  Cd.Footprint = R.span("analysis.footprint", [&] {
    return std::make_unique<SymbolicFootprint>(P, *Cd.Layout, Cfg.Footprint,
                                               Cd.Table.get());
  });
  Cd.Graph = R.span("analysis.graph", [&] {
    return std::make_unique<IterationGraph>(
        *Cd.Table, std::vector<GlobalIter>{}, Cfg.GraphWorkers);
  });
  Cd.Scheduler = R.span("core.scheduler_init", [&] {
    return std::make_unique<DiskReuseScheduler>(*Cd.Table, *Cd.Layout);
  });
  if (Full) {
    verified(R.span("verify.layout",
                    [&] { return LayoutVerifier(P, *Cd.Layout, DE).verify(); }),
             "layout");
    verified(R.span("verify.footprint",
                    [&] {
                      ScheduleVerifier SV(P, *Cd.Space, *Cd.Layout, DE);
                      return SV.verifyFootprint(*Cd.Footprint);
                    }),
             "footprint");
  }
  R.span("core.compile", [&] {
    ScheduledWork Work = R.span("core.parallelize", [&] {
      ParallelPlan Plan =
          schemeLayoutAware(S)
              ? LayoutAwareParallelizer::parallelize(
                    P, *Cd.Space, *Cd.Graph, *Cd.Layout, Cfg.NumProcs,
                    /*Info=*/nullptr, Cd.Table.get(), Cd.Footprint.get())
              : LoopParallelizer::parallelize(P, *Cd.Space, *Cd.Graph,
                                              Cfg.NumProcs);
      return Plan.toWork(Cfg.NumProcs);
    });
    if (schemeRestructures(S))
      Work = R.span("core.restructure", [&] {
        return restructure(Cd, Cfg, Work, Cd.Rounds, R);
      });
    Cd.Work = std::move(Work);
  });
  if (Full)
    verified(R.span("verify.schedule",
                    [&] {
                      ScheduleVerifier SV(P, *Cd.Space, *Cd.Layout, DE);
                      return SV.verifyWork(Cd.Work);
                    }),
             "schedule");
  return Cd;
}

void countCompile(const Compiled &Cd, Counts &Out) {
  Out["ir.table_accesses"] += double(Cd.Table->numAccesses());
  Out["analysis.footprint_refs"] += double(Cd.Footprint->numRefs());
  Out["analysis.footprint_symbolic_refs"] +=
      double(Cd.Footprint->numClosedFormRefs() +
             Cd.Footprint->numRowSymbolicRefs());
  Out["core.scheduler_rounds"] += Cd.Rounds;
}

//===----------------------------------------------------------------------===//
// The paper matrix: 6 apps x 7 schemes at scale 1.0 on paperConfig(4).
//===----------------------------------------------------------------------===//

/// One (app, scheme) job.
struct Job {
  size_t App = 0;
  Scheme S = Scheme::Base;
};

std::vector<Job> shuffledJobs(size_t NumApps, uint64_t Seed) {
  std::vector<Job> Jobs;
  for (size_t A = 0; A != NumApps; ++A)
    for (Scheme S : allSchemes())
      Jobs.push_back({A, S});
  std::mt19937_64 Rng(Seed);
  std::shuffle(Jobs.begin(), Jobs.end(), Rng);
  return Jobs;
}

class MatrixWorkload : public Workload {
public:
  explicit MatrixWorkload(const BenchOptions &Opts)
      : Opts(Opts), Apps(paperApps(Opts.Smoke ? SmokeScale : 1.0)),
        Jobs(shuffledJobs(Apps.size(), Opts.Seed)) {}

  size_t passLength() const override { return Jobs.size(); }

  /// The warm-up op is the first job of the unshuffled matrix, so set-up
  /// does the same work for every seed.
  void warmUp(Checks &C) override {
    uint64_t Requests = 0;
    runJob(Job{}, C, Requests);
  }

  double runOp(size_t I, Checks &C, uint64_t &Requests) override {
    return runJob(Jobs[I % Jobs.size()], C, Requests);
  }

protected:
  const BenchOptions &Opts;
  std::vector<AppUnderTest> Apps;
  std::vector<Job> Jobs;
  std::map<std::string, uint64_t> FirstHash;

  std::string key(const Job &J) const {
    return Apps[J.App].Name + "/" + schemeName(J.S);
  }

  virtual double runJob(const Job &J, Checks &C, uint64_t &Requests) = 0;
};

class PaperMatrix final : public MatrixWorkload {
public:
  explicit PaperMatrix(const BenchOptions &Opts)
      : MatrixWorkload(Opts), Cfg(paperConfig(4)) {}

  void runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                   Counts &Out) override;

private:
  PipelineConfig Cfg; ///< paperConfig(4): attribution on, Verify Off.
  std::string LastReport;

  double runJob(const Job &J, Checks &C, uint64_t &Requests) override;
};

double PaperMatrix::runJob(const Job &J, Checks &C, uint64_t &Requests) {
  // The op, exactly as driver/ExperimentRunner runs one sweep job.
  auto T0 = Clock::now();
  Program P = Apps[J.App].Build();
  Pipeline Pipe(P, Cfg);
  AppResults App;
  App.Name = Apps[J.App].Name;
  App.Runs.push_back(Pipe.run(J.S));
  std::string Report = renderRunReportJson(Cfg, {App}, Source);
  double Ms = msSince(T0);

  const std::string Key = key(J);
  const SimResults &Sim = App.Runs[0].Sim;
  Requests = Sim.NumRequests;
  checkSimulated(Sim, Key, referenceSection(Opts, "paper-matrix"),
                 referenceSlot(Opts, "paper-matrix", Key), C);
  checkRepeat(FirstHash, Key, fnv1a(Report), C);
  LastReport = std::move(Report);
  return Ms;
}

void PaperMatrix::runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                              Counts &Out) {
  const Job &J = Jobs[I % Jobs.size()];
  const std::string Key = key(J);
  const DiskParams Disk = schemeDisk(Cfg.Disk, J.S);
  const std::string Label = std::string("sim ") + schemeName(J.S);
  DiagnosticEngine DE;

  std::optional<Program> P;
  Compiled Cd;
  Trace T;
  AppResults App;
  App.Name = Apps[J.App].Name;
  std::string Report;
  R.span("op", [&] {
    P.emplace(R.span("apps.build", [&] { return Apps[J.App].Build(); }));
    Cd = compileDecomposed(*P, Cfg, J.S, R, DE);
    T = R.span("trace.generate", [&] {
      TraceGenerator Gen(*P, *Cd.Space, *Cd.Layout, Cfg.BlockBytes,
                         Cd.Table.get());
      return Gen.generate(Cd.Work);
    });
    SchemeRun Run;
    Run.S = J.S;
    Run.AttribNames = attributionNamesOf(*P);
    Run.Sim = R.span("sim.run", [&] {
      SimEngine Engine(*Cd.Layout, Disk, schemePolicy(J.S), Cfg.Cache, nullptr,
                       Label, Cfg.Attribution);
      return Engine.run(T);
    });
    Run.SchedulerRounds = Cd.Rounds;
    Run.TraceRequests = T.size();
    Run.TraceBytes = T.totalBytes();
    Run.Locality = R.span("core.locality", [&] {
      Schedule Proc0;
      Proc0.Order = Cd.Work.PerProc[0];
      return Proc0.locality(*Cd.Table, *Cd.Layout);
    });
    App.Runs.push_back(std::move(Run));
    Report = R.span("obs.report_export",
                    [&] { return renderRunReportJson(Cfg, {App}, Source); });
  });
  C.expect(Report == LastReport,
           Key + ": decomposed compile/trace/simulate differs from "
                 "Pipeline::run");

  const SimResults &Sim = App.Runs[0].Sim;
  countCompile(Cd, Out);
  Out["trace.requests"] += double(T.size());
  Out["sim.requests"] += double(Sim.NumRequests);
  Out["sim.fragments"] += double(Sim.NumFragments);
  Out["sim.run_allocs"] += double(lastSpan(R, "sim.run").Allocs);
  Out["sim.attribution_ms"] += lastSpan(R, "sim.run").ms();
  Out["obs.report_bytes"] += double(Report.size());

  // Probes: the same trace without attribution, and with a timeline.
  R.span("probe", [&] {
    R.span("trace.index", [&] {
      TraceProcIndex Index(T);
      return Index.numProcs() + T.maxPhase() + T.maxTenant();
    });
    SimResults Bare = R.span("sim.bare", [&] {
      SimEngine Engine(*Cd.Layout, Disk, schemePolicy(J.S), Cfg.Cache,
                       nullptr, Label, /*Attribution=*/false);
      return Engine.run(T);
    });
    Out["sim.bare_ms"] += lastSpan(R, "sim.bare").ms();
    TimelineRecorder TL;
    SimResults WithTL = R.span("sim.timeline", [&] {
      SimEngine Engine(*Cd.Layout, Disk, schemePolicy(J.S), Cfg.Cache,
                       nullptr, Label, Cfg.Attribution, &TL);
      return Engine.run(T);
    });
    Out["sim.timeline_ms"] += lastSpan(R, "sim.timeline").ms();
    C.expect(sameTimings(Bare, Sim) && sameTimings(WithTL, Sim),
             Key + ": attribution or timeline changed simulated results");
  });
}

//===----------------------------------------------------------------------===//
// compile-verify: what `drac --verify --print-code` does for each job.
//===----------------------------------------------------------------------===//

class CompileVerify final : public MatrixWorkload {
public:
  explicit CompileVerify(const BenchOptions &Opts)
      : MatrixWorkload(Opts), Cfg(paperConfig(4)) {
    Cfg.Verify = VerifyLevel::Full;
    for (const AppUnderTest &A : Apps)
      Sources.push_back(printProgramAsSource(A.Build()));
  }

  void runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                   Counts &Out) override;

private:
  PipelineConfig Cfg;
  std::vector<std::string> Sources;
  uint64_t LastCode = 0;
  uint64_t LastWork = 0;

  double runJob(const Job &J, Checks &C, uint64_t &Requests) override;

  /// Checks that expanding each processor's bands gives its order back.
  /// Returns the fingerprint of the printed code.
  static uint64_t checkBands(const ScheduleCodeGen &CG,
                             const ScheduledWork &W,
                             const std::vector<std::vector<LoopBand>> &Bands,
                             const std::vector<std::string> &Code,
                             const std::string &Key, Checks &C);
};

uint64_t CompileVerify::checkBands(
    const ScheduleCodeGen &CG, const ScheduledWork &W,
    const std::vector<std::vector<LoopBand>> &Bands,
    const std::vector<std::string> &Code, const std::string &Key, Checks &C) {
  uint64_t H = fnv1a("code", 4);
  for (size_t P = 0; P != W.PerProc.size(); ++P) {
    C.expect(CG.expandBands(Bands[P]) == W.PerProc[P],
             Key + ": expandBands(rollBands(S)) != S.Order on processor " +
                 std::to_string(P));
    H = fnv1a(Code[P], H);
  }
  return H;
}

double CompileVerify::runJob(const Job &J, Checks &C, uint64_t &Requests) {
  Requests = 0;
  auto T0 = Clock::now();
  std::string Error;
  std::optional<Program> P = Parser::parse(Sources[J.App], Error);
  if (!P)
    throw std::runtime_error("parse error: " + Error);
  Pipeline Pipe(*P, Cfg);
  ScheduledWork W = Pipe.compile(J.S);
  ScheduleCodeGen CG(Pipe.program(), Pipe.space());
  std::vector<std::vector<LoopBand>> Bands(W.PerProc.size());
  std::vector<std::string> Code(W.PerProc.size());
  for (size_t Proc = 0; Proc != W.PerProc.size(); ++Proc) {
    Schedule Sch;
    Sch.Order = W.PerProc[Proc];
    Bands[Proc] = CG.rollBands(Sch);
    Code[Proc] = CG.printBands(Bands[Proc]);
  }
  double Ms = msSince(T0);

  const std::string Key = key(J);
  C.expect(Pipe.diags().numErrors() == 0, Key + ": verification errors");
  uint64_t CodeHash = checkBands(CG, W, Bands, Code, Key, C);
  uint64_t WorkHash = hashWork(W);
  uint64_t NumBands = 0;
  for (const auto &B : Bands)
    NumBands += B.size();
  if (JsonValue *Slot = referenceSlot(Opts, "compile-verify", Key)) {
    Slot->Obj["bands"] = number(double(NumBands));
    Slot->Obj["code_fnv"] = string(hex64(CodeHash));
    Slot->Obj["work_fnv"] = string(hex64(WorkHash));
  }
  if (const JsonValue *Ref = referenceSection(Opts, "compile-verify")) {
    const JsonValue *E = Ref->find(Key);
    const JsonValue *RB = E ? E->find("bands") : nullptr;
    const JsonValue *RC = E ? E->find("code_fnv") : nullptr;
    const JsonValue *RW = E ? E->find("work_fnv") : nullptr;
    C.expect(RB && RB->Num == double(NumBands), Key + ": band count differs");
    C.expect(RC && RC->Str == hex64(CodeHash), Key + ": printed code differs");
    C.expect(RW && RW->Str == hex64(WorkHash), Key + ": schedule differs");
  }
  checkRepeat(FirstHash, Key, CodeHash ^ WorkHash, C);
  LastCode = CodeHash;
  LastWork = WorkHash;
  return Ms;
}

void CompileVerify::runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                                Counts &Out) {
  const Job &J = Jobs[I % Jobs.size()];
  const std::string Key = key(J);
  DiagnosticEngine DE;
  CollectingConsumer Collected; // Pipeline keeps every diagnostic too.
  DE.addConsumer(&Collected);

  std::optional<Program> P;
  Compiled Cd;
  std::vector<std::vector<LoopBand>> Bands;
  std::vector<std::string> Code;
  R.span("op", [&] {
    P = R.span("frontend.parse", [&] {
      std::string Error;
      std::optional<Program> Parsed = Parser::parse(Sources[J.App], Error);
      if (!Parsed)
        throw std::runtime_error("parse error: " + Error);
      return Parsed;
    });
    Cd = compileDecomposed(*P, Cfg, J.S, R, DE);
    ScheduleCodeGen CG(*P, *Cd.Space);
    Bands.resize(Cd.Work.PerProc.size());
    Code.resize(Cd.Work.PerProc.size());
    for (size_t Proc = 0; Proc != Cd.Work.PerProc.size(); ++Proc)
      R.span("core.codegen", [&] {
        Schedule Sch;
        Sch.Order = Cd.Work.PerProc[Proc];
        Bands[Proc] = CG.rollBands(Sch);
        Code[Proc] = CG.printBands(Bands[Proc]);
      });
  });

  ScheduleCodeGen CG(*P, *Cd.Space);
  uint64_t CodeHash = checkBands(CG, Cd.Work, Bands, Code, Key, C);
  C.expect(DE.numErrors() == 0, Key + ": verification errors");
  C.expect(CodeHash == LastCode && hashWork(Cd.Work) == LastWork,
           Key + ": decomposed compile differs from Pipeline::compile");
  countCompile(Cd, Out);
  for (const auto &B : Bands)
    Out["core.codegen_bands"] += double(B.size());
}

//===----------------------------------------------------------------------===//
// array-1024: the bench/sharded_sim scenario, one policy per op.
//===----------------------------------------------------------------------===//

constexpr unsigned NumDisks = 1024;
constexpr unsigned NumTenants = 4;
constexpr unsigned ProcsPerTenant = 8;
constexpr int64_t TilesPerTenant = 4096;
constexpr unsigned NumPhases = 4;
constexpr uint64_t KiB32 = 32 * 1024;
constexpr uint64_t BlockBytes = 4096;

/// One tenant: a 1-D tiled array striped over all 1024 disks and a
/// closed-loop trace with power-law tile heat (U^3 puts ~87% of accesses
/// on the first eighth of the file), 1-3 tile requests, ~20% writes.
struct Tenant {
  Program P;
  DiskLayout Layout;
  Trace Replay;

  Tenant(const char *Name, const StripingConfig &C, size_t PerProc,
         uint64_t Seed)
      : P(makeProgram(Name)), Layout(P, C), Replay(ProcsPerTenant, BlockBytes) {
    std::mt19937 Rng(static_cast<std::mt19937::result_type>(Seed));
    std::uniform_real_distribution<double> HeatD(0.0, 1.0);
    std::uniform_int_distribution<int> SizeD(1, 3);
    std::uniform_real_distribution<double> ThinkD(0.0, 25.0);
    std::uniform_int_distribution<int> WriteD(0, 4);
    std::uniform_int_distribution<uint32_t> RefD(0, 1);
    for (uint32_t Proc = 0; Proc != ProcsPerTenant; ++Proc) {
      for (size_t I = 0; I != PerProc; ++I) {
        double U = HeatD(Rng);
        auto Tile = int64_t(double(TilesPerTenant - 4) * U * U * U);
        Request R;
        R.StartBlock = uint64_t(Tile) * KiB32 / BlockBytes;
        R.SizeBytes = uint64_t(SizeD(Rng)) * KiB32;
        R.IsWrite = WriteD(Rng) == 0;
        R.Proc = Proc;
        R.ThinkMs = ThinkD(Rng);
        R.Phase = uint32_t(I * NumPhases / PerProc);
        if (I % 6 != 5) // every sixth request stays unattributed
          R.Prov = Provenance{0, RefD(Rng), uint32_t(I % 2)};
        Replay.addRequest(R);
      }
    }
  }

  static Program makeProgram(const char *Name) {
    ProgramBuilder B(Name);
    ArrayId U = B.addArray("U", {TilesPerTenant});
    B.beginNest("scan", 1.0).loop(0, TilesPerTenant).read(U, {iv(0)}).endNest();
    return B.build();
  }
};

struct PolicyRow {
  Scheme S;
  PowerPolicyKind Policy;
};
constexpr PolicyRow Policies[] = {{Scheme::Base, PowerPolicyKind::None},
                                  {Scheme::Tpm, PowerPolicyKind::Tpm},
                                  {Scheme::Drpm, PowerPolicyKind::Drpm}};

MergedWorkload makeArray(uint64_t Seed, size_t PerProc) {
  StripingConfig C;
  C.StripeFactor = NumDisks;
  const char *Names[NumTenants] = {"olap", "ingest", "backup", "scratch"};
  std::vector<std::unique_ptr<Tenant>> Tenants;
  for (unsigned T = 0; T != NumTenants; ++T)
    Tenants.push_back(
        std::make_unique<Tenant>(Names[T], C, PerProc, Seed + 77 * T));
  std::vector<TenantInput> Inputs(NumTenants);
  for (unsigned T = 0; T != NumTenants; ++T) {
    Inputs[T].Label = Names[T];
    Inputs[T].Prog = &Tenants[T]->P;
    Inputs[T].Replay = &Tenants[T]->Replay;
    Inputs[T].Layout = &Tenants[T]->Layout;
    Inputs[T].Names = attributionNamesOf(Tenants[T]->P);
    Inputs[T].StartMs = 250.0 * T;
  }
  return mergeTenants(Inputs);
}

class Array1024 final : public Workload {
public:
  explicit Array1024(const BenchOptions &Opts)
      : Opts(Opts), W(makeArray(Opts.Seed, Opts.Smoke ? 40 : 400)) {
    RepCfg.NumProcs = W.Replay.numProcs();
  }

  size_t passLength() const override { return std::size(Policies); }
  void warmUp(Checks &C) override {
    uint64_t Requests = 0;
    runOp(0, C, Requests);
  }
  double runOp(size_t I, Checks &C, uint64_t &Requests) override;
  void runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                   Counts &Out) override;

private:
  const BenchOptions &Opts;
  MergedWorkload W;
  DiskParams Disk;
  PipelineConfig RepCfg; ///< Report header, as `drac --tenants` writes it.
  std::map<std::string, uint64_t> FirstHash;
  uint64_t LastHash = 0;

  SchemeRun makeRun(Scheme S, SimResults Sim) const {
    SchemeRun Run;
    Run.S = S;
    Run.Sim = std::move(Sim);
    Run.AttribNames = W.Names;
    Run.TraceRequests = W.Replay.size();
    Run.TraceBytes = W.Replay.totalBytes();
    return Run;
  }
};

double Array1024::runOp(size_t I, Checks &C, uint64_t &Requests) {
  const PolicyRow &Row = Policies[I % std::size(Policies)];
  const std::string Label = std::string("sim ") + schemeName(Row.S);
  auto T0 = Clock::now();
  TimelineRecorder TL;
  SimEngine Engine(W.Layout, Disk, Row.Policy, CacheConfig(), nullptr, Label,
                   /*Attribution=*/true, &TL);
  AppResults App;
  App.Name = "multitenant";
  App.Runs.push_back(makeRun(Row.S, Engine.run(W.Replay)));
  std::string Report = renderRunReportJson(RepCfg, {App}, Source);
  std::string Timeline = renderTimelineJson(TL, Source);
  double Ms = msSince(T0);

  const std::string Key = schemeName(Row.S);
  const SimResults &Sim = App.Runs[0].Sim;
  Requests = Sim.NumRequests;
  const bool Referenced = Opts.Seed == DefaultSeed && !Opts.Smoke;
  checkSimulated(Sim, Key,
                 Referenced ? referenceSection(Opts, "array-1024") : nullptr,
                 Referenced ? referenceSlot(Opts, "array-1024", Key) : nullptr,
                 C);
  LastHash = fnv1a(Timeline, fnv1a(Report));
  checkRepeat(FirstHash, Key, LastHash, C);
  return Ms;
}

void Array1024::runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                            Counts &Out) {
  const PolicyRow &Row = Policies[I % std::size(Policies)];
  const std::string Key = schemeName(Row.S);
  const std::string SimLabel = std::string("sim ") + schemeName(Row.S);

  TimelineRecorder TL;
  AppResults App;
  App.Name = "multitenant";
  std::string Report, Timeline;
  R.span("op", [&] {
    SimResults Sim = R.span("sim.run", [&] {
      SimEngine Engine(W.Layout, Disk, Row.Policy, CacheConfig(), nullptr,
                       SimLabel, /*Attribution=*/true, &TL);
      return Engine.run(W.Replay);
    });
    App.Runs.push_back(makeRun(Row.S, std::move(Sim)));
    Report = R.span("obs.report_export",
                    [&] { return renderRunReportJson(RepCfg, {App}, Source); });
    Timeline = R.span("obs.timeline_export",
                      [&] { return renderTimelineJson(TL, Source); });
  });
  C.expect(fnv1a(Timeline, fnv1a(Report)) == LastHash,
           Key + ": traced exports differ from the untraced op");

  const SimResults &Sim = App.Runs[0].Sim;
  Out["sim.requests"] += double(Sim.NumRequests);
  Out["sim.fragments"] += double(Sim.NumFragments);
  Out["sim.run_allocs"] += double(lastSpan(R, "sim.run").Allocs);
  Out["sim.timeline_ms"] += lastSpan(R, "sim.run").ms();
  Out["obs.report_bytes"] += double(Report.size());
  Out["obs.timeline_bytes"] += double(Timeline.size());
  for (const RunTimeline &Run : TL.runs())
    for (const DiskTimeline &D : Run.Disks)
      Out["obs.timeline_windows"] += double(D.Windows.size());

  // Probes: bare and attribution-only replays, and the sharded engine with
  // one worker per spare hardware thread (its output must be identical).
  unsigned Workers = std::max(2u, std::thread::hardware_concurrency()) - 1;
  R.span("probe", [&] {
    R.span("trace.index", [&] {
      TraceProcIndex Index(W.Replay);
      return Index.numProcs() + W.Replay.maxPhase() + W.Replay.maxTenant();
    });
    SimResults Bare = R.span("sim.bare", [&] {
      SimEngine Engine(W.Layout, Disk, Row.Policy, CacheConfig(), nullptr,
                       SimLabel, /*Attribution=*/false);
      return Engine.run(W.Replay);
    });
    SimResults Attr = R.span("sim.attribution", [&] {
      SimEngine Engine(W.Layout, Disk, Row.Policy, CacheConfig(), nullptr,
                       SimLabel, /*Attribution=*/true);
      return Engine.run(W.Replay);
    });
    SimResults Sharded = R.span("sim.sharded", [&] {
      ShardedSimEngine Engine(W.Layout, Disk, Row.Policy, Workers, 0.0,
                              CacheConfig(), nullptr, SimLabel,
                              /*Attribution=*/true);
      return Engine.run(W.Replay);
    });
    Out["sim.bare_ms"] += lastSpan(R, "sim.bare").ms();
    Out["sim.attribution_ms"] += lastSpan(R, "sim.attribution").ms();
    Out["sim.sharded_ms"] += lastSpan(R, "sim.sharded").ms();
    C.expect(sameTimings(Bare, Sim) && sameTimings(Attr, Sim),
             Key + ": attribution or timeline changed simulated results");
    JsonWriter A, B;
    writeSimResultsJson(A, Attr);
    writeSimResultsJson(B, Sharded);
    C.expect(A.take() == B.take(),
             Key + ": sharded replay differs from the serial engine");
  });
}

} // namespace

std::vector<std::string> perfbench::workloadNames() {
  return {"paper-matrix", "compile-verify", "array-1024"};
}

std::unique_ptr<Workload> perfbench::makeWorkload(const BenchOptions &Opts) {
  if (Opts.Workload == "paper-matrix")
    return std::make_unique<PaperMatrix>(Opts);
  if (Opts.Workload == "compile-verify")
    return std::make_unique<CompileVerify>(Opts);
  if (Opts.Workload == "array-1024")
    return std::make_unique<Array1024>(Opts);
  return nullptr;
}
