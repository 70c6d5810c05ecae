//===- core/Pipeline.h - End-to-end driver ----------------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline runs one application through one of the seven experimental
/// versions of Sec. 7.1 — compile (parallelize + restructure), generate the
/// I/O trace, and simulate it:
///
///   Base     no power management, original code
///   TPM      spin-down policy, original code
///   DRPM     multi-speed policy, original code
///   T-TPM-s  Sec. 5 disk-reuse restructuring per processor + TPM
///   T-DRPM-s Sec. 5 disk-reuse restructuring per processor + DRPM
///   T-TPM-m  Sec. 6.2 layout-aware parallelization + restructuring + TPM
///   T-DRPM-m Sec. 6.2 layout-aware parallelization + restructuring + DRPM
///
/// In multi-processor runs the non-"-m" versions use the conventional
/// loop-based parallelization of Sec. 6.1.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_PIPELINE_H
#define DRA_CORE_PIPELINE_H

#include "analysis/SymbolicFootprint.h"
#include "core/DiskReuseScheduler.h"
#include "core/LayoutAwareParallelizer.h"
#include "sim/SimEngine.h"
#include "support/Diagnostic.h"

#include <memory>
#include <string>

namespace dra {

class EventTracer;
class MetricsRegistry;
class ScheduleVerifier;

/// The seven experimental versions (Sec. 7.1).
enum class Scheme { Base, Tpm, Drpm, TTpmS, TDrpmS, TTpmM, TDrpmM };

/// Paper-style name, e.g. "T-DRPM-m".
const char *schemeName(Scheme S);

/// All seven schemes in paper order.
std::vector<Scheme> allSchemes();

/// The five schemes evaluated in single-processor mode (Fig. 9(a)).
std::vector<Scheme> singleProcSchemes();

/// Power policy used by a scheme.
PowerPolicyKind schemePolicy(Scheme S);

/// The disk parameters scheme \p S simulates with: the restructured
/// versions also get the compiler's proactive power hints — spin-up calls
/// for TPM (Son et al. [25]) and ramp-up calls for DRPM; the plain
/// hardware policies stay reactive.
DiskParams schemeDiskParams(Scheme S, DiskParams Disk);

/// Whether the scheme applies the Sec. 5 restructuring.
bool schemeRestructures(Scheme S);

/// Whether the scheme uses the Sec. 6.2 layout-aware parallelization.
bool schemeLayoutAware(Scheme S);

/// Scheme lookup by paper-style name; returns false when \p Name matches
/// no scheme.
bool schemeByName(const std::string &Name, Scheme &Out);

/// Labels for the attribution keys of \p P: nest names, and per-reference
/// "<array>.<r|w><body-index>" (unique and flame-stack friendly). Shared by
/// Pipeline::run and the online serving mode so both report identical
/// label sets.
AttributionNames attributionNamesOf(const Program &P);

/// How much independent verification the pipeline runs after each compile
/// stage (docs/VERIFICATION.md):
///   Off    trust the transformations (the seed behaviour);
///   Cheap  O(program) structural checks — IR well-formedness, striping
///          config, schedule partition/phases, locality recount;
///   Full   Cheap plus the complete legality proof — byte-exact layout
///          bijection and dependence re-derivation for every schedule.
enum class VerifyLevel { Off, Cheap, Full };

/// Every pass the pipeline times into a pass.<name>.wall_ms histogram, in
/// execution order; the verify-* passes run only when verification is on.
/// No two of them nest, so each histogram is exclusive time. The inclusive
/// "compile" span (parallelize + restructure + verify-schedule) is left out
/// so a table over this list never double-counts.
inline constexpr const char *TimedPasses[] = {
    "verify-ir",        "iteration-space",    "tile-access-table",
    "disk-layout",      "symbolic-footprint", "dependence-graph",
    "scheduler-init",   "verify-layout",      "verify-footprint",
    "parallelize",      "restructure",        "verify-schedule",
    "trace-gen",        "simulate"};

/// Pipeline configuration: machine + compilation parameters.
struct PipelineConfig {
  unsigned NumProcs = 1;
  StripingConfig Striping;
  DiskParams Disk;
  uint64_t BlockBytes = 4096;
  /// Per-array starting iodevice overrides (a LayoutChoice's, which the
  /// optimizer scored by running this pipeline); empty means every file
  /// starts at Striping.StartDisk.
  std::vector<unsigned> ArrayStartDisks;
  /// Optional storage cache in front of the disks (Sec. 3 related work).
  CacheConfig Cache;
  /// Ignored: the table and dependence-graph builds are serial
  /// (docs/PERFORMANCE.md). Kept only until the benchmark's decomposed
  /// compile stops passing it.
  unsigned GraphWorkers = 0;
  /// Tile-sized scratch slots reserved after the program's files — the
  /// online serving mode's ad-hoc object store (docs/SERVING.md). 0 (the
  /// default) leaves the layout exactly as before; batch runs never need
  /// scratch.
  uint64_t ScratchTiles = 0;
  /// How the symbolic-footprint pass derives per-reference tile demand
  /// (docs/ANALYSIS.md): Auto (default) uses the closed forms and falls
  /// back to shared-table rows for irregular references; Enumerated forces
  /// the fallback everywhere (the differential oracle). Both modes produce
  /// identical counts.
  FootprintMode Footprint = FootprintMode::Auto;
  /// Independent verification level; errors throw VerificationError.
  VerifyLevel Verify = VerifyLevel::Off;
  /// Source-attributed energy profiling (sim/Attribution.h,
  /// docs/OBSERVABILITY.md "Attribution"): the simulator always charges
  /// every joule to its originating (nest, reference, round) key and folds
  /// those entries into the ledgers; this only chooses whether runs export
  /// the per-key attribution. Every other result is bit-identical either
  /// way.
  bool Attribution = true;
  /// Optional telemetry sinks (docs/OBSERVABILITY.md). When attached, the
  /// pipeline records per-pass spans/metrics and each simulation emits a
  /// per-disk power-state timeline. Purely observational: all results are
  /// identical with and without sinks.
  EventTracer *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;
  /// Optional simulated-time series recorder (obs/Timeline.h,
  /// docs/OBSERVABILITY.md "Time series & SLOs"): each simulated scheme
  /// appends one run of per-disk power-state/energy windows and per-phase
  /// request latency. Purely observational like the sinks above.
  TimelineRecorder *Timeline = nullptr;
};

/// The "simulate" step of Pipeline and of the front ends that assemble
/// their own traces (multi-tenant merges, online sessions): replays \p T on
/// \p Layout with scheme \p S's disk parameters and power policy, and
/// with \p Cfg's cache and sinks.
SimResults simulateScheme(Scheme S, const DiskLayout &Layout,
                          const PipelineConfig &Cfg, const Trace &T);

/// The result of running one scheme.
struct SchemeRun {
  Scheme S = Scheme::Base;
  SimResults Sim;
  ScheduleLocality Locality; ///< Of processor 0's order.
  unsigned SchedulerRounds = 0;
  uint64_t TraceRequests = 0;
  uint64_t TraceBytes = 0;
  /// Labels for the attribution keys in Sim.PerDisk[*].Attrib (nest and
  /// reference names from the program); empty when attribution was off.
  AttributionNames AttribNames;
};

/// End-to-end compile + trace + simulate driver for one application.
///
/// Thread-safety contract (relied on by driver/ExperimentRunner): distinct
/// Pipeline instances share no mutable state — the library keeps no global
/// or function-local static mutable data — so any number of pipelines may
/// compile/trace/run concurrently from different threads. One *instance* is
/// NOT safe for concurrent use: compile()/run() are logically const but
/// mutate the diagnostic engine and the scheduler's round telemetry
/// through `mutable` members. Give each concurrent job its own
/// Pipeline (and its own EventTracer/MetricsRegistry sinks, or rely on
/// their internal locking — see obs/Tracer.h, obs/Metrics.h).
class Pipeline {
public:
  Pipeline(const Program &P, PipelineConfig Config);

  // The diagnostic engine holds a pointer into this object (the collecting
  // consumer), so the pipeline must stay put.
  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;
  ~Pipeline();

  const Program &program() const { return Prog; }
  const IterationSpace &space() const { return *Space; }
  const DiskLayout &layout() const { return *Layout; }
  const PipelineConfig &config() const { return Config; }

  /// The shared per-iteration tile-access table: the single virtual
  /// execution all compile-path passes read from (docs/PERFORMANCE.md).
  const TileAccessTable &table() const { return *Table; }

  /// The symbolic footprint analysis (per-nest tile demand and per-disk
  /// counts, docs/ANALYSIS.md), derived in the mode Config.Footprint asks
  /// for and cross-checked against the table when verification is on.
  const SymbolicFootprint &footprint() const { return *Footprint; }

  /// The whole-program dependence DAG (built once per pipeline). The online
  /// serving mode reads in-degrees/successors from it to gate arrivals.
  const IterationGraph &graph() const { return *Graph; }

  /// The shared disk-reuse scheduler (masks computed once from the table).
  /// schedule() is logically const; see the thread-safety contract above.
  const DiskReuseScheduler &scheduler() const { return *Scheduler; }

  /// Builds the scheduled work for \p S (parallelization + restructuring),
  /// without simulating.
  ScheduledWork compile(Scheme S) const;

  /// The "trace-gen" pass: \p Work, compiled for \p S, as an I/O trace.
  Trace trace(Scheme S, const ScheduledWork &Work) const;

  /// Compiles \p S and generates its I/O trace.
  Trace trace(Scheme S) const { return trace(S, compile(S)); }

  /// The "simulate" pass and the run's accounting: replays \p T, the trace
  /// of \p Work compiled for \p S. Scheduler rounds and locality come from
  /// \p Work, so a caller that keeps the work and trace (to print code or
  /// dump the trace) compiles each scheme once.
  SchemeRun simulate(Scheme S, const ScheduledWork &Work,
                     const Trace &T) const;

  /// Full run: compile, trace, simulate.
  SchemeRun run(Scheme S) const;

  /// The diagnostic engine verification reports into. Attach a consumer
  /// (e.g. a StreamingConsumer) before triggering compiles to observe
  /// remarks and errors as they are produced.
  DiagnosticEngine &diags() const { return DE; }

  /// Every diagnostic reported so far (the engine's built-in collector).
  const CollectingConsumer &collectedDiags() const { return Collected; }

private:
  Program Prog;
  PipelineConfig Config;
  std::unique_ptr<IterationSpace> Space;
  std::unique_ptr<TileAccessTable> Table;
  std::unique_ptr<DiskLayout> Layout;
  std::unique_ptr<SymbolicFootprint> Footprint;
  std::unique_ptr<IterationGraph> Graph;
  std::unique_ptr<DiskReuseScheduler> Scheduler;
  /// The schedule verifier of every check after construction (null when
  /// verification is off). At Full it walks the program once, in the
  /// constructor, and each compile() and simulate() reuses what that walk
  /// derived; at Cheap it reads the shared table.
  std::unique_ptr<ScheduleVerifier> Verifier;
  mutable DiagnosticEngine DE;
  mutable CollectingConsumer Collected;
  /// Trace process id of the compiler's wall-clock timeline (0 = no tracer).
  uint64_t TracePid = 0;

  /// Throws VerificationError naming \p Stage when \p Ok is false,
  /// summarizing the first collected error.
  void checkVerified(bool Ok, const char *Stage) const;

  /// Applies the Sec. 5 restructuring to each processor's work, one barrier
  /// phase at a time (reordering may not cross a barrier).
  ScheduledWork restructurePerProc(const ScheduledWork &Work) const;
};

} // namespace dra

#endif // DRA_CORE_PIPELINE_H
