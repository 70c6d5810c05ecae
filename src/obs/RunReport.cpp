//===- obs/RunReport.cpp - JSON run reports ---------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/RunReport.h"

#include "obs/IdleGapAnalyzer.h"
#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "obs/Tracer.h"
#include "support/FileIO.h"
#include "support/Parallel.h"

#include <cmath>
#include <set>
#include <span>
#include <string_view>

using namespace dra;

static void writeIdleHistJson(JsonWriter &W, const DurationHistogram &H) {
  W.beginObject();
  W.key("total_count");
  W.value(H.totalCount());
  W.key("total_duration_s");
  W.value(H.totalDuration());
  W.key("buckets");
  W.beginArray();
  for (unsigned B = 0; B != H.numBuckets(); ++B) {
    if (H.bucketCount(B) == 0)
      continue;
    W.beginObject();
    W.key("lo");
    W.value(H.bucketLowerEdge(B));
    W.key("hi");
    W.value(H.bucketUpperEdge(B)); // Overflow bucket renders null (inf).
    W.key("count");
    W.value(H.bucketCount(B));
    W.key("sum");
    W.value(H.bucketDuration(B));
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

static void writeDiskStatsJson(JsonWriter &W, unsigned DiskId,
                               const DiskStats &S) {
  W.beginObject();
  W.key("disk");
  W.value(DiskId);
  W.key("num_requests");
  W.value(S.NumRequests);
  W.key("busy_ms");
  W.value(S.BusyMs);
  W.key("energy_j");
  W.value(S.EnergyJ);
  W.key("response_sum_ms");
  W.value(S.ResponseSumMs);
  W.key("idle_ms_total");
  W.value(S.IdleMsTotal);
  W.key("spin_downs");
  W.value(uint64_t(S.SpinDowns));
  W.key("spin_ups");
  W.value(uint64_t(S.SpinUps));
  W.key("rpm_steps");
  W.value(uint64_t(S.RpmSteps));
  W.key("idle_hist");
  writeIdleHistJson(W, S.IdleHist);
  W.endObject();
}

/// The flat category fields of one ledger (no wrapping object).
static void writeLedgerCategories(JsonWriter &W, const EnergyLedger &L) {
  W.key("active_read_j");
  W.value(L.ActiveReadJ);
  W.key("active_write_j");
  W.value(L.ActiveWriteJ);
  W.key("idle_by_rpm_j");
  W.beginObject();
  for (const auto &[Rpm, Joules] : L.IdleByRpmJ) {
    W.key(std::to_string(Rpm));
    W.value(Joules);
  }
  W.endObject();
  W.key("spin_down_j");
  W.value(L.SpinDownJ);
  W.key("spin_up_j");
  W.value(L.SpinUpJ);
  W.key("standby_j");
  W.value(L.StandbyJ);
  W.key("rpm_step_j");
  W.value(L.RpmStepJ);
  W.key("ready_penalty_j");
  W.value(L.ReadyPenaltyJ);
}

static void writeGapStatsJson(JsonWriter &W, const GapStats &G) {
  W.beginObject();
  W.key("count");
  W.value(G.Gaps);
  W.key("idle_s_total");
  W.value(G.idleSTotal());
  W.key("below_break_even");
  W.beginObject();
  W.key("count");
  W.value(G.GapsBelowBreakEven);
  W.key("idle_s");
  W.value(G.IdleSBelowBreakEven);
  W.endObject();
  W.key("at_least_break_even");
  W.beginObject();
  W.key("count");
  W.value(G.GapsAtLeastBreakEven);
  W.key("idle_s");
  W.value(G.IdleSAtLeastBreakEven);
  W.endObject();
  W.key("missed_opportunity_j");
  W.value(G.MissedOpportunityJ);
  W.key("coverage_at_least_break_even");
  W.value(G.CoverageAtLeastBreakEven);
  W.key("p50_s");
  W.value(G.P50S);
  W.key("p95_s");
  W.value(G.P95S);
  W.key("p99_s");
  W.value(G.P99S);
  W.endObject();
}

void dra::writeLedgerSectionJson(JsonWriter &W, const SimResults &R,
                                 double BreakEvenS) {
  IdleGapAnalysis A = analyzeIdleGaps(R, BreakEvenS);
  EnergyLedger Total = R.totalLedger();
  double SumJ = Total.totalJ();
  double Scale = std::max({1.0, std::fabs(SumJ), std::fabs(R.EnergyJ)});
  W.beginObject();
  W.key("schema");
  W.value("dra-ledger-v1");
  W.key("break_even_s");
  W.value(BreakEvenS);
  W.key("total");
  W.beginObject();
  W.key("energy_j");
  W.value(R.EnergyJ);
  W.key("sum_j");
  W.value(SumJ);
  W.key("audit_rel_error");
  W.value(std::fabs(SumJ - R.EnergyJ) / Scale);
  writeLedgerCategories(W, Total);
  W.endObject();
  W.key("gaps");
  writeGapStatsJson(W, A.Total);
  W.key("per_disk");
  W.beginArray();
  writeElements(W, R.PerDisk.size(), [&](JsonWriter &Elem, size_t D) {
    const DiskStats &S = R.PerDisk[D];
    Elem.beginObject();
    Elem.key("disk");
    Elem.value(unsigned(D));
    Elem.key("energy_j");
    Elem.value(S.EnergyJ);
    writeLedgerCategories(Elem, S.Ledger);
    Elem.key("gaps");
    writeGapStatsJson(Elem, A.PerDisk[D].Stats);
    Elem.endObject();
  });
  W.endArray();
  W.endObject();
}

void dra::writeSimResultsJson(JsonWriter &W, const SimResults &R) {
  W.beginObject();
  W.key("wall_time_ms");
  W.value(R.WallTimeMs);
  W.key("io_time_ms");
  W.value(R.IoTimeMs);
  W.key("energy_j");
  W.value(R.EnergyJ);
  W.key("response_sum_ms");
  W.value(R.ResponseSumMs);
  W.key("avg_response_ms");
  W.value(R.avgResponseMs());
  W.key("num_requests");
  W.value(R.NumRequests);
  W.key("num_fragments");
  W.value(R.NumFragments);
  W.key("spin_downs");
  W.value(uint64_t(R.SpinDowns));
  W.key("spin_ups");
  W.value(uint64_t(R.SpinUps));
  W.key("rpm_steps");
  W.value(uint64_t(R.RpmSteps));
  W.key("cache");
  W.beginObject();
  W.key("hits");
  W.value(R.Cache.Hits);
  W.key("misses");
  W.value(R.Cache.Misses);
  W.key("writes");
  W.value(R.Cache.Writes);
  W.key("evictions");
  W.value(R.Cache.Evictions);
  W.key("power_aware_evictions");
  W.value(R.Cache.PowerAwareEvictions);
  W.key("hit_rate");
  W.value(R.Cache.hitRate());
  W.endObject();
  W.key("per_disk");
  W.beginArray();
  writeElements(W, R.PerDisk.size(), [&R](JsonWriter &Elem, size_t D) {
    writeDiskStatsJson(Elem, unsigned(D), R.PerDisk[D]);
  });
  W.endArray();
  W.endObject();
}

/// The flat measurement fields of one attribution entry (no wrapping
/// object): total joules, busy/stall time, request count, raw categories.
static void writeAttribEntryFields(JsonWriter &W, const AttribEntry &E) {
  W.key("energy_j");
  W.value(E.Energy.totalJ());
  W.key("busy_ms");
  W.value(E.BusyMs);
  W.key("ready_delay_ms");
  W.value(E.ReadyDelayMs);
  W.key("num_requests");
  W.value(E.NumRequests);
  writeLedgerCategories(W, E.Energy);
}

void dra::writeAttributionSectionJson(JsonWriter &W, const SchemeRun &R) {
  // Aggregate the per-disk maps, collapsing rounds: per nest, per (nest,
  // ref), and the whole run (sim/Attribution.h AttributionRollup). The
  // unattributed bucket (Nest == None) is kept out of the nest rollup and
  // reported on its own.
  AttributionRollup Rollup;
  for (const DiskStats &S : R.Sim.PerDisk)
    Rollup.add(S.Attrib);

  W.beginObject();
  W.key("schema");
  W.value("dra-attrib-v1");
  W.key("total");
  W.beginObject();
  writeAttribEntryFields(W, Rollup.Total);
  W.endObject();
  W.key("nests");
  W.beginArray();
  for (const auto &[Nest, E] : Rollup.PerNest) {
    W.beginObject();
    W.key("nest");
    W.value(Nest);
    W.key("label");
    W.value(R.AttribNames.nestLabel(Nest));
    W.key("rounds");
    W.value(uint64_t(Rollup.NestRounds[Nest].size()));
    writeAttribEntryFields(W, E);
    W.key("refs");
    W.beginArray();
    for (auto It = Rollup.PerRef.lower_bound({Nest, 0});
         It != Rollup.PerRef.end() && It->first.first == Nest; ++It) {
      W.beginObject();
      W.key("ref");
      W.value(It->first.second);
      W.key("label");
      W.value(R.AttribNames.refLabel(Nest, It->first.second));
      writeAttribEntryFields(W, It->second);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("unattributed");
  W.beginObject();
  writeAttribEntryFields(W, Rollup.Unattributed);
  W.endObject();
  W.key("per_disk");
  W.beginArray();
  writeElements(W, R.Sim.PerDisk.size(), [&R](JsonWriter &Elem, size_t D) {
    // The per-disk view collapses refs and rounds into nest totals. The map
    // is ordered by (Nest, Ref, Round), so each nest's entries are one
    // contiguous run, summed here in the order AttributionRollup::add
    // would sum them (same bits), and the unattributed keys sort last.
    const AttributionMap &M = R.Sim.PerDisk[D].Attrib;
    AttribEntry Unattributed;
    Elem.beginObject();
    Elem.key("disk");
    Elem.value(unsigned(D));
    Elem.key("nests");
    Elem.beginArray();
    for (auto It = M.begin(); It != M.end();) {
      const uint32_t Nest = It->first.Nest;
      if (It->first.unattributed()) {
        Unattributed += It->second;
        ++It;
        continue;
      }
      AttribEntry E;
      for (; It != M.end() && It->first.Nest == Nest; ++It)
        E += It->second;
      Elem.beginObject();
      Elem.key("nest");
      Elem.value(Nest);
      Elem.key("label");
      Elem.value(R.AttribNames.nestLabel(Nest));
      writeAttribEntryFields(Elem, E);
      Elem.endObject();
    }
    Elem.endArray();
    Elem.key("unattributed");
    Elem.beginObject();
    writeAttribEntryFields(Elem, Unattributed);
    Elem.endObject();
    Elem.endObject();
  });
  W.endArray();
  W.endObject();
}

void dra::writeSchemeRunJson(JsonWriter &W, const SchemeRun &R,
                             double BreakEvenS) {
  W.beginObject();
  W.key("scheme");
  W.value(schemeName(R.S));
  W.key("sim");
  writeSimResultsJson(W, R.Sim);
  W.key("ledger");
  writeLedgerSectionJson(W, R.Sim, BreakEvenS);
  if (R.Sim.AttributionEnabled) {
    W.key("attribution");
    writeAttributionSectionJson(W, R);
  }
  W.key("locality");
  W.beginObject();
  W.key("disk_switches");
  W.value(R.Locality.DiskSwitches);
  W.key("disk_visits");
  W.value(R.Locality.DiskVisits);
  W.key("disks_used");
  W.value(R.Locality.DisksUsed);
  W.endObject();
  W.key("scheduler_rounds");
  W.value(uint64_t(R.SchedulerRounds));
  W.key("trace_requests");
  W.value(R.TraceRequests);
  W.key("trace_bytes");
  W.value(R.TraceBytes);
  W.endObject();
}

namespace {

/// One app of a dra-report-v1 document: its name, its runs and, when
/// rendered, its dra-footprint-v1 body. Views into the caller's results,
/// so no renderer copies a run.
struct AppView {
  std::string_view Name;
  std::span<const SchemeRun> Runs;
  std::string_view FootprintJson;
};

AppView viewOf(const AppResults &A) {
  return {A.Name, A.Runs, A.FootprintJson};
}

std::string renderReport(const PipelineConfig &Cfg,
                         std::span<const AppView> Apps,
                         const std::string &Source) {
  double BreakEvenS = Cfg.Disk.TpmBreakEvenS;
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("dra-report-v1");
  W.key("source");
  W.value(Source);
  W.key("config");
  W.beginObject();
  W.key("procs");
  W.value(Cfg.NumProcs);
  W.key("block_bytes");
  W.value(Cfg.BlockBytes);
  W.key("stripe_factor");
  W.value(Cfg.Striping.StripeFactor);
  W.key("stripe_unit_bytes");
  W.value(Cfg.Striping.StripeUnitBytes);
  W.key("disks_per_node");
  W.value(Cfg.Striping.DisksPerNode);
  W.key("start_disk");
  W.value(Cfg.Striping.StartDisk);
  W.endObject();
  W.key("apps");
  W.beginArray();
  for (const AppView &A : Apps) {
    W.beginObject();
    W.key("app");
    W.value(A.Name);
    W.key("runs");
    W.beginArray();
    for (const SchemeRun &R : A.Runs)
      writeSchemeRunJson(W, R, BreakEvenS);
    W.endArray();
    if (!A.FootprintJson.empty()) {
      // Pre-rendered dra-footprint-v1 body (docs/FORMATS.md).
      W.key("footprint");
      W.rawValue(A.FootprintJson);
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

} // namespace

std::string dra::renderRunReportJson(const PipelineConfig &Cfg,
                                     const std::vector<AppResults> &Apps,
                                     const std::string &Source) {
  std::vector<AppView> Views;
  Views.reserve(Apps.size());
  for (const AppResults &A : Apps)
    Views.push_back(viewOf(A));
  return renderReport(Cfg, Views, Source);
}

std::string dra::renderRunReportJson(const PipelineConfig &Cfg,
                                     const AppResults &App,
                                     const std::string &Source) {
  const AppView View = viewOf(App);
  return renderReport(Cfg, {&View, 1}, Source);
}

std::string dra::renderRunReportJson(const PipelineConfig &Cfg,
                                     std::string_view AppName,
                                     const SchemeRun &Run,
                                     const std::string &Source) {
  const AppView View{AppName, {&Run, 1}, {}};
  return renderReport(Cfg, {&View, 1}, Source);
}

/// One collapsed-stack flame line: \p Prefix holds the ';'-joined frames
/// up to and including the trailing ';', then the category frame, a space
/// and the weight, matching the flamegraph.pl/speedscope collapsed format.
/// Zero weights are elided.
static void appendFlameLine(std::string &Out, std::string_view Prefix,
                            std::string_view Category, double Joules) {
  if (Joules == 0.0)
    return;
  Out += Prefix;
  Out += Category;
  Out += ' ';
  appendJsonNumber(Out, Joules);
  Out += '\n';
}

/// Appends the flame stacks of \p A's runs to \p Out; \p Prefix is the
/// caller's reused frame buffer.
static void appendAppFlame(std::string &Out, std::string &Prefix,
                           const AppResults &A) {
  for (const SchemeRun &R : A.Runs) {
    if (!R.Sim.AttributionEnabled)
      continue;
    const std::string_view Scheme = schemeName(R.S);
    for (size_t D = 0; D != R.Sim.PerDisk.size(); ++D) {
      // Collapse rounds per (nest, ref) so each stack appears once: the
      // map is ordered by (Nest, Ref, Round), so each (nest, ref) is one
      // contiguous run of entries.
      const AttributionMap &M = R.Sim.PerDisk[D].Attrib;
      for (auto It = M.begin(); It != M.end();) {
        const uint32_t Nest = It->first.Nest, Ref = It->first.Ref;
        EnergyLedger L;
        for (; It != M.end() && It->first.Nest == Nest &&
               It->first.Ref == Ref;
             ++It)
          L += It->second.Energy;
        Prefix.assign(A.Name);
        Prefix += ';';
        Prefix += Scheme;
        Prefix += ';';
        Prefix += R.AttribNames.nestLabel(Nest);
        Prefix += ';';
        Prefix += R.AttribNames.refLabel(Nest, Ref);
        Prefix += ";disk";
        Prefix += std::to_string(D);
        Prefix += ';';
        appendFlameLine(Out, Prefix, "active_read", L.ActiveReadJ);
        appendFlameLine(Out, Prefix, "active_write", L.ActiveWriteJ);
        for (const auto &[Rpm, Joules] : L.IdleByRpmJ)
          appendFlameLine(Out, Prefix, "idle@" + std::to_string(Rpm),
                          Joules);
        appendFlameLine(Out, Prefix, "spin_down", L.SpinDownJ);
        appendFlameLine(Out, Prefix, "spin_up", L.SpinUpJ);
        appendFlameLine(Out, Prefix, "standby", L.StandbyJ);
        appendFlameLine(Out, Prefix, "rpm_step", L.RpmStepJ);
        appendFlameLine(Out, Prefix, "ready_penalty", L.ReadyPenaltyJ);
      }
    }
  }
}

std::string dra::renderAttribFlame(const std::vector<AppResults> &Apps) {
  std::string Out;
  std::string Prefix; // "app;scheme;nest;ref;diskD;", reused across stacks.
  for (const AppResults &A : Apps)
    appendAppFlame(Out, Prefix, A);
  return Out;
}

std::string dra::renderAttribFlame(const AppResults &App) {
  std::string Out, Prefix;
  appendAppFlame(Out, Prefix, App);
  return Out;
}

std::optional<ArtifactFailure>
dra::writeRunArtifacts(const RunArtifacts &A, const PipelineConfig &Cfg,
                       const AppResults &App, const std::string &Source) {
  std::optional<ArtifactFailure> Failure;
  // Renders lazily, so a skipped artifact costs nothing.
  auto write = [&](const std::string &Path, const char *What, auto Render) {
    if (Failure || Path.empty())
      return;
    WriteResult R = writeFile(Path, Render());
    if (!R)
      Failure = ArtifactFailure{What, Path, R.Opened};
  };
  write(A.ChromeTracePath, "trace",
        [&] { return A.Tracer->renderChromeTrace(); });
  write(A.MetricsPath, "metrics", [&] { return A.Metrics->renderJson(); });
  write(A.ReportPath, "report",
        [&] { return renderRunReportJson(Cfg, App, Source); });
  write(A.FlamePath, "flame stacks", [&] { return renderAttribFlame(App); });
  write(A.TimelinePath, "timeline", [&] {
    return renderTimelineJson(*A.Timeline, Source, A.ServingJson);
  });
  return Failure;
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

static double num(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->isNumber() ? V->Num : 0.0;
}

/// The object at \p Key of \p Obj, or null when absent or not an object.
static const JsonValue *object(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->isObject() ? V : nullptr;
}

/// Flattens a ledger section's total into \p R's categories.
static bool readLedger(const JsonValue &Ledger, ReportRun &R) {
  const JsonValue *Total = object(Ledger, "total");
  const JsonValue *Gaps = object(Ledger, "gaps");
  if (!Total || !Gaps)
    return false;
  R.MissedOpportunityJ = num(*Gaps, "missed_opportunity_j");
  R.CategoriesJ.emplace_back("active_read_j", num(*Total, "active_read_j"));
  R.CategoriesJ.emplace_back("active_write_j", num(*Total, "active_write_j"));
  if (const JsonValue *Idle = object(*Total, "idle_by_rpm_j"))
    for (const auto &[Rpm, V] : Idle->Obj)
      if (V.isNumber())
        R.CategoriesJ.emplace_back("idle@" + Rpm + "_j", V.Num);
  for (const char *Key : {"spin_down_j", "spin_up_j", "standby_j",
                          "rpm_step_j", "ready_penalty_j"})
    R.CategoriesJ.emplace_back(Key, num(*Total, Key));
  return true;
}

static ReportNest readNest(const JsonValue &Entry, std::string Label) {
  return {std::move(Label), num(Entry, "energy_j"), num(Entry, "busy_ms"),
          num(Entry, "ready_delay_ms")};
}

/// Reads an attribution section into \p Out. A failure that is not plain
/// malformation sets \p Error.
static bool readAttribution(const JsonValue &Attrib, ReportAttribution &Out,
                            std::string &Error) {
  const JsonValue *Total = object(Attrib, "total");
  const JsonValue *Nests = Attrib.find("nests");
  const JsonValue *Unattributed = object(Attrib, "unattributed");
  if (!Total || !Nests || !Nests->isArray() || !Unattributed)
    return false;
  Out.TotalJ = num(*Total, "energy_j");
  Out.TotalRequests = num(*Total, "num_requests");
  std::set<std::string> Seen;
  for (const JsonValue &Nest : Nests->Arr) {
    const JsonValue *Label = Nest.find("label");
    if (!Label || !Label->isString()) {
      Error = "nest without 'label'";
      return false;
    }
    if (!Seen.insert(Label->Str).second) {
      Error = "attribution section repeats nest label '" + Label->Str + "'";
      return false;
    }
    Out.Nests.push_back(readNest(Nest, Label->Str));
  }
  Out.Unattributed = readNest(*Unattributed, "(unattributed)");
  return true;
}

/// Reads an app's footprint body; false when it lacks coverage or totals.
static bool readFootprint(const JsonValue &FP, ReportFootprint &Out) {
  const JsonValue *Cov = object(FP, "coverage");
  const JsonValue *Total = object(FP, "total");
  if (!Cov || !Total)
    return false;
  Out.RefsTotal = num(*Cov, "refs_total");
  Out.RefsFallback = num(*Cov, "refs_fallback");
  Out.SymbolicFraction = num(*Cov, "symbolic_fraction");
  Out.Iterations = num(*Total, "iterations");
  Out.DistinctTiles = num(*Total, "distinct_tiles");
  if (const JsonValue *Demand = Total->find("per_disk_demand");
      Demand && Demand->isArray())
    for (const JsonValue &D : Demand->Arr)
      Out.PerDiskDemand.push_back(D.isNumber() ? D.Num : 0.0);
  return true;
}

bool dra::readRunReport(const JsonValue &Doc, const std::string &Source,
                        ReportRecords &Out, std::string &Error) {
  auto fail = [&](const std::string &Detail) {
    Error = Source + ": " + Detail;
    return false;
  };
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "dra-report-v1")
    return fail("not a dra-report-v1 document");
  const JsonValue *Apps = Doc.find("apps");
  if (!Apps || !Apps->isArray())
    return fail("missing 'apps' array");
  for (const JsonValue &App : Apps->Arr) {
    const JsonValue *Name = App.find("app");
    const JsonValue *Runs = App.find("runs");
    if (!Name || !Name->isString() || !Runs || !Runs->isArray())
      return fail("malformed app entry");
    const std::string InApp = " in app '" + Name->Str + "'";
    Out.Apps.push_back(Name->Str);
    for (const JsonValue &Run : Runs->Arr) {
      const JsonValue *Scheme = Run.find("scheme");
      if (!Scheme || !Scheme->isString())
        return fail("run without 'scheme'" + InApp);
      ReportRun R;
      R.Source = Source;
      R.App = Name->Str;
      R.Scheme = Scheme->Str;
      const JsonValue *Sim = object(Run, "sim");
      if (!Sim || !Sim->find("energy_j") || !Sim->find("io_time_ms"))
        return fail("run without sim results" + InApp);
      R.EnergyJ = num(*Sim, "energy_j");
      R.IoTimeMs = num(*Sim, "io_time_ms");
      R.WallTimeMs = num(*Sim, "wall_time_ms");
      R.NumRequests = num(*Sim, "num_requests");
      R.SpinDowns = num(*Sim, "spin_downs");
      R.RpmSteps = num(*Sim, "rpm_steps");
      R.TraceBytes = num(Run, "trace_bytes");
      const JsonValue *Ledger = object(Run, "ledger");
      if (!Ledger)
        return fail("run without 'ledger' section" + InApp);
      if (!readLedger(*Ledger, R))
        return fail("malformed ledger section (missing 'total' or 'gaps')" +
                    InApp);
      if (const JsonValue *Attrib = Run.find("attribution")) {
        std::string Detail = "malformed attribution section";
        if (!Attrib->isObject() ||
            !readAttribution(*Attrib, R.Attribution.emplace(), Detail))
          return fail(Detail + InApp + " (scheme '" + R.Scheme + "')");
      }
      Out.Runs.push_back(std::move(R));
    }
    if (const JsonValue *FP = App.find("footprint")) {
      ReportFootprint F;
      F.App = Name->Str;
      if (!FP->isObject() || !readFootprint(*FP, F))
        return fail("malformed footprint" + InApp);
      Out.Footprints.push_back(std::move(F));
    }
  }
  return true;
}

bool dra::loadRunReport(const std::string &Path, ReportRecords &Out,
                        std::string &Error) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text) {
    Error = "cannot read '" + Path + "'";
    return false;
  }
  JsonValue Doc;
  std::string Detail;
  if (!parseJson(*Text, Doc, Detail)) {
    Error = Path + ": " + Detail;
    return false;
  }
  return readRunReport(Doc, Path, Out, Error);
}
