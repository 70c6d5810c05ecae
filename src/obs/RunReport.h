//===- obs/RunReport.h - JSON run reports -----------------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable run reports: the "dra-report-v1" JSON schema
/// (docs/FORMATS.md) serializing full SchemeRun results — every SimResults
/// field including per-disk stats and idle-period histograms, the
/// ScheduleLocality metrics, and scheduler/trace counters — for one or
/// more applications across schemes. It is the one run document: each
/// run's energy ledger ("dra-ledger-v1") and source attribution
/// ("dra-attrib-v1") are sections of it, and each app's dra-footprint-v1
/// body is its "footprint". Emitted by `drac --report-json`, dra-serve,
/// the sweep runner's per-job telemetry and the bench binaries
/// (DRA_BENCH_JSON).
///
/// The schema's one reader lives here too, beside the writer: readRunReport
/// turns a document into per-run records for dra-compare's two views,
/// dra-dash, check-regression and the figure benches. It is as strict as
/// the writer, which always writes a run's "sim" and "ledger" sections: a
/// run without either is a diagnostic naming the file and the app.
/// "attribution" (absent with PipelineConfig::Attribution off) and an
/// app's "footprint" are optional; an attribution section that repeats a
/// nest label is refused, since every consumer keys nests by label.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OBS_RUNREPORT_H
#define DRA_OBS_RUNREPORT_H

#include "core/Pipeline.h"
#include "support/Json.h"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dra {

class EventTracer;
class MetricsRegistry;
class TimelineRecorder;

/// Results of one app across schemes.
struct AppResults {
  std::string Name;
  std::vector<SchemeRun> Runs; ///< One per scheme, in scheme-list order.
  /// Rendered "dra-footprint-v1" body for this app (docs/FORMATS.md),
  /// embedded verbatim in the report document when non-empty.
  std::string FootprintJson;
};

/// Serializes every field of \p R (including cache and per-disk stats) as
/// one JSON object.
void writeSimResultsJson(JsonWriter &W, const SimResults &R);

/// Serializes the "dra-ledger-v1" section of one run (docs/FORMATS.md):
/// the attributed energy categories of \p R's total ledger with the audit
/// residual, the idle-gap analytics against \p BreakEvenS (missed
/// opportunity, coverage, percentiles), and the same pair per disk.
void writeLedgerSectionJson(JsonWriter &W, const SimResults &R,
                            double BreakEvenS);

/// Serializes one scheme run: scheme name, sim results, energy ledger
/// (classified against \p BreakEvenS), locality metrics, scheduler rounds
/// and trace size. Runs that carried source attribution (sim/Attribution.h)
/// also get the "dra-attrib-v1" attribution section.
void writeSchemeRunJson(JsonWriter &W, const SchemeRun &R, double BreakEvenS);

/// Serializes the "dra-attrib-v1" section of one run (docs/FORMATS.md):
/// the source-attributed energy ledger of \p R aggregated across disks —
/// per-nest totals with the raw ledger categories, the per-reference
/// breakdown inside each nest, the unattributed bucket (warm-up/tail gap
/// halves), and the per-disk nest totals. Rounds are collapsed at render
/// time (the in-memory AttributionMap keeps them apart); per-nest "rounds"
/// counts how many distinct schedule rounds contributed.
void writeAttributionSectionJson(JsonWriter &W, const SchemeRun &R);

/// Renders the attribution ledgers of \p Apps in collapsed-stack flame
/// format — one line per non-zero (app, scheme, nest, reference, disk,
/// ledger category) of the form
///   app;scheme;nest;ref;disk3;idle@3000 12.5
/// loadable directly in speedscope or flamegraph.pl (`drac --flame`).
std::string renderAttribFlame(const std::vector<AppResults> &Apps);

/// renderAttribFlame of the one app \p App. A braced `{App}` argument
/// binds here, so rendering one app's runs copies none of them.
std::string renderAttribFlame(const AppResults &App);

/// Renders the full "dra-report-v1" document for \p Apps under \p Cfg.
/// \param Source free-form provenance label ("drac", a bench name, ...).
std::string renderRunReportJson(const PipelineConfig &Cfg,
                                const std::vector<AppResults> &Apps,
                                const std::string &Source);

/// renderRunReportJson of the one app \p App. A braced `{App}` argument
/// binds here, so rendering one app's runs copies none of them.
std::string renderRunReportJson(const PipelineConfig &Cfg,
                                const AppResults &App,
                                const std::string &Source);

/// renderRunReportJson of one app \p AppName with the single run \p Run
/// and no footprint: the sweep runner's per-job report, rendered from the
/// job's outcome in place.
std::string renderRunReportJson(const PipelineConfig &Cfg,
                                std::string_view AppName, const SchemeRun &Run,
                                const std::string &Source);

/// The artifacts one run may export and where to put them. An empty path
/// skips that artifact; a requested sink artifact needs its sink.
struct RunArtifacts {
  std::string ChromeTracePath; ///< Chrome trace_event timeline (Tracer).
  std::string MetricsPath;     ///< Metrics registry JSON (Metrics).
  std::string ReportPath;      ///< dra-report-v1.
  std::string FlamePath;       ///< Collapsed flame stacks.
  std::string TimelinePath;    ///< dra-timeline-v1 (Timeline).
  const EventTracer *Tracer = nullptr;
  const MetricsRegistry *Metrics = nullptr;
  const TimelineRecorder *Timeline = nullptr;
  /// Pre-rendered serving section spliced into the timeline (dra-serve).
  std::string ServingJson;
};

/// The first artifact writeRunArtifacts could not write.
struct ArtifactFailure {
  /// What the file holds, for "cannot write <What> to '<Path>'".
  const char *What = "";
  std::string Path;
  /// Whether the file could be created at all (see WriteResult).
  bool Opened = false;
};

/// Writes every requested artifact of \p App's run under \p Cfg, in the
/// field order of RunArtifacts, stopping at the first failure. \p Source
/// labels the documents ("drac", "dra-serve", "sweep"). The one export
/// path of drac, dra-serve and the sweep runner's per-job telemetry.
std::optional<ArtifactFailure> writeRunArtifacts(const RunArtifacts &A,
                                                 const PipelineConfig &Cfg,
                                                 const AppResults &App,
                                                 const std::string &Source);

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

/// One nest's (or the unattributed bucket's) share of a run's attribution.
struct ReportNest {
  std::string Label;
  double EnergyJ = 0.0, BusyMs = 0.0, ReadyDelayMs = 0.0;
};

/// A run's "attribution" section: its total, its nests in document order
/// (labels unique) and the unattributed bucket, labelled "(unattributed)".
struct ReportAttribution {
  double TotalJ = 0.0, TotalRequests = 0.0;
  std::vector<ReportNest> Nests;
  ReportNest Unattributed;
};

/// One app x scheme run of a report. Counters keep the document's numbers.
struct ReportRun {
  std::string Source; ///< Provenance label (the file path).
  std::string App, Scheme;
  /// The "sim" scalars, and the run's "trace_bytes".
  double EnergyJ = 0.0, IoTimeMs = 0.0, WallTimeMs = 0.0;
  double NumRequests = 0.0, SpinDowns = 0.0, RpmSteps = 0.0;
  double TraceBytes = 0.0;
  /// The "ledger" total's categories in schema order ("active_read_j",
  /// "active_write_j", "idle@<rpm>_j"..., "spin_down_j", "spin_up_j",
  /// "standby_j", "rpm_step_j", "ready_penalty_j").
  std::vector<std::pair<std::string, double>> CategoriesJ;
  /// The ledger's sub-break-even idle joules at full RPM.
  double MissedOpportunityJ = 0.0;
  std::optional<ReportAttribution> Attribution;
};

/// An app's "footprint" coverage and totals (dra-footprint-v1).
struct ReportFootprint {
  std::string App;
  double RefsTotal = 0.0, RefsFallback = 0.0, SymbolicFraction = 0.0;
  double Iterations = 0.0, DistinctTiles = 0.0;
  std::vector<double> PerDiskDemand;
};

/// The records of one or more reports, in document order.
struct ReportRecords {
  std::vector<ReportRun> Runs;
  std::vector<ReportFootprint> Footprints;
  /// App names in document order, apps without runs included.
  std::vector<std::string> Apps;
};

/// Appends the runs, footprints and app names of the parsed document
/// \p Doc to \p Out, labelling each run with \p Source. Returns false with
/// \p Error ("<Source>: ...") when \p Doc is not a dra-report-v1 document
/// or is malformed; a malformed run's diagnostic names its app.
bool readRunReport(const JsonValue &Doc, const std::string &Source,
                   ReportRecords &Out, std::string &Error);

/// readRunReport of the file at \p Path, labelled with the path. Returns
/// false with \p Error naming the file on any failure.
bool loadRunReport(const std::string &Path, ReportRecords &Out,
                   std::string &Error);

} // namespace dra

#endif // DRA_OBS_RUNREPORT_H
