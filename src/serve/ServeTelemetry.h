//===- serve/ServeTelemetry.h - Serving latency & SLOs ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-tick serving telemetry of the online front end (`dra-serve`,
/// docs/SERVING.md): the per-tick table renderer, exact dispatch-lag
/// histograms (arrival tick -> dispatch tick), the serve counters emitted
/// into a MetricsRegistry, and the
/// declarative SLO layer — a dra-slo-v1 spec evaluated per rolling window
/// of ticks, with violations surfaced as diagnostics (pass "serve-slo")
/// and a nonzero driver exit code.
///
/// Completion-time metrics come from the timeline recorder: in serving
/// mode barrier phases are ticks, so RunTimeline::Phases is the per-tick
/// completion-latency series (obs/Timeline.h).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVE_SERVETELEMETRY_H
#define DRA_SERVE_SERVETELEMETRY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dra {

class DiagnosticEngine;
class MetricsRegistry;
struct RunTimeline;
struct ServeTickStats;
struct SessionResult;

/// Exact histogram over small integer dispatch lags (ticks between an
/// iteration's arrival and the tick that scheduled it). Raw counts are
/// retained per distinct lag, so percentiles are exact (nearest-rank),
/// not bucket-interpolated — lags are small integers, the map stays tiny.
struct LagHistogram {
  std::map<uint64_t, uint64_t> Counts;
  uint64_t Total = 0;
  uint64_t SumLags = 0;
  uint64_t MaxLag = 0;

  void add(uint64_t Lag);
  void merge(const LagHistogram &O);
  /// Smallest lag whose cumulative count reaches ceil(Q * Total)
  /// (nearest-rank); 0 when empty.
  uint64_t percentile(double Q) const;
  double mean() const {
    return Total == 0 ? 0.0 : double(SumLags) / double(Total);
  }
};

/// Renders the per-tick summary table dra-serve prints.
/// \param Lags per-tick dispatch-lag histograms aligned with \p Ticks;
///        pass empty to omit the latency columns (a session that failed
///        before scheduling).
std::string renderServeTickTable(const std::vector<ServeTickStats> &Ticks,
                                 const std::vector<LagHistogram> &Lags);

/// Emits the serve counters into \p M (dra-metrics-v1 "serve.*" names).
void recordServeMetrics(MetricsRegistry &M, const SessionResult &R);

/// One rule of a dra-slo-v1 spec: Metric <= Max per window.
struct SloRule {
  std::string Metric;
  double Max = 0.0;
};

/// A parsed dra-slo-v1 spec (docs/FORMATS.md). Metrics:
///   {p50,p95,p99,max,mean}_dispatch_ticks   dispatch lag per window
///   {max,mean}_backlog                      end-of-tick deferred depth
///   {p50,p95,p99,max,mean}_completion_ms    request completion latency
struct SloSpec {
  /// Rolling evaluation window in ticks; 0 treats the whole run as one
  /// window.
  uint64_t WindowTicks = 0;
  std::vector<SloRule> Rules;
};

/// Parses \p Text as a dra-slo-v1 document; false with \p Error set on any
/// violation (unknown metric names are rejected here, not at eval time).
bool parseSloSpec(const std::string &Text, SloSpec &Out, std::string &Error);

/// One violated (window, rule) pair.
struct SloViolation {
  uint64_t FirstTick = 0; ///< Declared tick value of the window's start.
  uint64_t NumTicks = 0;  ///< Ticks in the window.
  std::string Metric;
  double Value = 0.0;
  double Limit = 0.0;
};

/// Evaluates \p Spec over the run: every rolling window of
/// Spec.WindowTicks ticks is checked against every rule. \p TL supplies
/// the completion-latency series (the run's timeline; may be null when no
/// completion_ms rule is present). Violations are returned in (window,
/// rule) order.
std::vector<SloViolation> evaluateSlos(const SloSpec &Spec,
                                       const SessionResult &R,
                                       const std::vector<LagHistogram> &Lags,
                                       const RunTimeline *TL);

/// Reports \p Violations as "serve-slo" errors into \p DE (one per
/// violation, naming window, metric, value and limit).
void reportSloViolations(DiagnosticEngine &DE,
                         const std::vector<SloViolation> &Violations);

/// Renders the "serving" section of a dra-timeline-v1 document (one JSON
/// object: per-tick series with dispatch-lag and completion percentiles,
/// plus the SLO spec and its violations when \p Spec is non-null).
std::string renderServingJson(const SessionResult &R,
                              const std::vector<LagHistogram> &Lags,
                              const RunTimeline *TL, const SloSpec *Spec,
                              const std::vector<SloViolation> &Violations);

} // namespace dra

#endif // DRA_SERVE_SERVETELEMETRY_H
