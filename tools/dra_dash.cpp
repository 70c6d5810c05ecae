//===- tools/dra_dash.cpp - Timeline HTML dashboard -------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Renders saved telemetry documents into ONE self-contained HTML dashboard:
// inline CSS and SVG only, no scripts, no external assets of any kind (the
// CI lane greps the output for http(s)/src/href leaks). Input documents are
// dispatched by their "schema" field:
//
//   dra-timeline-v1  per-disk power-state lanes (dominant state per
//                    simulated-time window), energy-rate and queue-depth
//                    series, latency percentile bands, sub-break-even gap
//                    markers, and the serving section's backlog/dispatch-lag
//                    series and SLO violations when present
//   dra-report-v1    per-app scheme summary table (energy vs Base) and
//                    per-scheme energy category table (from each run's
//                    ledger section), read by readRunReport (obs/RunReport.h): a
//                    malformed report exits 1 with the reader's diagnostic
//
// Usage:
//   dra-dash <doc.json>... -o <out.html> [--title T]
//
// Chart conventions (docs/OBSERVABILITY.md "Time series & SLOs"): state
// identity uses a fixed 8-hue categorical assignment validated for normal
// and CVD vision in light and dark mode; every mark carries a native
// tooltip (<title>) and a 1px surface gap from its neighbors; the per-disk
// occupancy table is the text fallback for the low-contrast hues.
//
//===----------------------------------------------------------------------===//

#include "obs/RunReport.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace dra;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <doc.json>... -o <out.html> [--title TITLE]\n",
               Argv0);
  return 2;
}

std::string esc(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

double num(const JsonValue *V) { return V && V->isNumber() ? V->Num : 0.0; }
std::string str(const JsonValue *V) {
  return V && V->isString() ? V->Str : std::string();
}

/// CSS custom-property name of timeline state \p I ("--st0".."--st8";
/// TlRamp shares TlRpmStep's hue: both are DRPM speed transitions, and a
/// ninth categorical hue would break the validated palette).
std::string stateVar(size_t I) {
  return "--st" + std::to_string(I == 8 ? 6 : I);
}

/// Rounds \p V up to a "nice" axis maximum (1/2/5 * 10^k).
double niceMax(double V) {
  if (V <= 0.0)
    return 1.0;
  double Mag = std::pow(10.0, std::floor(std::log10(V)));
  for (double M : {1.0, 2.0, 5.0, 10.0})
    if (V <= M * Mag)
      return M * Mag;
  return 10.0 * Mag;
}

/// One (x, y) series rendered as a 2px SVG polyline with invisible per-point
/// hover targets carrying native tooltips. \p TipOf formats point I's tip.
template <typename TipFn>
std::string lineChart(const std::vector<double> &Xs,
                      const std::vector<double> &Ys, const std::string &XLabel,
                      const std::string &YLabel, const std::string &Color,
                      TipFn TipOf) {
  const double W = 720, H = 160, L = 56, R = 12, T = 10, B = 28;
  double XMax = Xs.empty() ? 1.0 : Xs.back();
  if (XMax <= 0.0)
    XMax = 1.0;
  double YMax = niceMax(*std::max_element(Ys.begin(), Ys.end()));
  auto PX = [&](double X) { return L + (W - L - R) * (X / XMax); };
  auto PY = [&](double Y) { return T + (H - T - B) * (1.0 - Y / YMax); };

  std::string S;
  S += "<svg viewBox=\"0 0 720 160\" role=\"img\">";
  // Recessive grid: hairlines at 0%, 50%, 100% of the y-range.
  for (double Frac : {0.0, 0.5, 1.0}) {
    double Y = PY(YMax * Frac);
    S += "<line class=\"grid\" x1=\"" + fmtDouble(L, 1) + "\" y1=\"" +
         fmtDouble(Y, 1) + "\" x2=\"" + fmtDouble(W - R, 1) + "\" y2=\"" +
         fmtDouble(Y, 1) + "\"/>";
    S += "<text class=\"tick\" x=\"" + fmtDouble(L - 6, 1) + "\" y=\"" +
         fmtDouble(Y + 3, 1) + "\" text-anchor=\"end\">" +
         fmtDouble(YMax * Frac, YMax >= 10 ? 0 : 2) + "</text>";
  }
  std::string Points;
  for (size_t I = 0; I != Xs.size(); ++I) {
    if (I)
      Points += ' ';
    Points += fmtDouble(PX(Xs[I]), 1);
    Points += ',';
    Points += fmtDouble(PY(Ys[I]), 1);
  }
  S += "<polyline class=\"series\" style=\"stroke:var(" + Color +
       ")\" points=\"" + Points + "\"/>";
  for (size_t I = 0; I != Xs.size(); ++I)
    S += "<circle class=\"hit\" cx=\"" + fmtDouble(PX(Xs[I]), 1) + "\" cy=\"" +
         fmtDouble(PY(Ys[I]), 1) + "\" r=\"6\"><title>" + esc(TipOf(I)) +
         "</title></circle>";
  S += "<text class=\"axis\" x=\"" + fmtDouble((L + W - R) / 2, 1) +
       "\" y=\"" + fmtDouble(H - 6, 1) + "\" text-anchor=\"middle\">" +
       esc(XLabel) + "</text>";
  S += "<text class=\"axis\" x=\"12\" y=\"" + fmtDouble(T + 8, 1) + "\">" +
       esc(YLabel) + "</text>";
  S += "</svg>";
  return S;
}

const char *const StateLabels[] = {"service",  "idle",     "idle (low rpm)",
                                   "spin-down", "standby", "spin-up",
                                   "rpm step", "stall",    "ramp"};

/// Renders one dra-timeline-v1 run (lanes, series, latency bands, serving).
std::string renderRun(const JsonValue &Run, double WindowMs,
                      const JsonValue *States) {
  std::string H;
  std::string Label = str(Run.find("label"));
  double EndMs = num(Run.find("end_ms"));
  H += "<section><h2>" + esc(Label) + "</h2><p class=\"meta\">" +
       fmtDouble(EndMs / 1000.0, 2) + " s simulated, window " +
       fmtDouble(WindowMs, 0) + " ms</p>";

  const JsonValue *Disks = Run.find("disks");
  size_t NumStates =
      States && States->isArray() ? States->Arr.size() : size_t(9);

  // Legend: swatch + text label per state (identity is never color-alone).
  H += "<div class=\"legend\">";
  for (size_t S = 0; S != NumStates && S < 9; ++S) {
    if (S == 8) // ramp folds into the rpm-step hue; one legend entry.
      continue;
    H += "<span class=\"chip\"><i style=\"background:var(" + stateVar(S) +
         ")\"></i>" +
         esc(S == 6 ? std::string("rpm step / ramp")
                    : std::string(StateLabels[S])) +
         "</span>";
  }
  H += "</div>";

  // Power-state lanes: one strip per disk, one rect per window colored by
  // the window's dominant state, 1px surface gaps between rects, full
  // per-state breakdown in the tooltip. Sub-break-even gaps with missed
  // joules get a marker row under the lane.
  uint64_t MaxWin = 0;
  if (Disks && Disks->isArray())
    for (const JsonValue &Disk : Disks->Arr) {
      const JsonValue *Ws = Disk.find("windows");
      if (Ws && Ws->isArray() && !Ws->Arr.empty())
        MaxWin = std::max(MaxWin, uint64_t(num(Ws->Arr.back().find("w"))));
    }
  double LaneW = 720.0, LabelW = 72.0;
  double CellW = (LaneW - LabelW) / double(MaxWin + 1);
  if (Disks && Disks->isArray()) {
    double LaneH = 18.0, MarkH = 8.0;
    double TotalH = double(Disks->Arr.size()) * (LaneH + MarkH + 6.0) + 4.0;
    H += "<svg viewBox=\"0 0 720 " + fmtDouble(TotalH, 0) +
         "\" role=\"img\" aria-label=\"power-state lanes\">";
    double Y = 2.0;
    for (const JsonValue &Disk : Disks->Arr) {
      unsigned D = unsigned(num(Disk.find("disk")));
      H += "<text class=\"tick\" x=\"0\" y=\"" + fmtDouble(Y + 13, 1) +
           "\">disk " + std::to_string(D) + "</text>";
      const JsonValue *Ws = Disk.find("windows");
      if (Ws && Ws->isArray())
        for (const JsonValue &Win : Ws->Arr) {
          const JsonValue *SM = Win.find("state_ms");
          if (!SM || !SM->isArray())
            continue;
          size_t Best = 0;
          for (size_t S = 1; S < SM->Arr.size(); ++S)
            if (num(&SM->Arr[S]) > num(&SM->Arr[Best]))
              Best = S;
          uint64_t Idx = uint64_t(num(Win.find("w")));
          std::string Tip = "disk " + std::to_string(D) + ", window " +
                            std::to_string(Idx) + " (" +
                            fmtDouble(double(Idx) * WindowMs / 1000.0, 2) +
                            " s)";
          for (size_t S = 0; S < SM->Arr.size() && S < 9; ++S)
            if (num(&SM->Arr[S]) > 0.0)
              Tip += "\n" + std::string(StateLabels[S]) + ": " +
                     fmtDouble(num(&SM->Arr[S]), 1) + " ms";
          Tip += "\nrequests: " + fmtGrouped(int64_t(num(Win.find("requests"))));
          H += "<rect x=\"" + fmtDouble(LabelW + double(Idx) * CellW, 2) +
               "\" y=\"" + fmtDouble(Y, 1) + "\" width=\"" +
               fmtDouble(std::max(CellW - 1.0, 0.5), 2) + "\" height=\"" +
               fmtDouble(LaneH, 0) + "\" rx=\"1\" style=\"fill:var(" +
               stateVar(Best) + ")\"><title>" + esc(Tip) + "</title></rect>";
        }
      // Missed-opportunity markers (serious status, labeled in the tip —
      // never color alone): sub-break-even gaps that idled at full power.
      const JsonValue *Gaps = Disk.find("gaps");
      if (Gaps && Gaps->isArray())
        for (const JsonValue &G : Gaps->Arr) {
          const JsonValue *Below = G.find("below_break_even");
          if (!Below || Below->K != JsonValue::Kind::Bool || !Below->B ||
              num(G.find("missed_j")) <= 0.0)
            continue;
          double X = LabelW + num(G.find("start_ms")) / WindowMs * CellW;
          std::string Tip =
              "missed opportunity: gap of " +
              fmtDouble(num(G.find("ms")), 1) + " ms at " +
              fmtDouble(num(G.find("start_ms")) / 1000.0, 2) +
              " s is below break-even; " + fmtDouble(num(G.find("missed_j")), 3) +
              " J spent idling at full power";
          H += "<path class=\"miss\" d=\"M" + fmtDouble(X, 2) + " " +
               fmtDouble(Y + LaneH + 2.0, 1) + " l3 6 l-6 0 z\"><title>" +
               esc(Tip) + "</title></path>";
        }
      Y += LaneH + MarkH + 6.0;
    }
    H += "</svg>";
  }

  // Energy-rate and queue-depth series, summed over disks per window.
  std::map<uint64_t, double> EnergyByWin, QueueByWin;
  if (Disks && Disks->isArray())
    for (const JsonValue &Disk : Disks->Arr) {
      const JsonValue *Ws = Disk.find("windows");
      if (!Ws || !Ws->isArray())
        continue;
      for (const JsonValue &Win : Ws->Arr) {
        uint64_t Idx = uint64_t(num(Win.find("w")));
        const JsonValue *EJ = Win.find("energy_j");
        if (EJ && EJ->isArray())
          for (const JsonValue &E : EJ->Arr)
            EnergyByWin[Idx] += num(&E);
        QueueByWin[Idx] += num(Win.find("queue_ms"));
      }
    }
  if (!EnergyByWin.empty()) {
    std::vector<double> Xs, Power, Queue;
    for (uint64_t I = 0; I <= EnergyByWin.rbegin()->first; ++I) {
      Xs.push_back(double(I) * WindowMs / 1000.0);
      auto E = EnergyByWin.find(I);
      Power.push_back(E == EnergyByWin.end()
                          ? 0.0
                          : E->second / (WindowMs / 1000.0));
      auto Q = QueueByWin.find(I);
      Queue.push_back(Q == QueueByWin.end() ? 0.0 : Q->second / WindowMs);
    }
    H += "<h3>Energy rate (all disks)</h3>" +
         lineChart(Xs, Power, "simulated time (s)", "W", "--seq-line",
                   [&](size_t I) {
                     return fmtDouble(Xs[I], 1) + " s: " +
                            fmtDouble(Power[I], 2) + " W";
                   });
    H += "<h3>Mean queue depth (all disks)</h3>" +
         lineChart(Xs, Queue, "simulated time (s)", "requests", "--seq-line",
                   [&](size_t I) {
                     return fmtDouble(Xs[I], 1) + " s: " +
                            fmtDouble(Queue[I], 2) + " waiting";
                   });
  }

  // Latency percentile bands per barrier phase: one hue, light->dark with
  // magnitude (p99 band lightest, p50 line darkest).
  const JsonValue *Phases = Run.find("phases");
  if (Phases && Phases->isArray() && Phases->Arr.size() > 1) {
    std::vector<double> P50, P95, P99;
    for (const JsonValue &P : Phases->Arr) {
      P50.push_back(num(P.find("p50_ms")));
      P95.push_back(num(P.find("p95_ms")));
      P99.push_back(num(P.find("p99_ms")));
    }
    const double W = 720, HT = 160, L = 56, R = 12, T = 10, B = 28;
    double XMax = double(P50.size() - 1);
    double YMax = niceMax(*std::max_element(P99.begin(), P99.end()));
    auto PX = [&](double X) { return L + (W - L - R) * (X / XMax); };
    auto PY = [&](double Y) { return T + (HT - T - B) * (1.0 - Y / YMax); };
    auto Band = [&](const std::vector<double> &Hi, const char *Cls) {
      std::string Pts;
      for (size_t I = 0; I != Hi.size(); ++I)
        Pts += fmtDouble(PX(double(I)), 1) + "," + fmtDouble(PY(Hi[I]), 1) +
               " ";
      for (size_t I = Hi.size(); I-- != 0;)
        Pts += fmtDouble(PX(double(I)), 1) + "," + fmtDouble(PY(0.0), 1) + " ";
      return "<polygon class=\"" + std::string(Cls) + "\" points=\"" + Pts +
             "\"/>";
    };
    H += "<h3>Request latency percentiles per phase</h3>";
    H += "<svg viewBox=\"0 0 720 160\" role=\"img\">";
    for (double Frac : {0.0, 0.5, 1.0}) {
      double Y = PY(YMax * Frac);
      H += "<line class=\"grid\" x1=\"" + fmtDouble(L, 1) + "\" y1=\"" +
           fmtDouble(Y, 1) + "\" x2=\"" + fmtDouble(W - R, 1) + "\" y2=\"" +
           fmtDouble(Y, 1) + "\"/><text class=\"tick\" x=\"" +
           fmtDouble(L - 6, 1) + "\" y=\"" + fmtDouble(Y + 3, 1) +
           "\" text-anchor=\"end\">" + fmtDouble(YMax * Frac, 1) + "</text>";
    }
    H += Band(P99, "band99") + Band(P95, "band95");
    std::string Pts;
    for (size_t I = 0; I != P50.size(); ++I)
      Pts += (I ? " " : "") + fmtDouble(PX(double(I)), 1) + "," +
             fmtDouble(PY(P50[I]), 1);
    H += "<polyline class=\"series\" style=\"stroke:var(--seq-line)\" "
         "points=\"" +
         Pts + "\"/>";
    for (size_t I = 0; I != P50.size(); ++I)
      H += "<circle class=\"hit\" cx=\"" + fmtDouble(PX(double(I)), 1) +
           "\" cy=\"" + fmtDouble(PY(P50[I]), 1) + "\" r=\"6\"><title>" +
           esc("phase " + std::to_string(I) + ": p50 " + fmtDouble(P50[I], 2) +
               " ms, p95 " + fmtDouble(P95[I], 2) + " ms, p99 " +
               fmtDouble(P99[I], 2) + " ms") +
           "</title></circle>";
    H += "<text class=\"axis\" x=\"" + fmtDouble((L + W - R) / 2, 1) +
         "\" y=\"" + fmtDouble(HT - 6, 1) +
         "\" text-anchor=\"middle\">barrier phase</text>";
    H += "<text class=\"axis\" x=\"12\" y=\"" + fmtDouble(T + 8, 1) +
         "\">ms</text></svg>";
    H += "<div class=\"legend\"><span class=\"chip\"><i "
         "style=\"background:var(--seq-line)\"></i>p50</span>"
         "<span class=\"chip\"><i style=\"background:var(--seq-band95)\"></i>"
         "p95 band</span><span class=\"chip\"><i "
         "style=\"background:var(--seq-band99)\"></i>p99 band</span></div>";
  }

  // Occupancy table: the text fallback required for the low-contrast hues.
  if (Disks && Disks->isArray()) {
    H += "<details><summary>State occupancy table</summary><table><tr>"
         "<th>Disk</th>";
    for (size_t S = 0; S != 9; ++S)
      H += "<th>" + esc(StateLabels[S]) + " (ms)</th>";
    H += "</tr>";
    for (const JsonValue &Disk : Disks->Arr) {
      H += "<tr><td>" + std::to_string(unsigned(num(Disk.find("disk")))) +
           "</td>";
      const JsonValue *Totals = Disk.find("totals");
      const JsonValue *SM = Totals ? Totals->find("state_ms") : nullptr;
      for (size_t S = 0; S != 9; ++S)
        H += "<td>" +
             (SM && SM->isArray() && S < SM->Arr.size()
                  ? fmtDouble(num(&SM->Arr[S]), 1)
                  : std::string("0")) +
             "</td>";
      H += "</tr>";
    }
    H += "</table></details>";
  }

  H += "</section>";
  return H;
}

/// Renders the serving section of a timeline document (per-tick backlog and
/// dispatch-lag series plus SLO rules/violations).
std::string renderServing(const JsonValue &Serving) {
  std::string H = "<section><h2>Serving</h2>";
  const JsonValue *Ticks = Serving.find("ticks");
  if (Ticks && Ticks->isArray() && Ticks->Arr.size() > 1) {
    std::vector<double> Xs, Backlog, Lag;
    for (const JsonValue &T : Ticks->Arr) {
      Xs.push_back(double(Xs.size()));
      Backlog.push_back(num(T.find("deferred")));
      const JsonValue *L = T.find("dispatch_lag_ticks");
      Lag.push_back(L ? num(L->find("p95")) : 0.0);
    }
    H += "<h3>Backlog (deferred iterations per tick)</h3>" +
         lineChart(Xs, Backlog, "tick", "deferred", "--seq-line",
                   [&](size_t I) {
                     return "tick " + std::to_string(I) + ": " +
                            fmtGrouped(int64_t(Backlog[I])) + " deferred";
                   });
    H += "<h3>Dispatch lag p95 (ticks)</h3>" +
         lineChart(Xs, Lag, "tick", "lag", "--seq-line", [&](size_t I) {
           return "tick " + std::to_string(I) + ": p95 lag " +
                  fmtDouble(Lag[I], 0) + " ticks";
         });
  }
  const JsonValue *Slo = Serving.find("slo");
  if (Slo) {
    const JsonValue *Rules = Slo->find("rules");
    const JsonValue *Violations = Slo->find("violations");
    H += "<h3>SLOs</h3><table><tr><th>Metric</th><th>Limit</th>"
         "<th>Status</th></tr>";
    if (Rules && Rules->isArray())
      for (const JsonValue &R : Rules->Arr) {
        std::string Metric = str(R.find("metric"));
        bool Violated = false;
        double Worst = 0.0;
        if (Violations && Violations->isArray())
          for (const JsonValue &V : Violations->Arr)
            if (str(V.find("metric")) == Metric) {
              Violated = true;
              Worst = std::max(Worst, num(V.find("value")));
            }
        H += "<tr><td>" + esc(Metric) + "</td><td>" +
             fmtDouble(num(R.find("max")), 2) + "</td><td class=\"" +
             (Violated ? "bad" : "ok") + "\">" +
             (Violated ? "&#9888; violated (worst " + fmtDouble(Worst, 2) + ")"
                       : "&#10003; met") +
             "</td></tr>";
      }
    H += "</table>";
  }
  H += "</section>";
  return H;
}

/// Renders a report's records: per app, a scheme summary table (energy vs
/// Base), then per app, the energy categories of each run's ledger.
std::string renderReport(const ReportRecords &Doc) {
  std::string H;
  for (const std::string &App : Doc.Apps) {
    H += "<section><h2>Report: " + esc(App) +
         "</h2><table><tr><th>Scheme</th><th>Energy (J)</th><th>vs Base</th>"
         "<th>Disk I/O (s)</th><th>Wall (s)</th></tr>";
    double BaseE = 0.0;
    for (const ReportRun &R : Doc.Runs)
      if (R.App == App && R.Scheme == "Base")
        BaseE = R.EnergyJ;
    for (const ReportRun &R : Doc.Runs)
      if (R.App == App)
        H += "<tr><td>" + esc(R.Scheme) + "</td><td>" +
             fmtDouble(R.EnergyJ, 1) + "</td><td>" +
             (BaseE > 0.0 ? fmtPercent(R.EnergyJ / BaseE - 1.0)
                          : std::string("-")) +
             "</td><td>" + fmtDouble(R.IoTimeMs / 1000.0, 1) + "</td><td>" +
             fmtDouble(R.WallTimeMs / 1000.0, 1) + "</td></tr>";
    H += "</table></section>";
  }
  for (const std::string &App : Doc.Apps) {
    H += "<section><h2>Ledger: " + esc(App) +
         "</h2><table><tr><th>Scheme</th><th>Active read</th>"
         "<th>Active write</th><th>Idle</th><th>Spin-down</th>"
         "<th>Spin-up</th><th>Standby</th><th>RPM step</th>"
         "<th>Ready penalty</th><th>Total (J)</th></tr>";
    for (const ReportRun &R : Doc.Runs) {
      if (R.App != App)
        continue;
      // The categories in schema order, the idle@<rpm> ones summed into
      // one column after the two active ones.
      std::vector<double> Cells;
      double IdleJ = 0.0;
      for (const auto &[Key, Joules] : R.CategoriesJ)
        if (Key.rfind("idle@", 0) == 0)
          IdleJ += Joules;
        else
          Cells.push_back(Joules);
      Cells.insert(Cells.begin() + 2, IdleJ);
      Cells.push_back(R.EnergyJ);
      H += "<tr><td>" + esc(R.Scheme) + "</td>";
      for (double V : Cells)
        H += "<td>" + fmtDouble(V, 1) + "</td>";
      H += "</tr>";
    }
    H += "</table></section>";
  }
  return H;
}

/// Shared chrome: chart-role CSS variables (light and dark are both
/// selected steps of the same hues, per the documented palette) and the
/// mark/anatomy styles.
const char *const Style = R"css(
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --st0: #2a78d6; --st1: #eb6834; --st2: #1baf7a; --st3: #4a3aa7;
  --st4: #e87ba4; --st5: #008300; --st6: #eda100; --st7: #e34948;
  --seq-line: #2a78d6; --seq-band95: #9ec5f4; --seq-band99: #cde2fb;
  --status-serious: #ec835a; --status-good: #0ca30c;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --st0: #3987e5; --st1: #d95926; --st2: #199e70; --st3: #9085e9;
    --st4: #d55181; --st5: #008300; --st6: #c98500; --st7: #e66767;
    --seq-line: #3987e5; --seq-band95: #1c5cab; --seq-band99: #104281;
  }
}
body { background: var(--page); color: var(--ink); margin: 0 auto;
       max-width: 780px; padding: 16px;
       font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.1rem; margin-bottom: 2px; }
h3 { font-size: 0.95rem; color: var(--ink-2); margin: 14px 0 4px; }
.meta { color: var(--muted); font-size: 0.8rem; margin-top: 0; }
section { background: var(--surface); border: 1px solid var(--ring);
          border-radius: 8px; padding: 12px 16px; margin: 14px 0; }
svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.series { fill: none; stroke-width: 2; stroke-linejoin: round; }
.hit { fill: transparent; }
.hit:hover { fill: var(--ring); }
.tick, .axis { fill: var(--muted); font-size: 9px;
               font-variant-numeric: tabular-nums; }
.band95 { fill: var(--seq-band95); opacity: 0.7; }
.band99 { fill: var(--seq-band99); opacity: 0.7; }
.miss { fill: var(--status-serious); stroke: var(--surface);
        stroke-width: 1; }
.legend { display: flex; flex-wrap: wrap; gap: 10px; margin: 8px 0;
          font-size: 0.78rem; color: var(--ink-2); }
.chip { display: inline-flex; align-items: center; gap: 4px; }
.chip i { width: 10px; height: 10px; border-radius: 2px; display:
          inline-block; border: 1px solid var(--ring); }
table { border-collapse: collapse; font-size: 0.8rem; margin: 6px 0;
        font-variant-numeric: tabular-nums; }
th, td { border: 1px solid var(--grid); padding: 3px 8px; text-align:
         right; }
th { color: var(--ink-2); } td:first-child, th:first-child { text-align:
         left; }
.bad { color: var(--status-critical); } .ok { color: var(--status-good); }
details summary { cursor: pointer; color: var(--ink-2);
                  font-size: 0.85rem; margin-top: 10px; }
)css";

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Inputs;
  std::string OutPath, Title = "DRA dashboard";
  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-o" && I + 1 != argc) {
      OutPath = argv[++I];
    } else if (Arg == "--title" && I + 1 != argc) {
      Title = argv[++I];
    } else if (Arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty() || OutPath.empty())
    return usage(argv[0]);

  std::string Body;
  for (const std::string &Path : Inputs) {
    std::optional<std::string> Text = readFile(Path);
    if (!Text) {
      std::fprintf(stderr, "dra-dash: error: cannot read '%s'\n",
                   Path.c_str());
      return 1;
    }
    JsonValue Doc;
    std::string Error;
    if (!parseJson(*Text, Doc, Error)) {
      std::fprintf(stderr, "dra-dash: error: '%s' is not valid JSON: %s\n",
                   Path.c_str(), Error.c_str());
      return 1;
    }
    std::string Schema = str(Doc.find("schema"));
    if (Schema == "dra-timeline-v1") {
      double WindowMs = num(Doc.find("window_ms"));
      if (WindowMs <= 0.0)
        WindowMs = 1000.0;
      const JsonValue *Runs = Doc.find("runs");
      if (Runs && Runs->isArray())
        for (const JsonValue &Run : Runs->Arr)
          Body += renderRun(Run, WindowMs, Doc.find("states"));
      if (const JsonValue *Serving = Doc.find("serving"))
        Body += renderServing(*Serving);
    } else if (Schema == "dra-report-v1") {
      ReportRecords Records;
      if (!readRunReport(Doc, Path, Records, Error)) {
        std::fprintf(stderr, "dra-dash: error: %s\n", Error.c_str());
        return 1;
      }
      Body += renderReport(Records);
    } else {
      std::fprintf(stderr,
                   "dra-dash: error: '%s' has unsupported schema '%s' "
                   "(expected dra-timeline-v1 or dra-report-v1)\n",
                   Path.c_str(), Schema.c_str());
      return 1;
    }
  }

  std::string Html;
  Html += "<!doctype html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n"
          "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">\n<title>" +
          esc(Title) + "</title>\n<style>" + Style + "</style>\n</head>\n"
          "<body>\n<h1>" +
          esc(Title) + "</h1>\n" + Body + "</body>\n</html>\n";
  if (!writeFile(OutPath, Html)) {
    std::fprintf(stderr, "dra-dash: error: cannot write '%s'\n",
                 OutPath.c_str());
    return 1;
  }
  return 0;
}
