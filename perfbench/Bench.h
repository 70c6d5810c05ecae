//===- perfbench/Bench.h - Host-time benchmark internals --------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the host-time benchmark (perfbench/README.md): the
/// allocation counter, the span recorder of the traced run, the output
/// check ledger and the workload interface the main loop runs.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_PERFBENCH_BENCH_H
#define DRA_PERFBENCH_BENCH_H

#include "obs/Tracer.h"
#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Allocation counting (AllocCounter.cpp replaces global operator new).
//===----------------------------------------------------------------------===//

/// Turns counting on or off and returns the previous setting; off by default
/// so untraced runs pay nothing beyond one relaxed load per allocation.
bool setAllocCounting(bool On);
/// Allocations counted so far, on every thread.
uint64_t allocCount();

//===----------------------------------------------------------------------===//
// Host speed (Calibration.cpp).
//===----------------------------------------------------------------------===//

/// Runs one slice of the fixed reference kernel and returns its host time.
/// Every slice does the same work, so its time tracks the host's speed.
double calibrationSliceMs();

//===----------------------------------------------------------------------===//
// Spans of the traced run.
//===----------------------------------------------------------------------===//

/// One recorded span. Names are "<layer>.<call>" (e.g. "ir.table"); the
/// roots are "op" (the traced op) and "probe" (extra calls made only to
/// measure one layer); roots belong to no layer.
struct Span {
  std::string Name;
  std::string Layer;
  double StartUs = 0.0;
  double EndUs = 0.0;
  int Parent = -1; ///< Index into the recorder's spans; -1 for roots.
  uint64_t Allocs = 0;
  double ms() const { return (EndUs - StartUs) / 1000.0; }
};

/// Keeps spans in memory (name, start, end, parent) and mirrors each one
/// into an EventTracer so the run can be written as a Chrome trace.
class SpanRecorder {
public:
  SpanRecorder();

  /// Opens a span nested in the innermost open one. Names are literals, so
  /// no caller allocates for them, and the recorder's own allocations in
  /// begin() and end() are left out of every span's count.
  void begin(const char *Name);
  /// Closes the innermost open span.
  void end();

  /// Runs \p Fn inside span \p Name and returns its result.
  template <class F> auto span(const char *Name, F &&Fn) {
    begin(Name);
    struct Closer {
      SpanRecorder &R;
      ~Closer() { R.end(); }
    } C{*this};
    return Fn();
  }

  const std::vector<Span> &spans() const { return Spans; }
  std::string renderChromeTrace() const { return Tracer.renderChromeTrace(); }

private:
  dra::EventTracer Tracer;
  uint64_t Pid = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

//===----------------------------------------------------------------------===//
// Output checks.
//===----------------------------------------------------------------------===//

/// Collects output-check failures of one op; an op with any failure (or an
/// exception) counts in `failed`.
class Checks {
public:
  void expect(bool Ok, const std::string &What);
  /// Relative comparison at 1e-6, the check-regression tolerance.
  void near(double Got, double Want, const std::string &What);
  bool ok() const { return Failures.empty(); }
  const std::vector<std::string> &failures() const { return Failures; }

private:
  std::vector<std::string> Failures;
};

/// 64-bit FNV-1a, used to fingerprint reports, code and schedules.
constexpr uint64_t FnvBasis = 1469598103934665603ull;
uint64_t fnv1a(const void *Data, size_t Bytes, uint64_t H = FnvBasis);
inline uint64_t fnv1a(const std::string &S, uint64_t H = FnvBasis) {
  return fnv1a(S.data(), S.size(), H);
}
std::string hex64(uint64_t V);

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// Per-op counts the traced run aggregates (summed over ops; main.cpp
/// divides by the op count).
using Counts = std::map<std::string, double>;

struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Traced = false;
  bool Smoke = false;
  /// Reference values (reference.json), null when none were given.
  const dra::JsonValue *Reference = nullptr;
  /// Set when generating reference.json: ops record their values here.
  dra::JsonValue *WriteReference = nullptr;
};

/// One closed-loop workload. Ops are grouped in passes: op I runs input
/// I % passLength(); every timed phase ends on a pass boundary so each run
/// weighs every input equally.
class Workload {
public:
  virtual ~Workload() = default;

  /// Ops in one pass.
  virtual size_t passLength() const = 0;

  /// The set-up phase's warm-up op: the same input for every seed.
  virtual void warmUp(Checks &C) = 0;

  /// Runs op \p I with tracing off and returns its host time in ms. Its
  /// outputs are checked into \p C after the timed part. \p Requests
  /// receives the number of trace requests it replayed.
  virtual double runOp(size_t I, Checks &C, uint64_t &Requests) = 0;

  /// The traced op, called right after runOp(I): the same work decomposed
  /// into spans under an "op" root, then probe calls under "probe" roots.
  /// Checks that the decomposition reproduces runOp's outputs exactly and
  /// adds per-op counts to \p Out.
  virtual void runTracedOp(size_t I, SpanRecorder &R, Checks &C,
                           Counts &Out) = 0;
};

/// Builds the named workload's inputs from the seed (the set-up phase).
/// Returns null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const BenchOptions &Opts);

/// The workload names, in BENCHMARK.json order.
std::vector<std::string> workloadNames();

} // namespace perfbench

#endif // DRA_PERFBENCH_BENCH_H
