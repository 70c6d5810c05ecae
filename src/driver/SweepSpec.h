//===- driver/SweepSpec.h - Batch sweep specification -----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep specification behind `drac --sweep` (docs/SWEEPS.md): a JSON
/// document ("dra-sweep-spec-v1") naming programs, schemes and configuration
/// axes (procs, stripe factor, stripe unit, cache size, TPM/DRPM knobs).
/// Parsing is strict — unknown keys, wrong types and out-of-range values are
/// reported as structured diagnostics, never asserts — and expansion into
/// concrete jobs is fully deterministic: the cartesian product is walked
/// program-major in the documented axis order and each job gets a stable
/// index, so two expansions of one spec are always identical.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_SWEEPSPEC_H
#define DRA_DRIVER_SWEEPSPEC_H

#include "core/Pipeline.h"
#include "support/Json.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dra {

/// One fully resolved point of the sweep's cartesian product. Every axis
/// value is concrete; the point is what identifies a job in the
/// "dra-sweep-v1" report.
struct SweepPoint {
  std::string App; ///< Paper app name or .dra file path.
  Scheme S = Scheme::Base;
  unsigned Procs = 1;
  unsigned StripeFactor = 8;
  uint64_t StripeUnitBytes = 32 * 1024;
  uint64_t CacheBlocks = 0;
  CachePolicyKind CachePolicy = CachePolicyKind::None;
  double TpmBreakEvenS = 15.2;
  unsigned DrpmWindowRequests = 100;
};

/// One independent unit of sweep work: a point, the program factory and the
/// derived pipeline configuration. Jobs share nothing mutable — Build
/// produces a fresh Program per call, so any number of jobs can run
/// concurrently (see ExperimentRunner).
struct SweepJob {
  size_t Index = 0; ///< Position in the deterministic expansion order.
  SweepPoint Point;
  std::function<Program()> Build;
  PipelineConfig Config;
};

/// Parsed, validated "dra-sweep-spec-v1" document. Default-constructed
/// fields are the Table 1 defaults; parse() only overrides what the
/// document names.
class SweepSpec {
public:
  /// Paper applications to run (canonical names: AST, FFT, Cholesky,
  /// Visuo, SCF, RSense).
  std::vector<std::string> Apps;
  /// .dra source files to run (parsed once at expansion time).
  std::vector<std::string> Files;
  /// Linear scale factor applied to the paper apps (1.0 = paper size).
  double Scale = 1.0;
  /// Scheme axis, paper order preserved from the document.
  std::vector<Scheme> Schemes = allSchemes();
  // --- Configuration axes (cartesian product, documented order) ---------
  std::vector<unsigned> Procs{1};
  std::vector<unsigned> StripeFactors{8};
  std::vector<uint64_t> StripeUnitBytes{32 * 1024};
  std::vector<uint64_t> CacheBlocks{0};
  std::vector<double> TpmBreakEvenS{DiskParams().TpmBreakEvenS};
  std::vector<unsigned> DrpmWindowRequests{DiskParams().DrpmWindowRequests};
  // --- Scalars applied to every job -------------------------------------
  CachePolicyKind CachePolicy = CachePolicyKind::Lru;
  uint64_t BlockBytes = 4096;
  VerifyLevel Verify = VerifyLevel::Off;

  /// Parses and validates \p JsonText. All violations (syntax, unknown
  /// keys, wrong types, unknown names, out-of-range or empty axes) are
  /// reported to \p DE with pass "sweep-spec"; returns std::nullopt when
  /// any error was reported.
  static std::optional<SweepSpec> parse(const std::string &JsonText,
                                        DiagnosticEngine &DE);

  /// Number of jobs the spec expands to.
  size_t numJobs() const;

  /// Expands the spec into its deterministic job list. Walks programs in
  /// listed order (Apps before Files), then schemes, then procs, stripe
  /// factor, stripe unit, cache blocks, TPM break-even, DRPM window —
  /// innermost last. File programs are parsed here, once each; a parse
  /// failure is reported to \p DE and yields std::nullopt (no partial
  /// job list).
  std::optional<std::vector<SweepJob>> expand(DiagnosticEngine &DE) const;

  /// Writes the normalized spec (every axis explicit) as one JSON object —
  /// the "spec" member of the "dra-sweep-v1" report.
  void writeJson(JsonWriter &W) const;
};

} // namespace dra

#endif // DRA_DRIVER_SWEEPSPEC_H
