//===- verify/LayoutVerifier.h - Stripe-mapping sanity ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sanity checking of the two-level striped disk layout (Sec. 2): the
/// restructurer's entire value proposition rests on the compiler knowing
/// exactly which I/O node holds which tile, so the mapping must be a
/// bijection onto per-disk byte ranges. The verifier proves, for a concrete
/// DiskLayout:
///
///   * the striping configuration itself is in bounds (verifyConfig);
///   * every logical byte maps to exactly one (iodevice, device offset):
///     splitting the whole laid-out space yields fragments that cover it
///     with no per-disk overlap;
///   * every tile round-trips through the two-level layout: its byte offset
///     resolves back to its array, its primary disk agrees with the
///     byte-level mapping, and — when one tile is one stripe unit, the
///     granularity the paper's restructuring reasons about — it lives on
///     exactly one I/O node;
///   * consecutive stripe units rotate round-robin from each array's
///     starting iodevice.
///
/// Checks (pass "layout-verifier"):
///   zero-stripe-factor, zero-stripe-unit, start-disk-out-of-range,
///   zero-disks-per-node                       bad StripingConfig
///   array-start-disk-out-of-range             per-array override off range
///   disk-out-of-range                         fragment on a nonexistent disk
///   coverage-gap                              split misses logical bytes
///   fragment-overlap                          two bytes share a device byte
///   tile-array-roundtrip                      tile offset maps to wrong array
///   primary-disk-mismatch                     primary disk != byte mapping
///   tile-split                                tile fragments don't cover it
///   tile-spans-disks                          stripe-unit tile on >1 disk
///   stripe-rotation                           round-robin order broken
///
//===----------------------------------------------------------------------===//

#ifndef DRA_VERIFY_LAYOUTVERIFIER_H
#define DRA_VERIFY_LAYOUTVERIFIER_H

#include "layout/DiskLayout.h"
#include "support/Diagnostic.h"

#include <span>

namespace dra {

/// Verifies a concrete disk layout of a program.
class LayoutVerifier {
public:
  LayoutVerifier(const Program &P, const DiskLayout &Layout,
                 DiagnosticEngine &DE)
      : Prog(P), Layout(Layout), DE(DE) {}

  /// Checks a striping configuration before a layout is built from it (the
  /// constructor asserts on these; the verifier diagnoses them instead).
  /// Returns true when the configuration is usable.
  static bool verifyConfig(const StripingConfig &C, DiagnosticEngine &DE);

  /// Runs every layout check; returns true when no errors were reported.
  /// Emits a closing remark on success.
  bool verify();

  /// The byte-level checks over \p Frags, the fragments of the whole
  /// laid-out space in logical order (verify passes
  /// splitRequest(0, totalBytes())): disk-out-of-range, coverage-gap,
  /// fragment-overlap and stripe-rotation. A real DiskLayout cannot fail
  /// them, so tests plant broken fragment lists through this seam.
  bool verifyFragments(std::span<const SubRequest> Frags);

private:
  const Program &Prog;
  const DiskLayout &Layout;
  DiagnosticEngine &DE;

  bool verifyOverlaps(std::span<const SubRequest> Frags);
  bool verifyRotation(std::span<const SubRequest> Frags);
  bool verifyTiles();
};

} // namespace dra

#endif // DRA_VERIFY_LAYOUTVERIFIER_H
