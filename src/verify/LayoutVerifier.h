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
/// DiskLayout, in closed form:
///
///   * the striping configuration itself is in bounds (verifyConfig);
///   * the layout's state is a packing of cycle-aligned files: the first
///     file starts at byte 0, every file starts on a stripe-cycle
///     boundary and holds its array's tiles, and the total is the sum of
///     the cycle-rounded files, each file striping from an in-range disk;
///   * the layout's own mapping (splitRequestInto, diskOfByte, arrayOfByte,
///     primaryDiskOfTile) equals the striping formula
///       disk(U) = (U + start(A)) mod factor,
///       offset  = floor(U / factor) * unit + the offset inside the unit
///     over one period, lcm(tile bytes, unit * factor), at the start and at
///     the end of every file. The formula is a bijection of each file's
///     stripe cycles onto per-disk ranges, and the mapping repeats every
///     period, so those two periods stand for the whole file
///     (docs/VERIFICATION.md);
///   * every tile in those periods round-trips: its byte offset resolves
///     back to its array, its primary disk agrees with the formula, its
///     split covers it, and — when one tile is one stripe unit, the
///     granularity the paper's restructuring reasons about — it lives on
///     exactly one I/O node.
///
/// The work is O(arrays x period / stripe unit), independent of the tile
/// count. verifyWindow runs the comparison over one window with a split a
/// caller supplies, so tests plant broken fragments through the same code.
///
/// Checks (pass "layout-verifier"):
///   zero-stripe-factor, zero-stripe-unit, start-disk-out-of-range,
///   zero-disks-per-node                       bad StripingConfig
///   array-start-disk-out-of-range             per-array override off range
///   file-bounds                               file misplaced or too small
///   total-bytes                               total != the files' sum
///   disk-out-of-range                         fragment on a nonexistent disk
///   coverage-gap                              split misses logical bytes
///   device-offset                             unit off its formula offset
///   tile-array-roundtrip                      tile offset maps to wrong array
///   primary-disk-mismatch                     primary disk != formula
///   tile-split                                tile fragments don't cover it
///   tile-spans-disks                          stripe-unit tile on >1 disk
///   stripe-rotation                           round-robin order broken
///
//===----------------------------------------------------------------------===//

#ifndef DRA_VERIFY_LAYOUTVERIFIER_H
#define DRA_VERIFY_LAYOUTVERIFIER_H

#include "layout/DiskLayout.h"
#include "support/Diagnostic.h"

#include <cstdint>
#include <functional>
#include <vector>

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

  /// Produces the fragments of the logical bytes [Offset, Offset + Bytes)
  /// into \p Out, as DiskLayout::splitRequestInto does.
  using SplitFn = std::function<void(uint64_t Offset, uint64_t Bytes,
                                     std::vector<SubRequest> &Out)>;

  /// Compares the mapping with the striping formula over the window
  /// [\p Lo, \p Hi) of array \p A's file, \p Lo on a stripe-unit boundary,
  /// with \p Split standing in for the layout's splitRequestInto: the
  /// window's fragments (disk-out-of-range, stripe-rotation, device-offset,
  /// coverage-gap), diskOfByte of each unit, and each tile whose first byte
  /// lies in the window (tile-array-roundtrip, primary-disk-mismatch,
  /// tile-split, tile-spans-disks). verify() runs this over one period at
  /// each end of every file with the layout's own split; tests plant broken
  /// fragments through \p Split.
  bool verifyWindow(ArrayId A, uint64_t Lo, uint64_t Hi,
                    const SplitFn &Split);

private:
  const Program &Prog;
  const DiskLayout &Layout;
  DiagnosticEngine &DE;

  /// Reports so far of each capped check, over the windows of one call.
  struct Reported {
    unsigned BadDisks = 0, Rotations = 0, Offsets = 0, Gaps = 0, Tiles = 0;
  };
  Reported Seen;
  /// The split buffer every window reuses, and the per-disk stamps that
  /// count the disks of one tile's split.
  std::vector<SubRequest> Frags;
  std::vector<uint64_t> DiskStamp;
  uint64_t Stamp = 0;

  bool verifyFiles();
  bool verifyPeriods();
  bool checkWindow(const ArrayInfo &A, uint64_t Lo, uint64_t Hi,
                   const SplitFn &Split);
  /// Compares the fragments in Frags, a split starting at logical byte
  /// \p Lo of array \p A's file, with the formula; returns the bytes they
  /// cover.
  uint64_t checkSplit(const ArrayInfo &A, uint64_t Lo, bool &Ok);
  /// The note closing each check that reported more than the cap.
  void reportSuppressed();
};

} // namespace dra

#endif // DRA_VERIFY_LAYOUTVERIFIER_H
