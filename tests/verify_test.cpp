//===- tests/verify_test.cpp - verification subsystem tests ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The verifiers are the project's independent safety net: they must accept
// everything the real pipeline produces (positive/property tests over all
// seven schemes) and reject deliberately corrupted artifacts with the exact
// structured diagnostic (negative tests).
//
//===----------------------------------------------------------------------===//

#include "analysis/SymbolicFootprint.h"
#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "frontend/Parser.h"
#include "ir/ProgramBuilder.h"
#include "verify/IRVerifier.h"
#include "verify/LayoutVerifier.h"
#include "verify/ScheduleVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <span>

using namespace dra;

#ifndef DRA_SOURCE_DIR
#error "build must define DRA_SOURCE_DIR"
#endif

namespace {

Program smallStencil() {
  ProgramBuilder B("small");
  int64_t N = 12;
  ArrayId A = B.addArray("A", {N, N});
  ArrayId C = B.addArray("C", {N, N});
  B.beginNest("s0", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(A, {iv(0), iv(1)})
      .write(C, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(C, {iv(1), iv(0)})
      .write(A, {iv(0), iv(1)})
      .endNest();
  return B.build();
}

/// Engine + collector pair every test case uses.
struct DiagHarness {
  DiagnosticEngine DE;
  CollectingConsumer Diags;
  DiagHarness() { DE.addConsumer(&Diags); }
};

} // namespace

//===----------------------------------------------------------------------===//
// IRVerifier
//===----------------------------------------------------------------------===//

TEST(IRVerifierTest, AcceptsWellFormedPrograms) {
  DiagHarness H;
  Program P = smallStencil();
  EXPECT_TRUE(IRVerifier(P, H.DE).verify());
  EXPECT_FALSE(H.DE.hasErrors());
  EXPECT_EQ(H.Diags.countCheck("verified"), 1u);

  for (const AppUnderTest &A : paperApps(0.06)) {
    DiagHarness HA;
    Program App = A.Build();
    EXPECT_TRUE(IRVerifier(App, HA.DE).verify()) << A.Name;
  }
}

TEST(IRVerifierTest, RejectsDuplicateArrayName) {
  Program P("dup");
  P.addArray("A", {4});
  P.addArray("A", {4});
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("duplicate-array-name"), nullptr);
}

TEST(IRVerifierTest, RejectsNonPositiveArrayDim) {
  Program P("flat");
  P.addArray("A", {4, 0});
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("non-positive-array-dim"), nullptr);
}

TEST(IRVerifierTest, RejectsSubscriptArityMismatch) {
  Program P("arity");
  ArrayId A = P.addArray("A", {4, 4});
  LoopNest N(0, "n0");
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({A, AccessKind::Read, {iv(0)}}); // rank 2, one subscript
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  const Diagnostic *D = H.Diags.findCheck("subscript-arity");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Nest, 0);
}

TEST(IRVerifierTest, RejectsUnknownArray) {
  Program P("ghost");
  P.addArray("A", {4});
  LoopNest N(0, "n0");
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({ArrayId(7), AccessKind::Read, {iv(0)}});
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("unknown-array"), nullptr);
}

TEST(IRVerifierTest, RejectsBoundReferencingNonEnclosingIv) {
  Program P("bound");
  ArrayId A = P.addArray("A", {4, 4});
  LoopNest N(0, "n0");
  // Outermost loop's upper bound references its own induction variable.
  N.addLoop({AffineExpr(0), iv(0)});
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({A, AccessKind::Read, {iv(0), iv(1)}});
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("bound-depth"), nullptr);
}

TEST(IRVerifierTest, RejectsSubscriptReferencingDeeperIv) {
  Program P("deep");
  ArrayId A = P.addArray("A", {4});
  LoopNest N(0, "n0");
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({A, AccessKind::Read, {iv(2)}}); // nest depth is 1
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("subscript-depth"), nullptr);
}

TEST(IRVerifierTest, WarnsOnEmptyNest) {
  ProgramBuilder B("empty");
  ArrayId A = B.addArray("A", {4});
  B.beginNest("n0", 1.0).loop(0, 0).read(A, {iv(0)}).endNest();
  Program P = B.build();
  DiagHarness H;
  // Warnings do not fail verification.
  EXPECT_TRUE(IRVerifier(P, H.DE).verify());
  EXPECT_FALSE(H.DE.hasErrors());
  ASSERT_NE(H.Diags.findCheck("empty-nest"), nullptr);
  EXPECT_EQ(H.Diags.findCheck("empty-nest")->severity(),
            DiagSeverity::Warning);
}

//===----------------------------------------------------------------------===//
// LayoutVerifier
//===----------------------------------------------------------------------===//

TEST(LayoutVerifierTest, AcceptsPaperLayout) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
  EXPECT_FALSE(H.DE.hasErrors());
  EXPECT_EQ(H.Diags.countCheck("verified"), 1u);
}

TEST(LayoutVerifierTest, AcceptsArrayStartDiskOverrides) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  L.setArrayStartDisk(0, 3);
  L.setArrayStartDisk(1, 5);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
}

TEST(LayoutVerifierTest, AcceptsRaidSubStriping) {
  Program P = smallStencil();
  StripingConfig C = paperConfig(1).Striping;
  C.DisksPerNode = 4;
  DiskLayout L(P, C);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
}

TEST(LayoutVerifierTest, AcceptsNonStripeUnitTiles) {
  Program P = smallStencil();
  StripingConfig C = paperConfig(1).Striping;
  // Tiles spanning two stripe units: tile-spans-disks must NOT fire.
  DiskLayout L(P, C, 2 * C.StripeUnitBytes);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
}

TEST(LayoutVerifierTest, RejectsBadConfigs) {
  {
    DiagHarness H;
    StripingConfig C;
    C.StripeFactor = 0;
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("zero-stripe-factor"), nullptr);
  }
  {
    DiagHarness H;
    StripingConfig C;
    C.StripeUnitBytes = 0;
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("zero-stripe-unit"), nullptr);
  }
  {
    DiagHarness H;
    StripingConfig C;
    C.StartDisk = 8; // == StripeFactor
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("start-disk-out-of-range"), nullptr);
  }
  {
    DiagHarness H;
    StripingConfig C;
    C.DisksPerNode = 0;
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("zero-disks-per-node"), nullptr);
  }
  {
    DiagHarness H;
    EXPECT_TRUE(LayoutVerifier::verifyConfig(StripingConfig(), H.DE));
    EXPECT_EQ(H.DE.total(), 0u);
  }
}

namespace {

//===----------------------------------------------------------------------===//
// The whole-space enumeration verify() used before its closed form, kept
// as the closed form's oracle: the byte-level checks over the split of the
// whole laid-out space, then every tile split once.
//===----------------------------------------------------------------------===//

const char *LayoutPass = "layout-verifier";
constexpr unsigned LayoutCap = 16;

/// A fragment's bytes on its disk: (device offset, bytes).
using Range = std::pair<uint64_t, uint64_t>;

/// No device byte is claimed twice: each disk's ranges, sorted, must not
/// overlap.
bool enumeratedOverlapCheck(const Program &P, const DiskLayout &Layout,
                            DiagnosticEngine &DE,
                            std::span<const SubRequest> Frags) {
  const unsigned NumDisks = Layout.numDisks();
  std::vector<std::vector<Range>> ByDisk(NumDisks);
  for (const SubRequest &F : Frags)
    if (F.Disk < NumDisks)
      ByDisk[F.Disk].push_back({F.DiskByteOffset, F.Bytes});
  bool Ok = true;
  unsigned Overlaps = 0;
  for (unsigned Disk = 0; Disk != NumDisks; ++Disk) {
    std::vector<Range> &Ranges = ByDisk[Disk];
    std::sort(Ranges.begin(), Ranges.end());
    for (size_t I = 0; I + 1 < Ranges.size(); ++I) {
      const Range &Lo = Ranges[I], &Hi = Ranges[I + 1];
      if (Lo.first + Lo.second > Hi.first) {
        if (++Overlaps <= LayoutCap)
          DE.report(
              Diagnostic(DiagSeverity::Error, LayoutPass, "fragment-overlap")
                  .at(DiagLocation(P.name(), -1, -1, Disk))
              << "I/O node " << Disk << " byte ranges [" << Lo.first << ", +"
              << Lo.second << ") and [" << Hi.first << ", +" << Hi.second
              << ") overlap");
        Ok = false;
      }
    }
  }
  if (Overlaps > LayoutCap)
    DE.report(Diagnostic(DiagSeverity::Note, LayoutPass, "fragment-overlap")
              << (Overlaps - LayoutCap) << " further overlaps suppressed");
  return Ok;
}

/// Consecutive stripe units of each array's file visit the I/O nodes
/// round-robin from the array's starting iodevice; a cursor over the
/// stripe units follows the fragments, which tile the space in order.
bool enumeratedRotationCheck(const Program &P, const DiskLayout &Layout,
                             DiagnosticEngine &DE,
                             std::span<const SubRequest> Frags) {
  const StripingConfig &C = Layout.config();
  const unsigned NumDisks = Layout.numDisks();
  const size_t NumArrays = P.arrays().size();
  if (NumArrays == 0)
    return true;
  size_t A = 0;
  uint64_t U = 0, FileUnits = 0, DataUnits = 0;
  unsigned Want = 0;
  auto Enter = [&](size_t Arr) {
    A = Arr;
    U = 0;
    uint64_t FileEnd = A + 1 < NumArrays ? Layout.fileBase(ArrayId(A + 1))
                                         : Layout.totalBytes();
    FileUnits = (FileEnd - Layout.fileBase(ArrayId(A))) / C.StripeUnitBytes;
    DataUnits =
        (uint64_t(P.array(ArrayId(A)).numTiles()) * Layout.tileBytes() +
         C.StripeUnitBytes - 1) /
        C.StripeUnitBytes;
    Want = Layout.arrayStartDisk(ArrayId(A)) % C.StripeFactor;
  };
  Enter(0);
  while (U == FileUnits && A + 1 < NumArrays)
    Enter(A + 1);

  bool Ok = true;
  unsigned Rotations = 0;
  uint64_t Pos = 0, UnitEnd = C.StripeUnitBytes;
  for (const SubRequest &F : Frags) {
    // A fragment holds one stripe unit, or several on one disk when a
    // stripe factor of 1 merges them.
    const uint64_t End = Pos + F.Bytes;
    while (Pos < End) {
      if (F.Disk < NumDisks && U < DataUnits && F.Disk != Want) {
        if (++Rotations <= LayoutCap)
          DE.report(
              Diagnostic(DiagSeverity::Error, LayoutPass, "stripe-rotation")
                  .at(DiagLocation(P.name(), -1, -1, F.Disk))
              << "stripe unit " << U << " of array '"
              << P.array(ArrayId(A)).Name << "' lives on I/O node "
              << F.Disk << " but round-robin from starting iodevice "
              << Layout.arrayStartDisk(ArrayId(A)) << " requires node "
              << Want);
        Ok = false;
      }
      Pos = std::min(End, UnitEnd);
      if (Pos == UnitEnd) {
        ++U;
        Want = Want + 1 == C.StripeFactor ? 0 : Want + 1;
        while (U == FileUnits && A + 1 < NumArrays)
          Enter(A + 1);
        UnitEnd += C.StripeUnitBytes;
      }
    }
  }
  if (Rotations > LayoutCap)
    DE.report(Diagnostic(DiagSeverity::Note, LayoutPass, "stripe-rotation")
              << (Rotations - LayoutCap) << " further rotation diagnostics "
              << "suppressed");
  return Ok;
}

/// The byte-level checks over \p Frags, the fragments of the whole
/// laid-out space in logical order: every fragment on a real disk
/// (disk-out-of-range), the fragments covering the space (coverage-gap),
/// no device byte claimed twice (fragment-overlap) and the round-robin
/// rotation (stripe-rotation).
bool enumeratedFragmentChecks(const Program &P, const DiskLayout &Layout,
                              DiagnosticEngine &DE,
                              std::span<const SubRequest> Frags) {
  bool Ok = true;
  const unsigned NumDisks = Layout.numDisks();
  const uint64_t Total = Layout.totalBytes();
  uint64_t Covered = 0;
  unsigned BadDisk = 0;
  for (const SubRequest &F : Frags) {
    Covered += F.Bytes;
    if (F.Disk < NumDisks)
      continue;
    if (++BadDisk <= LayoutCap)
      DE.report(Diagnostic(DiagSeverity::Error, LayoutPass,
                           "disk-out-of-range")
                    .at(DiagLocation(P.name(), -1, -1, F.Disk))
                << "fragment of " << F.Bytes << " bytes maps to I/O node "
                << F.Disk << " but the layout has only " << NumDisks);
    Ok = false;
  }
  if (Covered != Total) {
    DE.report(Diagnostic(DiagSeverity::Error, LayoutPass, "coverage-gap")
                  .at(DiagLocation(P.name()))
              << "splitting the laid-out space covers " << Covered << " of "
              << Total << " bytes");
    Ok = false;
  }
  Ok &= enumeratedOverlapCheck(P, Layout, DE, Frags);
  Ok &= enumeratedRotationCheck(P, Layout, DE, Frags);
  return Ok;
}

/// The tile half of the whole-space enumeration verify() used before its
/// closed form: every tile split once, checked for its array, its primary
/// disk, its coverage and, at one stripe unit, its single disk.
bool enumeratedTileChecks(const Program &P, const DiskLayout &Layout,
                          DiagnosticEngine &DE) {
  bool Ok = true;
  unsigned Errors = 0;
  const unsigned NumDisks = Layout.numDisks();
  const uint64_t TileBytes = Layout.tileBytes();
  const bool TileIsStripeUnit = TileBytes == Layout.config().StripeUnitBytes;
  for (const ArrayInfo &A : P.arrays()) {
    if (Layout.arrayStartDisk(A.Id) >= NumDisks) {
      DE.report(Diagnostic(DiagSeverity::Error, LayoutPass,
                           "array-start-disk-out-of-range")
                    .at(DiagLocation(P.name()))
                << "array '" << A.Name << "' starts at iodevice "
                << Layout.arrayStartDisk(A.Id) << " of " << NumDisks);
      Ok = false;
    }
    for (int64_t T = 0, E = A.numTiles(); T != E; ++T) {
      TileRef Tile{A.Id, T};
      uint64_t Off = Layout.tileByteOffset(Tile);
      if (Layout.arrayOfByte(Off) != A.Id) {
        if (++Errors <= LayoutCap)
          DE.report(Diagnostic(DiagSeverity::Error, LayoutPass,
                               "tile-array-roundtrip")
                        .at(DiagLocation(P.name()))
                    << "tile " << T << " of array '" << A.Name
                    << "' at byte " << Off << " resolves to array id "
                    << Layout.arrayOfByte(Off));
        Ok = false;
        continue;
      }
      unsigned Primary = Layout.primaryDiskOfTile(Tile);
      std::vector<SubRequest> Split = Layout.splitRequest(Off, TileBytes);
      uint64_t Covered = 0;
      std::vector<unsigned> Disks;
      for (const SubRequest &F : Split) {
        Covered += F.Bytes;
        if (std::find(Disks.begin(), Disks.end(), F.Disk) == Disks.end())
          Disks.push_back(F.Disk);
      }
      if (Split.empty() || Split.front().Disk != Primary) {
        if (++Errors <= LayoutCap)
          DE.report(Diagnostic(DiagSeverity::Error, LayoutPass,
                               "primary-disk-mismatch")
                        .at(DiagLocation(P.name(), -1, -1, Primary))
                    << "tile " << T << " of array '" << A.Name
                    << "' claims primary I/O node " << Primary
                    << " but its first byte lives on node "
                    << Layout.diskOfByte(Off));
        Ok = false;
      }
      if (TileIsStripeUnit && Disks.size() != 1) {
        if (++Errors <= LayoutCap)
          DE.report(Diagnostic(DiagSeverity::Error, LayoutPass,
                               "tile-spans-disks")
                        .at(DiagLocation(P.name(), -1, -1, Primary))
                    << "stripe-unit-sized tile " << T << " of array '"
                    << A.Name << "' spans " << Disks.size() << " I/O nodes");
        Ok = false;
      }
      if (Covered != TileBytes) {
        if (++Errors <= LayoutCap)
          DE.report(Diagnostic(DiagSeverity::Error, LayoutPass, "tile-split")
                        .at(DiagLocation(P.name()))
                    << "splitting tile " << T << " of array '" << A.Name
                    << "' covers " << Covered << " of " << TileBytes
                    << " bytes");
        Ok = false;
      }
    }
  }
  if (Errors > LayoutCap)
    DE.report(Diagnostic(DiagSeverity::Note, LayoutPass, "tile-checks")
              << (Errors - LayoutCap) << " further tile diagnostics "
              << "suppressed");
  return Ok;
}

/// The whole-space enumeration: the byte-level checks over the split of
/// the whole laid-out space, then the tile checks, closing with the same
/// remark verify() emits.
bool enumeratedLayoutCheck(const Program &P, const DiskLayout &Layout,
                           DiagnosticEngine &DE) {
  bool Ok = LayoutVerifier::verifyConfig(Layout.config(), DE);
  if (Ok) {
    Ok &= enumeratedFragmentChecks(P, Layout, DE,
                                   Layout.splitRequest(0, Layout.totalBytes()));
    Ok &= enumeratedTileChecks(P, Layout, DE);
  }
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, LayoutPass, "verified")
                  .at(DiagLocation(P.name()))
              << "layout of " << Layout.totalBytes() << " bytes over "
              << Layout.numDisks()
              << " I/O nodes is a consistent two-level striping");
  return Ok;
}

/// The fragments the oracle checks: the whole laid-out space, split.
std::vector<SubRequest> wholeSplit(const DiskLayout &L) {
  return L.splitRequest(0, L.totalBytes());
}

/// A split that edits the fragment holding logical byte \p At.
using Corruption = std::function<void(std::vector<SubRequest> &, size_t)>;

/// The layout's own split, with \p Corrupt applied to the fragment that
/// holds logical byte \p At in every request that covers it, as a broken
/// mapping would break every request; with \p OnlyBytes set, only in
/// requests of that many bytes (the tile splits).
LayoutVerifier::SplitFn plantAt(const DiskLayout &L, uint64_t At,
                                Corruption Corrupt, uint64_t OnlyBytes = 0) {
  return [&L, At, Corrupt, OnlyBytes](uint64_t Offset, uint64_t Bytes,
                                      std::vector<SubRequest> &Out) {
    L.splitRequestInto(Offset, Bytes, Out);
    if (OnlyBytes != 0 && Bytes != OnlyBytes)
      return;
    uint64_t Pos = Offset;
    for (size_t I = 0; I != Out.size(); Pos += Out[I++].Bytes) {
      if (At >= Pos && At < Pos + Out[I].Bytes) {
        Corrupt(Out, I);
        return;
      }
    }
  };
}

/// The first period of array \p A's file under paperConfig(1)'s striping,
/// where a tile is a stripe unit: one stripe cycle.
std::pair<uint64_t, uint64_t> firstCycle(const DiskLayout &L, ArrayId A) {
  const StripingConfig &C = L.config();
  return {L.fileBase(A), L.fileBase(A) + C.StripeUnitBytes * C.StripeFactor};
}

} // namespace

TEST(LayoutVerifierTest, FragmentChecksAcceptTheRealSplit) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  L.setArrayStartDisk(1, 5);
  // The window check verify() runs, over every whole file.
  for (ArrayId A = 0; A != P.arrays().size(); ++A) {
    DiagHarness H;
    uint64_t End = A + 1 < P.arrays().size() ? L.fileBase(A + 1)
                                             : L.totalBytes();
    const LayoutVerifier::SplitFn Split =
        [&L](uint64_t Offset, uint64_t Bytes, std::vector<SubRequest> &Out) {
          L.splitRequestInto(Offset, Bytes, Out);
        };
    EXPECT_TRUE(
        LayoutVerifier(P, L, H.DE).verifyWindow(A, L.fileBase(A), End, Split));
    EXPECT_EQ(H.DE.total(), 0u);
  }

  std::vector<SubRequest> Frags = wholeSplit(L);
  DiagHarness H;
  EXPECT_TRUE(enumeratedFragmentChecks(P, L, H.DE, Frags));
  EXPECT_EQ(H.DE.total(), 0u);

  // A disk's ranges may arrive out of order; sorted, they still tile it.
  // Fragments 1 and 9 are disk 1's first two stripe units.
  ASSERT_EQ(Frags[1].Disk, Frags[9].Disk);
  std::swap(Frags[1].DiskByteOffset, Frags[9].DiskByteOffset);
  DiagHarness H2;
  EXPECT_TRUE(enumeratedFragmentChecks(P, L, H2.DE, Frags));
  EXPECT_EQ(H2.DE.total(), 0u);
}

TEST(LayoutVerifierTest, RejectsFragmentOffTheLayout) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  std::vector<SubRequest> Frags = wholeSplit(L);
  Frags[3].Disk = 99;
  DiagHarness H;
  EXPECT_FALSE(enumeratedFragmentChecks(P, L, H.DE, Frags));
  const Diagnostic *D = H.Diags.findCheck("disk-out-of-range");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Disk, 99);
  EXPECT_NE(D->message().find("I/O node 99"), std::string::npos);
  EXPECT_EQ(H.DE.total(), 1u);

  // The same fragment in the split verify() compares: the window's and
  // tile 3's.
  auto [Lo, Hi] = firstCycle(L, 0);
  DiagHarness W;
  EXPECT_FALSE(LayoutVerifier(P, L, W.DE).verifyWindow(
      0, Lo, Hi, plantAt(L, 3 * L.tileBytes(), [](auto &Out, size_t I) {
        Out[I].Disk = 99;
      })));
  EXPECT_EQ(W.Diags.countCheck("disk-out-of-range"), 2u);
  D = W.Diags.findCheck("disk-out-of-range");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Disk, 99);
  EXPECT_EQ(D->message(), "fragment of " + std::to_string(L.tileBytes()) +
                              " bytes maps to I/O node 99 but the layout has "
                              "only 8");
  EXPECT_EQ(W.DE.total(), 2u);
}

TEST(LayoutVerifierTest, RejectsSplitThatMissesBytes) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  std::vector<SubRequest> Frags = wholeSplit(L);
  Frags.pop_back();
  DiagHarness H;
  EXPECT_FALSE(enumeratedFragmentChecks(P, L, H.DE, Frags));
  const Diagnostic *D = H.Diags.findCheck("coverage-gap");
  ASSERT_NE(D, nullptr);
  uint64_t Total = L.totalBytes();
  EXPECT_NE(D->message().find(std::to_string(Total - L.tileBytes()) +
                              " of " + std::to_string(Total)),
            std::string::npos);
  EXPECT_EQ(H.DE.total(), 1u);

  // The window's last stripe unit goes missing, and with it tile 7's only
  // fragment.
  auto [Lo, Hi] = firstCycle(L, 0);
  DiagHarness W;
  EXPECT_FALSE(LayoutVerifier(P, L, W.DE).verifyWindow(
      0, Lo, Hi, plantAt(L, Hi - 1, [](auto &Out, size_t I) {
        Out.erase(Out.begin() + ptrdiff_t(I));
      })));
  D = W.Diags.findCheck("coverage-gap");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(), "splitting the laid-out space covers " +
                              std::to_string(Hi - Lo - L.tileBytes()) +
                              " of " + std::to_string(Hi - Lo) + " bytes");
  D = W.Diags.findCheck("tile-split");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(), "splitting tile 7 of array 'A' covers 0 of " +
                              std::to_string(L.tileBytes()) + " bytes");
  D = W.Diags.findCheck("tile-spans-disks");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(),
            "stripe-unit-sized tile 7 of array 'A' spans 0 I/O nodes");
  EXPECT_EQ(W.DE.total(), 3u);
}

TEST(LayoutVerifierTest, RejectsOverlappingFragments) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  std::vector<SubRequest> Frags = wholeSplit(L);
  // Disk 1's first unit moves half a unit into its second: the ranges
  // arrive out of order and overlap once sorted.
  ASSERT_EQ(Frags[1].Disk, 1u);
  ASSERT_EQ(Frags[9].DiskByteOffset, L.tileBytes());
  Frags[1].DiskByteOffset = L.tileBytes() + L.tileBytes() / 2;
  DiagHarness H;
  EXPECT_FALSE(enumeratedFragmentChecks(P, L, H.DE, Frags));
  const Diagnostic *D = H.Diags.findCheck("fragment-overlap");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Disk, 1);
  EXPECT_NE(D->message().find("I/O node 1 byte ranges [" +
                              std::to_string(L.tileBytes())),
            std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("disk-out-of-range"), 0u);
  EXPECT_EQ(H.Diags.countCheck("coverage-gap"), 0u);
  EXPECT_EQ(H.Diags.countCheck("stripe-rotation"), 0u);

  // The window check names the moved unit by its formula offset, which a
  // bijective formula gives no other byte (device-offset), in the
  // window's split and in tile 1's.
  auto [Lo, Hi] = firstCycle(L, 0);
  const uint64_t Moved = L.tileBytes() + L.tileBytes() / 2;
  DiagHarness W;
  EXPECT_FALSE(LayoutVerifier(P, L, W.DE).verifyWindow(
      0, Lo, Hi, plantAt(L, L.tileBytes(), [Moved](auto &Out, size_t I) {
        Out[I].DiskByteOffset = Moved;
      })));
  D = W.Diags.findCheck("device-offset");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Disk, 1);
  EXPECT_EQ(D->message(), "stripe unit 1 of array 'A' lands at byte " +
                              std::to_string(Moved) +
                              " of I/O node 1 but the striping formula puts "
                              "it at byte 0");
  EXPECT_EQ(W.Diags.countCheck("device-offset"), 2u);
  EXPECT_EQ(W.DE.total(), 2u);
}

TEST(LayoutVerifierTest, RejectsBrokenStripeRotation) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  L.setArrayStartDisk(1, 5);
  std::vector<SubRequest> Frags = wholeSplit(L);
  // Stripe unit 2 of array C (the second file), which round-robin from
  // iodevice 5 puts on node 7, moves to node 0 at a free device offset.
  size_t CUnit2 = size_t(L.fileBase(1) / L.tileBytes()) + 2;
  ASSERT_EQ(Frags[CUnit2].Disk, 7u);
  Frags[CUnit2].Disk = 0;
  Frags[CUnit2].DiskByteOffset = L.totalBytes();
  DiagHarness H;
  EXPECT_FALSE(enumeratedFragmentChecks(P, L, H.DE, Frags));
  const Diagnostic *D = H.Diags.findCheck("stripe-rotation");
  ASSERT_NE(D, nullptr);
  const char *Want = "stripe unit 2 of array 'C' lives on I/O node 0 but "
                     "round-robin from starting iodevice 5 requires node 7";
  EXPECT_EQ(D->message(), Want);
  EXPECT_EQ(H.DE.total(), 1u);

  // The same move in the split verify() compares: the window's and tile
  // 2's, with the same text.
  auto [Lo, Hi] = firstCycle(L, 1);
  const uint64_t Free = L.totalBytes();
  DiagHarness W;
  EXPECT_FALSE(LayoutVerifier(P, L, W.DE).verifyWindow(
      1, Lo, Hi,
      plantAt(L, Lo + 2 * L.tileBytes(), [Free](auto &Out, size_t I) {
        Out[I].Disk = 0;
        Out[I].DiskByteOffset = Free;
      })));
  D = W.Diags.findCheck("stripe-rotation");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(), Want);
  EXPECT_EQ(W.Diags.countCheck("stripe-rotation"), 2u);
  EXPECT_EQ(W.DE.total(), 2u);
}

TEST(LayoutVerifierTest, RejectsTileSplitThatMissesBytes) {
  // Only tile 5's own split loses half its bytes; the window's split is
  // sound.
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  auto [Lo, Hi] = firstCycle(L, 0);
  const uint64_t Tile = L.tileBytes();
  DiagHarness W;
  EXPECT_FALSE(LayoutVerifier(P, L, W.DE).verifyWindow(
      0, Lo, Hi,
      plantAt(
          L, 5 * Tile, [](auto &Out, size_t I) { Out[I].Bytes /= 2; }, Tile)));
  const Diagnostic *D = W.Diags.findCheck("tile-split");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(), "splitting tile 5 of array 'A' covers " +
                              std::to_string(Tile / 2) + " of " +
                              std::to_string(Tile) + " bytes");
  EXPECT_EQ(W.DE.total(), 1u);
}

TEST(LayoutVerifierTest, RejectsStripeUnitTileOnTwoDisks) {
  // Tile 4's split puts its second half on node 5, at the offset node 4
  // would hold it: the tile spans two disks, and that half breaks the
  // rotation.
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  auto [Lo, Hi] = firstCycle(L, 0);
  const uint64_t Tile = L.tileBytes();
  DiagHarness W;
  EXPECT_FALSE(LayoutVerifier(P, L, W.DE).verifyWindow(
      0, Lo, Hi,
      plantAt(
          L, 4 * Tile,
          [Tile](auto &Out, size_t I) {
            SubRequest Half = Out[I];
            Out[I].Bytes = Tile / 2;
            Half.Disk = 5;
            Half.DiskByteOffset += Tile / 2;
            Half.Bytes = Tile - Tile / 2;
            Out.insert(Out.begin() + ptrdiff_t(I) + 1, Half);
          },
          Tile)));
  const Diagnostic *D = W.Diags.findCheck("tile-spans-disks");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(),
            "stripe-unit-sized tile 4 of array 'A' spans 2 I/O nodes");
  D = W.Diags.findCheck("stripe-rotation");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(), "stripe unit 4 of array 'A' lives on I/O node 5 "
                          "but round-robin from starting iodevice 0 requires "
                          "node 4");
  EXPECT_EQ(W.DE.total(), 2u);
}

namespace {

std::vector<std::string> rendered(const CollectingConsumer &C) {
  std::vector<std::string> Lines;
  for (const Diagnostic &D : C.diagnostics())
    Lines.push_back(D.render());
  return Lines;
}

/// Runs the closed form and the oracle on \p Layout; both must give the
/// same verdict and the same diagnostics, and \p Layout must verify.
void expectClosedFormMatchesOracle(const Program &P, const DiskLayout &Layout,
                                   const std::string &What) {
  DiagHarness Closed, Oracle;
  bool ClosedOk = LayoutVerifier(P, Layout, Closed.DE).verify();
  bool OracleOk = enumeratedLayoutCheck(P, Layout, Oracle.DE);
  EXPECT_TRUE(ClosedOk) << What;
  EXPECT_EQ(ClosedOk, OracleOk) << What;
  EXPECT_EQ(rendered(Closed.Diags), rendered(Oracle.Diags)) << What;
}

} // namespace

TEST(LayoutVerifierTest, ClosedFormMatchesEnumerationOnShippedPrograms) {
  for (const char *Name : {"demo.dra", "stencil.dra", "triangular.dra"}) {
    std::string Error;
    auto P = Parser::parseFile(
        std::string(DRA_SOURCE_DIR) + "/examples/programs/" + Name, Error);
    ASSERT_TRUE(P.has_value()) << Name << ": " << Error;
    expectClosedFormMatchesOracle(*P, DiskLayout(*P, StripingConfig()), Name);
  }
  for (const AppUnderTest &App : paperApps(0.1)) {
    Program P = App.Build();
    DiskLayout L(P, paperConfig(4).Striping);
    expectClosedFormMatchesOracle(P, L, App.Name);
    for (ArrayId A = 0; A != P.arrays().size(); ++A)
      L.setArrayStartDisk(A, unsigned(A * 3) % L.numDisks());
    expectClosedFormMatchesOracle(P, L, App.Name + " with start disks");
  }
}

TEST(LayoutVerifierTest, ClosedFormMatchesEnumerationOnRandomLayouts) {
  // Small random layouts over the shapes the closed form must cover:
  // stripe factors 1-9, stripe units that are not powers of two, tiles of
  // 1-3 units and of a fraction of a unit, per-array start disks, RAID
  // sub-striping and a scratch region.
  std::mt19937_64 Rng(20061);
  auto Pick = [&](uint64_t Lo, uint64_t Hi) {
    return std::uniform_int_distribution<uint64_t>(Lo, Hi)(Rng);
  };
  for (unsigned Case = 0; Case != 300; ++Case) {
    std::string Name = "random";
    Name += std::to_string(Case);
    ProgramBuilder B(Name);
    std::vector<AffineExpr> Corner;
    for (uint64_t A = 0, E = Pick(1, 4); A != E; ++A) {
      std::vector<int64_t> Dims;
      for (uint64_t D = 0, R = Pick(1, 2); D != R; ++D)
        Dims.push_back(int64_t(Pick(1, 13)));
      if (A == 0)
        Corner.assign(Dims.size(), AffineExpr(0));
      std::string Array = "A";
      Array += std::to_string(A);
      B.addArray(Array, Dims);
    }
    B.beginNest("n", 1.0).loop(0, 1).read(0, Corner).endNest();
    Program P = B.build();

    StripingConfig C;
    C.StripeFactor = unsigned(Pick(1, 9));
    C.StripeUnitBytes = Pick(0, 3) == 0 ? 4096 : Pick(1, 5000);
    C.StartDisk = unsigned(Pick(0, C.StripeFactor - 1));
    C.DisksPerNode = unsigned(Pick(1, 3));
    uint64_t TileBytes = Pick(0, 1) == 0
                             ? C.StripeUnitBytes * Pick(1, 3)
                             : std::max<uint64_t>(1, C.StripeUnitBytes /
                                                         Pick(2, 7));
    DiskLayout L(P, C, TileBytes);
    if (Pick(0, 1) == 0)
      for (ArrayId A = 0; A != P.arrays().size(); ++A)
        L.setArrayStartDisk(A, unsigned(Pick(0, C.StripeFactor - 1)));
    L.setScratchTiles(Pick(0, 5));
    std::string What = "case ";
    What += std::to_string(Case);
    What += ": factor ";
    What += std::to_string(C.StripeFactor);
    What += ", unit ";
    What += std::to_string(C.StripeUnitBytes);
    What += ", tile ";
    What += std::to_string(TileBytes);
    expectClosedFormMatchesOracle(P, L, What);
  }
}

TEST(LayoutVerifierTest, RejectsLayoutOfAnotherProgram) {
  // The layout packs files for 4x4-tile arrays; the program's arrays are
  // 12x12, so each file is too small for its tiles and the total is short.
  ProgramBuilder Small("small");
  ArrayId SA = Small.addArray("A", {4, 4});
  Small.addArray("C", {4, 4});
  Small.beginNest("s0", 1.0).loop(0, 4).read(SA, {iv(0), iv(0)}).endNest();
  Program PSmall = Small.build();
  Program P = smallStencil();
  DiskLayout L(PSmall, paperConfig(1).Striping);
  DiagHarness H;
  EXPECT_FALSE(LayoutVerifier(P, L, H.DE).verify());
  const Diagnostic *D = H.Diags.findCheck("file-bounds");
  ASSERT_NE(D, nullptr);
  uint64_t Unit = L.config().StripeUnitBytes;
  std::string Bounds = "file of array 'A' spans bytes [0, ";
  Bounds += std::to_string(16 * Unit);
  Bounds += ") but its 144 tiles need ";
  Bounds += std::to_string(144 * Unit);
  EXPECT_EQ(D->message(), Bounds);
  EXPECT_EQ(H.Diags.countCheck("file-bounds"), 2u);
  const Diagnostic *T = H.Diags.findCheck("total-bytes");
  ASSERT_NE(T, nullptr);
  std::string Total = "layout claims ";
  Total += std::to_string(32 * Unit);
  Total += " bytes but its cycle-aligned files hold ";
  Total += std::to_string(288 * Unit);
  EXPECT_EQ(T->message(), Total);
  // The mapping is not compared against state that cannot hold it.
  EXPECT_EQ(H.DE.numErrors(), 3u);
  EXPECT_EQ(H.Diags.countCheck("verified"), 0u);
}

TEST(ScheduleVerifierTest, RejectsFootprintOfAnotherLayout) {
  // The footprint's per-disk demand was derived for 144-tile arrays
  // striped over 8 I/O nodes (18 tiles each); the verifier's layout
  // stripes them over 5.
  Program P = smallStencil();
  IterationSpace Space(P);
  StripingConfig C = paperConfig(1).Striping;
  DiskLayout Claimed(P, C);
  C.StripeFactor = 5;
  DiskLayout Actual(P, C);
  SymbolicFootprint FP(P, Claimed);

  DiagHarness Clean;
  EXPECT_TRUE(
      ScheduleVerifier(P, Space, Claimed, Clean.DE).verifyFootprint(FP));
  DiagHarness H;
  EXPECT_FALSE(ScheduleVerifier(P, Space, Actual, H.DE).verifyFootprint(FP));
  const Diagnostic *D = H.Diags.findCheck("footprint-demand-mismatch");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("claims 18 tiles on disk 0"), std::string::npos);
  EXPECT_NE(D->message().find("recount gives 29"), std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("footprint-count-mismatch"), 0u);
  EXPECT_EQ(H.Diags.countCheck("footprint-iterations-mismatch"), 0u);
}

TEST(ScheduleVerifierTest, RejectsFootprintOfAnotherSpace) {
  // The footprint of the 12x12 stencil checked against the same program
  // shape over 6x6 iterations: iteration and distinct-tile counts differ.
  Program Big = smallStencil();
  DiskLayout BigLayout(Big, paperConfig(1).Striping);
  SymbolicFootprint FP(Big, BigLayout);

  ProgramBuilder B("small");
  ArrayId A = B.addArray("A", {12, 12});
  ArrayId C = B.addArray("C", {12, 12});
  B.beginNest("s0", 1.5)
      .loop(0, 6)
      .loop(0, 6)
      .read(A, {iv(0), iv(1)})
      .write(C, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, 6)
      .loop(0, 6)
      .read(C, {iv(1), iv(0)})
      .write(A, {iv(0), iv(1)})
      .endNest();
  Program Small = B.build();
  IterationSpace Space(Small);
  DiskLayout Layout(Small, paperConfig(1).Striping);

  DiagHarness H;
  ScheduleVerifier SV(Small, Space, Layout, H.DE);
  EXPECT_FALSE(SV.verifyFootprint(FP));
  const Diagnostic *I = H.Diags.findCheck("footprint-iterations-mismatch");
  ASSERT_NE(I, nullptr);
  EXPECT_NE(I->message().find("claims 144 iterations symbolically but the "
                              "iteration space holds 36"),
            std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("footprint-iterations-mismatch"), 2u);
  const Diagnostic *N = H.Diags.findCheck("footprint-count-mismatch");
  ASSERT_NE(N, nullptr);
  EXPECT_NE(N->message().find("claims 144 distinct tiles"), std::string::npos);
  EXPECT_NE(N->message().find("recount gives 36"), std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("footprint-count-mismatch"), 4u);
}

//===----------------------------------------------------------------------===//
// ScheduleVerifier — positive and corruption tests
//===----------------------------------------------------------------------===//

namespace {

/// Compiled context for schedule checks.
struct Compiled {
  Program P;
  Pipeline Pipe;
  DiagHarness H;

  explicit Compiled(unsigned Procs, Program Prog = smallStencil())
      : P(std::move(Prog)), Pipe(P, paperConfig(Procs)) {}

  ScheduleVerifier verifier() {
    return ScheduleVerifier(P, Pipe.space(), Pipe.layout(), H.DE);
  }
};

} // namespace

TEST(ScheduleVerifierTest, AcceptsIdentityOrder) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::Base);
  ScheduleVerifier SV = C.verifier();
  EXPECT_TRUE(SV.verifyWork(W));
  EXPECT_FALSE(C.H.DE.hasErrors());
  EXPECT_EQ(C.H.Diags.countCheck("verified"), 1u);
}

TEST(ScheduleVerifierTest, RejectsDuplicatedIteration) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);
  // Corrupt: position 5 repeats the iteration at position 0.
  GlobalIter Dup = W.PerProc[0][0];
  GlobalIter Lost = W.PerProc[0][5];
  W.PerProc[0][5] = Dup;

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("duplicate-iteration");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->severity(), DiagSeverity::Error);
  // The diagnostic names the offending iteration, structurally and in text.
  EXPECT_EQ(D->location().Iter, int64_t(Dup));
  EXPECT_NE(D->message().find(std::to_string(Dup)), std::string::npos);
  // The overwritten iteration is reported missing.
  const Diagnostic *M = C.H.Diags.findCheck("missing-iteration");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->location().Iter, int64_t(Lost));
  // No legality remark for a corrupt schedule.
  EXPECT_EQ(C.H.Diags.countCheck("verified"), 0u);
}

TEST(ScheduleVerifierTest, RejectsDroppedIteration) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);
  GlobalIter Dropped = W.PerProc[0].back();
  W.PerProc[0].pop_back();

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("missing-iteration");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Iter, int64_t(Dropped));
  EXPECT_NE(D->message().find(std::to_string(Dropped)), std::string::npos);
  EXPECT_EQ(C.H.Diags.countCheck("duplicate-iteration"), 0u);
}

TEST(ScheduleVerifierTest, RejectsDependenceInvertingSwap) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);

  // Find a dependence edge u -> v and swap their schedule positions.
  IterationGraph G(C.P, C.Pipe.space());
  GlobalIter U = 0, V = 0;
  bool Found = false;
  for (GlobalIter I = 0; I != GlobalIter(C.Pipe.space().size()) && !Found;
       ++I) {
    if (!G.succs(I).empty()) {
      U = I;
      V = G.succs(I).front();
      Found = true;
    }
  }
  ASSERT_TRUE(Found) << "test program must have dependences";
  auto &Order = W.PerProc[0];
  auto PosU = std::find(Order.begin(), Order.end(), U);
  auto PosV = std::find(Order.begin(), Order.end(), V);
  ASSERT_NE(PosU, Order.end());
  ASSERT_NE(PosV, Order.end());
  std::iter_swap(PosU, PosV);

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("dependence-violation");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->severity(), DiagSeverity::Error);
  // Names both the dependent and the source iteration.
  EXPECT_EQ(D->location().Iter, int64_t(V));
  EXPECT_NE(D->message().find(std::to_string(U)), std::string::npos);
  EXPECT_NE(D->message().find(std::to_string(V)), std::string::npos);
  // The swap preserved the permutation, so only legality fails.
  EXPECT_EQ(C.H.Diags.countCheck("duplicate-iteration"), 0u);
  EXPECT_EQ(C.H.Diags.countCheck("missing-iteration"), 0u);
}

TEST(ScheduleVerifierTest, RejectsCrossProcessorDependenceWithoutBarrier) {
  Compiled C(1);
  // Hand-build a two-processor split with nest s1 (which depends on s0's
  // writes) on its own processor but no separating barrier phase.
  const IterationSpace &Space = C.Pipe.space();
  ScheduledWork W;
  W.PerProc.resize(2);
  for (GlobalIter G = Space.nestBegin(0); G != Space.nestEnd(0); ++G)
    W.PerProc[0].push_back(G);
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PerProc[1].push_back(G);
  W.PhaseOf.assign(Space.size(), 0); // everything in one phase: illegal

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("barrier-violation");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("not separated by a barrier"),
            std::string::npos);

  // The same split with s1 in a later phase is legal.
  DiagHarness H2;
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PhaseOf[G] = 1;
  ScheduleVerifier SV2(C.P, Space, C.Pipe.layout(), H2.DE);
  EXPECT_TRUE(SV2.verifyWork(W));
}

TEST(ScheduleVerifierTest, RejectsPhaseRegression) {
  Compiled C(1);
  const IterationSpace &Space = C.Pipe.space();
  ScheduledWork W;
  W.PerProc.resize(1);
  // Nest s1 (phase 1) scheduled before nest s0 (phase 0) on one processor.
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PerProc[0].push_back(G);
  for (GlobalIter G = Space.nestBegin(0); G != Space.nestEnd(0); ++G)
    W.PerProc[0].push_back(G);
  W.PhaseOf.assign(Space.size(), 0);
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PhaseOf[G] = 1;

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  ASSERT_NE(C.H.Diags.findCheck("phase-regression"), nullptr);
}

TEST(ScheduleVerifierTest, LocalityRecountMatchesAndDetectsCorruption) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);
  Schedule S;
  S.Order = W.PerProc[0];
  ScheduleLocality L = S.locality(C.Pipe.table(), C.Pipe.layout());

  ScheduleVerifier SV = C.verifier();
  EXPECT_TRUE(SV.verifyLocality(S, L));
  EXPECT_FALSE(C.H.DE.hasErrors());

  ScheduleLocality Bad = L;
  Bad.DiskSwitches += 1;
  EXPECT_FALSE(SV.verifyLocality(S, Bad));
  const Diagnostic *D = C.H.Diags.findCheck("locality-mismatch");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("DiskSwitches"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Property tests: everything the pipeline emits verifies clean
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifierTest, AllSchemesVerifyCleanOnStencil) {
  for (unsigned Procs : {1u, 4u}) {
    Compiled C(Procs);
    ScheduleVerifier SV = C.verifier();
    for (Scheme S : allSchemes()) {
      ScheduledWork W = C.Pipe.compile(S);
      EXPECT_TRUE(SV.verifyWork(W))
          << schemeName(S) << " with " << Procs << " procs";
    }
    EXPECT_FALSE(C.H.DE.hasErrors());
  }
}

TEST(ScheduleVerifierTest, AllSchemesVerifyCleanOnPaperApps) {
  for (const AppUnderTest &A : paperApps(0.06)) {
    for (unsigned Procs : {1u, 4u}) {
      Compiled C(Procs, A.Build());
      ScheduleVerifier SV = C.verifier();
      for (Scheme S : allSchemes()) {
        ScheduledWork W = C.Pipe.compile(S);
        EXPECT_TRUE(SV.verifyWork(W))
            << A.Name << ", " << schemeName(S) << ", " << Procs << " procs";
      }
      EXPECT_FALSE(C.H.DE.hasErrors()) << A.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

TEST(PipelineVerifyTest, FullVerifyRunsCleanAcrossSchemes) {
  for (unsigned Procs : {1u, 4u}) {
    Program P = smallStencil();
    PipelineConfig Cfg = paperConfig(Procs);
    Cfg.Verify = VerifyLevel::Full;
    Pipeline Pipe(P, Cfg);
    for (Scheme S : allSchemes())
      EXPECT_NO_THROW(Pipe.run(S)) << schemeName(S);
    EXPECT_FALSE(Pipe.diags().hasErrors());
    // IR + layout remarks from construction, schedule remarks per compile.
    EXPECT_GE(Pipe.collectedDiags().countCheck("verified"), 3u);
  }
}

TEST(PipelineVerifyTest, CheapVerifyRunsClean) {
  Program P = smallStencil();
  PipelineConfig Cfg = paperConfig(2);
  Cfg.Verify = VerifyLevel::Cheap;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : allSchemes())
    EXPECT_NO_THROW(Pipe.run(S));
  EXPECT_FALSE(Pipe.diags().hasErrors());
}

TEST(PipelineVerifyTest, ConstructorRejectsMalformedProgram) {
  Program P("bad");
  P.addArray("A", {4});
  P.addArray("A", {4}); // duplicate name
  PipelineConfig Cfg = paperConfig(1);
  Cfg.Verify = VerifyLevel::Cheap;
  EXPECT_THROW(
      {
        Pipeline Pipe(P, Cfg);
      },
      VerificationError);
  try {
    Pipeline Pipe(P, Cfg);
  } catch (const VerificationError &E) {
    EXPECT_EQ(E.stage(), "ir");
    EXPECT_NE(std::string(E.what()).find("duplicate-array-name"),
              std::string::npos);
  }
}

TEST(PipelineVerifyTest, ShippedProgramsVerifyFullAcrossSchemes) {
  for (const char *Name : {"demo.dra", "stencil.dra", "triangular.dra"}) {
    std::string Error;
    auto P = Parser::parseFile(
        std::string(DRA_SOURCE_DIR) + "/examples/programs/" + Name, Error);
    ASSERT_TRUE(P.has_value()) << Name << ": " << Error;
    for (unsigned Procs : {1u, 4u}) {
      PipelineConfig Cfg;
      Cfg.NumProcs = Procs;
      Cfg.Verify = VerifyLevel::Full;
      Pipeline Pipe(*P, Cfg);
      for (Scheme S : allSchemes())
        EXPECT_NO_THROW(Pipe.compile(S))
            << Name << ", " << schemeName(S) << ", " << Procs << " procs";
      EXPECT_FALSE(Pipe.diags().hasErrors()) << Name;
    }
  }
}
