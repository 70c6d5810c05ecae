//===- verify/LayoutVerifier.cpp - Stripe-mapping sanity -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/LayoutVerifier.h"

#include <algorithm>

using namespace dra;

namespace {

const char *PassName = "layout-verifier";

constexpr unsigned MaxPerCheck = 16;

/// A fragment's bytes on its disk: (device offset, bytes).
using Range = std::pair<uint64_t, uint64_t>;

} // namespace

bool LayoutVerifier::verifyConfig(const StripingConfig &C,
                                  DiagnosticEngine &DE) {
  bool Ok = true;
  if (C.StripeFactor == 0) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "zero-stripe-factor")
              << "stripe factor must be at least one I/O node");
    Ok = false;
  }
  if (C.StripeUnitBytes == 0) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "zero-stripe-unit")
              << "stripe unit must be a positive number of bytes");
    Ok = false;
  }
  if (C.StripeFactor != 0 && C.StartDisk >= C.StripeFactor) {
    DE.report(
        Diagnostic(DiagSeverity::Error, PassName, "start-disk-out-of-range")
        << "starting iodevice " << C.StartDisk << " is outside the stripe "
        << "factor of " << C.StripeFactor << " I/O nodes");
    Ok = false;
  }
  if (C.DisksPerNode == 0) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "zero-disks-per-node")
              << "each I/O node needs at least one disk");
    Ok = false;
  }
  return Ok;
}

bool LayoutVerifier::verifyFragments(std::span<const SubRequest> Frags) {
  bool Ok = true;
  unsigned NumDisks = Layout.numDisks();
  uint64_t Total = Layout.totalBytes();

  // The fragments must (a) land on real disks, (b) sum to the space, and
  // (c) never claim the same device byte twice — i.e. byte -> (iodevice,
  // device offset) is injective. A striped split delivers each disk's
  // ranges in ascending device order, so (c) holds outright when every
  // range starts at or past the end of its disk's previous one.
  std::vector<Range> LastOf(NumDisks, Range{0, 0});
  uint64_t Covered = 0;
  unsigned BadDisk = 0;
  bool InOrder = true;
  for (const SubRequest &F : Frags) {
    Covered += F.Bytes;
    if (F.Disk < NumDisks) {
      Range &Last = LastOf[F.Disk];
      InOrder &= Last.first + Last.second <= F.DiskByteOffset;
      Last = {F.DiskByteOffset, F.Bytes};
      continue;
    }
    if (++BadDisk <= MaxPerCheck)
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "disk-out-of-range")
                    .at(DiagLocation(Prog.name(), -1, -1, F.Disk))
                << "fragment of " << F.Bytes << " bytes maps to I/O node "
                << F.Disk << " but the layout has only " << NumDisks);
    Ok = false;
  }
  if (Covered != Total) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "coverage-gap")
                  .at(DiagLocation(Prog.name()))
              << "splitting the laid-out space covers " << Covered << " of "
              << Total << " bytes");
    Ok = false;
  }
  if (!InOrder)
    Ok &= verifyOverlaps(Frags);
  Ok &= verifyRotation(Frags);
  return Ok;
}

bool LayoutVerifier::verifyOverlaps(std::span<const SubRequest> Frags) {
  // Disk D's ranges fill [RowBegin[D], RowBegin[D + 1]) of one flat array
  // in arrival order; a row is sorted only if it arrived out of order.
  unsigned NumDisks = Layout.numDisks();
  std::vector<uint64_t> RowBegin(NumDisks + 1, 0);
  for (const SubRequest &F : Frags)
    if (F.Disk < NumDisks)
      ++RowBegin[F.Disk + 1];
  for (unsigned D = 0; D != NumDisks; ++D)
    RowBegin[D + 1] += RowBegin[D];
  std::vector<Range> Ranges(static_cast<size_t>(RowBegin[NumDisks]));
  std::vector<uint64_t> Fill(RowBegin.begin(), RowBegin.end() - 1);
  std::vector<uint8_t> Unsorted(NumDisks, 0);
  for (const SubRequest &F : Frags) {
    if (F.Disk >= NumDisks)
      continue;
    uint64_t &At = Fill[F.Disk];
    Range R{F.DiskByteOffset, F.Bytes};
    if (At != RowBegin[F.Disk] && R < Ranges[size_t(At - 1)])
      Unsorted[F.Disk] = 1;
    Ranges[size_t(At++)] = R;
  }

  bool Ok = true;
  unsigned Overlaps = 0;
  for (unsigned Disk = 0; Disk != NumDisks; ++Disk) {
    auto Begin = Ranges.begin() + ptrdiff_t(RowBegin[Disk]);
    auto End = Ranges.begin() + ptrdiff_t(RowBegin[Disk + 1]);
    if (Unsorted[Disk])
      std::sort(Begin, End);
    for (auto I = Begin; I != End && I + 1 != End; ++I) {
      const Range &Lo = I[0], &Hi = I[1];
      if (Lo.first + Lo.second > Hi.first) {
        if (++Overlaps <= MaxPerCheck)
          DE.report(
              Diagnostic(DiagSeverity::Error, PassName, "fragment-overlap")
                  .at(DiagLocation(Prog.name(), -1, -1, Disk))
              << "I/O node " << Disk << " byte ranges [" << Lo.first << ", +"
              << Lo.second << ") and [" << Hi.first << ", +" << Hi.second
              << ") overlap");
        Ok = false;
      }
    }
  }
  if (Overlaps > MaxPerCheck)
    DE.report(Diagnostic(DiagSeverity::Note, PassName, "fragment-overlap")
              << (Overlaps - MaxPerCheck) << " further overlaps suppressed");
  return Ok;
}

bool LayoutVerifier::verifyRotation(std::span<const SubRequest> Frags) {
  // Files are aligned to full stripe cycles, so within each array's file
  // consecutive stripe units must visit I/O nodes round-robin starting at
  // the array's starting iodevice. The fragments tile the logical space in
  // order, so a cursor over the stripe units follows them: unit U of array
  // A, which ends at logical byte UnitEnd and must live on node Want.
  const StripingConfig &C = Layout.config();
  const unsigned NumDisks = Layout.numDisks();
  const size_t NumArrays = Prog.arrays().size();
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
    DataUnits = (uint64_t(Prog.array(ArrayId(A)).numTiles()) *
                     Layout.tileBytes() +
                 C.StripeUnitBytes - 1) /
                C.StripeUnitBytes;
    Want = Layout.arrayStartDisk(ArrayId(A)) % C.StripeFactor;
  };
  auto Advance = [&] {
    ++U;
    Want = Want + 1 == C.StripeFactor ? 0 : Want + 1;
    while (U == FileUnits && A + 1 < NumArrays)
      Enter(A + 1);
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
        if (++Rotations <= MaxPerCheck)
          DE.report(
              Diagnostic(DiagSeverity::Error, PassName, "stripe-rotation")
                  .at(DiagLocation(Prog.name(), -1, -1, F.Disk))
              << "stripe unit " << U << " of array '"
              << Prog.array(ArrayId(A)).Name << "' lives on I/O node "
              << F.Disk << " but round-robin from starting iodevice "
              << Layout.arrayStartDisk(ArrayId(A)) << " requires node "
              << Want);
        Ok = false;
      }
      Pos = std::min(End, UnitEnd);
      if (Pos == UnitEnd) {
        Advance();
        UnitEnd += C.StripeUnitBytes;
      }
    }
  }
  if (Rotations > MaxPerCheck)
    DE.report(Diagnostic(DiagSeverity::Note, PassName, "stripe-rotation")
              << (Rotations - MaxPerCheck) << " further rotation diagnostics "
              << "suppressed");
  return Ok;
}

bool LayoutVerifier::verifyTiles() {
  bool Ok = true;
  unsigned Errors = 0;
  const unsigned NumDisks = Layout.numDisks();
  const uint64_t TileBytes = Layout.tileBytes();
  const uint64_t StripeUnit = Layout.config().StripeUnitBytes;
  bool TileIsStripeUnit = TileBytes == StripeUnit;

  // Each tile is split once into one reused buffer; the primary-disk,
  // spans-disks and covered-bytes checks all read that split. A tile
  // touches at most TileBytes / StripeUnit + 2 stripe units, so the buffer
  // never grows. DiskStamp[D] == Stamp marks disk D as seen for this tile.
  std::vector<SubRequest> Split;
  Split.reserve(size_t(TileBytes / StripeUnit + 2));
  std::vector<uint64_t> DiskStamp(NumDisks, 0);
  uint64_t Stamp = 0;

  for (const ArrayInfo &A : Prog.arrays()) {
    if (Layout.arrayStartDisk(A.Id) >= NumDisks) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName,
                           "array-start-disk-out-of-range")
                    .at(DiagLocation(Prog.name()))
                << "array '" << A.Name << "' starts at iodevice "
                << Layout.arrayStartDisk(A.Id) << " of " << NumDisks);
      Ok = false;
    }
    for (int64_t T = 0, E = A.numTiles(); T != E; ++T) {
      TileRef Tile{A.Id, T};
      uint64_t Off = Layout.tileByteOffset(Tile);

      if (Layout.arrayOfByte(Off) != A.Id) {
        if (++Errors <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "tile-array-roundtrip")
                        .at(DiagLocation(Prog.name()))
                    << "tile " << T << " of array '" << A.Name
                    << "' at byte " << Off << " resolves to array id "
                    << Layout.arrayOfByte(Off));
        Ok = false;
        continue;
      }

      unsigned Primary = Layout.primaryDiskOfTile(Tile);
      Layout.splitRequestInto(Off, TileBytes, Split);
      uint64_t Covered = 0, Disks = 0;
      ++Stamp;
      for (const SubRequest &F : Split) {
        Covered += F.Bytes;
        if (F.Disk >= NumDisks) {
          ++Disks; // Off the layout: distinct from every real disk.
        } else if (DiskStamp[F.Disk] != Stamp) {
          DiskStamp[F.Disk] = Stamp;
          ++Disks;
        }
      }

      // The split starts at the tile's first byte, so its first fragment
      // names the node that holds it.
      if (Split.empty() || Split.front().Disk != Primary) {
        if (++Errors <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "primary-disk-mismatch")
                        .at(DiagLocation(Prog.name(), -1, -1, Primary))
                    << "tile " << T << " of array '" << A.Name
                    << "' claims primary I/O node " << Primary
                    << " but its first byte lives on node "
                    << Layout.diskOfByte(Off));
        Ok = false;
      }
      if (TileIsStripeUnit && Disks != 1) {
        if (++Errors <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "tile-spans-disks")
                        .at(DiagLocation(Prog.name(), -1, -1, Primary))
                    << "stripe-unit-sized tile " << T << " of array '"
                    << A.Name << "' spans " << Disks << " I/O nodes");
        Ok = false;
      }
      if (Covered != TileBytes) {
        if (++Errors <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName, "tile-split")
                        .at(DiagLocation(Prog.name()))
                    << "splitting tile " << T << " of array '" << A.Name
                    << "' covers " << Covered << " of " << TileBytes
                    << " bytes");
        Ok = false;
      }
    }
  }
  if (Errors > MaxPerCheck)
    DE.report(Diagnostic(DiagSeverity::Note, PassName, "tile-checks")
              << (Errors - MaxPerCheck) << " further tile diagnostics "
              << "suppressed");
  return Ok;
}

bool LayoutVerifier::verify() {
  bool Ok = verifyConfig(Layout.config(), DE);
  if (Ok) {
    // The whole logical space, split as the simulator splits requests. A
    // split yields at most one fragment per stripe unit, so the presized
    // vector never grows.
    std::vector<SubRequest> Frags;
    Frags.reserve(
        size_t(Layout.totalBytes() / Layout.config().StripeUnitBytes));
    Layout.splitRequestInto(0, Layout.totalBytes(), Frags);
    Ok &= verifyFragments(Frags);
    Ok &= verifyTiles();
  }
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified")
                  .at(DiagLocation(Prog.name()))
              << "layout of " << Layout.totalBytes() << " bytes over "
              << Layout.numDisks()
              << " I/O nodes is a consistent two-level striping");
  return Ok;
}
