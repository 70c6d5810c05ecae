//===- verify/LayoutVerifier.cpp - Stripe-mapping sanity -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/LayoutVerifier.h"

#include <algorithm>
#include <numeric>
#include <tuple>

using namespace dra;

namespace {

const char *PassName = "layout-verifier";

constexpr unsigned MaxPerCheck = 16;

bool capped(unsigned &Count) { return ++Count <= MaxPerCheck; }

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

bool LayoutVerifier::verifyFiles() {
  // The state the mapping is built from, in O(arrays): files packed from
  // byte 0, each on a stripe-cycle boundary and large enough for its
  // tiles, each striping from a disk that exists, and the total their sum.
  // The formula below is a bijection exactly when this holds: a file owns
  // whole stripe cycles, and a cycle's units go to distinct disks at one
  // device offset.
  const StripingConfig &C = Layout.config();
  const unsigned NumDisks = Layout.numDisks();
  const uint64_t Cycle = C.StripeUnitBytes * C.StripeFactor;
  const size_t NumArrays = Prog.arrays().size();
  bool Ok = true;
  unsigned Misplaced = 0;
  unsigned __int128 Files = 0;
  for (const ArrayInfo &A : Prog.arrays()) {
    if (Layout.arrayStartDisk(A.Id) >= NumDisks) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName,
                           "array-start-disk-out-of-range")
                    .at(DiagLocation(Prog.name()))
                << "array '" << A.Name << "' starts at iodevice "
                << Layout.arrayStartDisk(A.Id) << " of " << NumDisks);
      Ok = false;
    }
    const uint64_t Base = Layout.fileBase(A.Id);
    const uint64_t End = A.Id + 1 < NumArrays ? Layout.fileBase(A.Id + 1)
                                              : Layout.totalBytes();
    const unsigned __int128 Data =
        (unsigned __int128)uint64_t(A.numTiles()) * Layout.tileBytes();
    Files += (Data + Cycle - 1) / Cycle * Cycle;
    const bool Unowned = A.Id == 0 && Base != 0;
    const bool Unaligned = Base % Cycle != 0;
    const bool TooSmall = End < Base || End - Base < Data;
    if (!Unowned && !Unaligned && !TooSmall)
      continue;
    Ok = false;
    if (++Misplaced > MaxPerCheck)
      continue;
    Diagnostic D = Diagnostic(DiagSeverity::Error, PassName, "file-bounds")
                       .at(DiagLocation(Prog.name()))
                   << "file of array '" << A.Name << "' ";
    if (Unowned)
      D << "starts at byte " << Base
        << ", leaving the bytes before it in no file";
    else if (Unaligned)
      D << "starts at byte " << Base << ", not on a boundary of the "
        << Cycle << "-byte stripe cycle";
    else
      D << "spans bytes [" << Base << ", " << End << ") but its "
        << A.numTiles() << " tiles need " << uint64_t(Data);
    DE.report(D);
  }
  if (Misplaced > MaxPerCheck)
    DE.report(Diagnostic(DiagSeverity::Note, PassName, "file-bounds")
              << (Misplaced - MaxPerCheck)
              << " further file-bounds diagnostics suppressed");
  if (Files != Layout.totalBytes()) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "total-bytes")
                  .at(DiagLocation(Prog.name()))
              << "layout claims " << Layout.totalBytes()
              << " bytes but its cycle-aligned files hold "
              << uint64_t(Files));
    Ok = false;
  }
  return Ok;
}

bool LayoutVerifier::verifyPeriods() {
  // Within a file the mapping repeats every Period bytes: a period is a
  // whole number of stripe cycles (so of disks, each one unit further
  // down) and of tiles (so of tile phases). Checking the mapping against
  // the formula over the first and the last period of every file covers
  // every disk, unit phase and tile phase at both ends of the file, where
  // the file lookup, the padding and the largest offsets live.
  const StripingConfig &C = Layout.config();
  const uint64_t Unit = C.StripeUnitBytes;
  const uint64_t TileBytes = Layout.tileBytes();
  const uint64_t Cycle = Unit * C.StripeFactor;
  const unsigned __int128 Period =
      (unsigned __int128)(TileBytes / std::gcd(TileBytes, Cycle)) * Cycle;
  const size_t NumArrays = Prog.arrays().size();
  auto FileEnd = [&](ArrayId A) {
    return A + 1 < NumArrays ? Layout.fileBase(A + 1) : Layout.totalBytes();
  };
  auto WindowOf = [&](ArrayId A) {
    const uint64_t Len = FileEnd(A) - Layout.fileBase(A);
    return Period < Len ? uint64_t(Period) : Len;
  };

  // One reused split buffer: a window starts on a stripe unit and a tile
  // is no longer than a window, so neither split needs more than this.
  uint64_t MaxWindow = 0;
  for (const ArrayInfo &A : Prog.arrays())
    MaxWindow = std::max(MaxWindow, WindowOf(A.Id));
  Frags.reserve(size_t(MaxWindow / Unit + 2));

  const SplitFn Split = [this](uint64_t Offset, uint64_t Bytes,
                               std::vector<SubRequest> &Out) {
    Layout.splitRequestInto(Offset, Bytes, Out);
  };
  Seen = {};
  bool Ok = true;
  for (const ArrayInfo &A : Prog.arrays()) {
    const uint64_t Base = Layout.fileBase(A.Id), End = FileEnd(A.Id);
    const uint64_t Window = WindowOf(A.Id);
    Ok &= checkWindow(A, Base, Base + Window, Split);
    // The last period, or what of it the first one left: both ends are
    // stripe-cycle aligned, so the window starts on a stripe unit.
    if (End - Base > Window)
      Ok &= checkWindow(A, std::max(End - Window, Base + Window), End, Split);
  }
  reportSuppressed();
  return Ok;
}

bool LayoutVerifier::verifyWindow(ArrayId A, uint64_t Lo, uint64_t Hi,
                                  const SplitFn &Split) {
  Seen = {};
  bool Ok = checkWindow(Prog.array(A), Lo, Hi, Split);
  reportSuppressed();
  return Ok;
}

uint64_t LayoutVerifier::checkSplit(const ArrayInfo &A, uint64_t Lo,
                                    bool &Ok) {
  // Stripe unit by stripe unit: each fragment must sit on the formula's
  // disk at the formula's device offset.
  const StripingConfig &C = Layout.config();
  const uint64_t Unit = C.StripeUnitBytes;
  const unsigned Factor = C.StripeFactor;
  const unsigned NumDisks = Layout.numDisks();
  const uint64_t FirstUnit = Layout.fileBase(A.Id) / Unit;
  const unsigned Start = Layout.arrayStartDisk(A.Id);
  uint64_t Pos = Lo;
  for (const SubRequest &F : Frags) {
    const uint64_t End = Pos + F.Bytes;
    if (F.Disk >= NumDisks) {
      if (capped(Seen.BadDisks))
        DE.report(
            Diagnostic(DiagSeverity::Error, PassName, "disk-out-of-range")
                .at(DiagLocation(Prog.name(), -1, -1, F.Disk))
            << "fragment of " << F.Bytes << " bytes maps to I/O node "
            << F.Disk << " but the layout has only " << NumDisks);
      Ok = false;
      Pos = End;
      continue;
    }
    uint64_t DevOff = F.DiskByteOffset;
    while (Pos < End) {
      const uint64_t U = Pos / Unit;
      const uint64_t Piece = std::min(End, (U + 1) * Unit) - Pos;
      const unsigned Want = unsigned((U + Start) % Factor);
      const uint64_t WantOff = U / Factor * Unit + Pos % Unit;
      if (F.Disk != Want) {
        if (capped(Seen.Rotations))
          DE.report(
              Diagnostic(DiagSeverity::Error, PassName, "stripe-rotation")
                  .at(DiagLocation(Prog.name(), -1, -1, F.Disk))
              << "stripe unit " << (U - FirstUnit) << " of array '"
              << A.Name << "' lives on I/O node " << F.Disk
              << " but round-robin from starting iodevice " << Start
              << " requires node " << Want);
        Ok = false;
      } else if (DevOff != WantOff) {
        if (capped(Seen.Offsets))
          DE.report(
              Diagnostic(DiagSeverity::Error, PassName, "device-offset")
                  .at(DiagLocation(Prog.name(), -1, -1, F.Disk))
              << "stripe unit " << (U - FirstUnit) << " of array '"
              << A.Name << "' lands at byte " << DevOff << " of I/O node "
              << F.Disk << " but the striping formula puts it at byte "
              << WantOff);
        Ok = false;
      }
      DevOff += Piece;
      Pos += Piece;
    }
  }
  return Pos - Lo;
}

bool LayoutVerifier::checkWindow(const ArrayInfo &A, uint64_t Lo,
                                 uint64_t Hi, const SplitFn &Split) {
  const StripingConfig &C = Layout.config();
  const uint64_t Unit = C.StripeUnitBytes;
  const unsigned Factor = C.StripeFactor;
  const unsigned NumDisks = Layout.numDisks();
  const uint64_t TileBytes = Layout.tileBytes();
  const uint64_t Base = Layout.fileBase(A.Id);
  const unsigned Start = Layout.arrayStartDisk(A.Id);
  if (DiskStamp.size() != NumDisks)
    DiskStamp.assign(NumDisks, 0);

  bool Ok = true;
  Split(Lo, Hi - Lo, Frags);
  const uint64_t Covered = checkSplit(A, Lo, Ok);
  if (Covered != Hi - Lo) {
    if (capped(Seen.Gaps))
      DE.report(Diagnostic(DiagSeverity::Error, PassName, "coverage-gap")
                    .at(DiagLocation(Prog.name()))
                << "splitting the laid-out space covers " << Covered << " of "
                << (Hi - Lo) << " bytes");
    Ok = false;
  }
  for (uint64_t Pos = Lo; Pos < Hi; Pos += Unit) {
    const unsigned Want = unsigned((Pos / Unit + Start) % Factor);
    const unsigned Got = Layout.diskOfByte(Pos);
    if (Got != Want) {
      if (capped(Seen.Rotations))
        DE.report(
            Diagnostic(DiagSeverity::Error, PassName, "stripe-rotation")
                .at(DiagLocation(Prog.name(), -1, -1, Got))
            << "stripe unit " << (Pos - Base) / Unit << " of array '"
            << A.Name << "' lives on I/O node " << Got
            << " but round-robin from starting iodevice " << Start
            << " requires node " << Want);
      Ok = false;
    }
  }

  // The tiles whose first byte lies in the window.
  const int64_t Tiles = A.numTiles();
  for (int64_t T = int64_t((Lo - Base + TileBytes - 1) / TileBytes);
       T < Tiles && Base + uint64_t(T) * TileBytes < Hi; ++T) {
    const TileRef Tile{A.Id, T};
    const uint64_t Off = Base + uint64_t(T) * TileBytes;
    const uint64_t Claimed = Layout.tileByteOffset(Tile);
    if (Claimed != Off || Layout.arrayOfByte(Off) != A.Id) {
      if (capped(Seen.Tiles))
        DE.report(Diagnostic(DiagSeverity::Error, PassName,
                             "tile-array-roundtrip")
                      .at(DiagLocation(Prog.name()))
                  << "tile " << T << " of array '" << A.Name << "' at byte "
                  << Claimed << " resolves to array id "
                  << Layout.arrayOfByte(Off));
      Ok = false;
      continue;
    }
    const unsigned Primary = Layout.primaryDiskOfTile(Tile);
    const unsigned Want = unsigned((Off / Unit + Start) % Factor);
    if (Primary != Want) {
      if (capped(Seen.Tiles))
        DE.report(Diagnostic(DiagSeverity::Error, PassName,
                             "primary-disk-mismatch")
                      .at(DiagLocation(Prog.name(), -1, -1, Primary))
                  << "tile " << T << " of array '" << A.Name
                  << "' claims primary I/O node " << Primary
                  << " but its first byte lives on node " << Want);
      Ok = false;
    }
    Split(Off, TileBytes, Frags);
    const uint64_t TileCovered = checkSplit(A, Off, Ok);
    uint64_t Disks = 0;
    ++Stamp;
    for (const SubRequest &F : Frags) {
      if (F.Disk >= NumDisks) {
        ++Disks; // Off the layout: distinct from every real disk.
      } else if (DiskStamp[F.Disk] != Stamp) {
        DiskStamp[F.Disk] = Stamp;
        ++Disks;
      }
    }
    if (TileBytes == Unit && Disks != 1) {
      if (capped(Seen.Tiles))
        DE.report(Diagnostic(DiagSeverity::Error, PassName,
                             "tile-spans-disks")
                      .at(DiagLocation(Prog.name(), -1, -1, Primary))
                  << "stripe-unit-sized tile " << T << " of array '"
                  << A.Name << "' spans " << Disks << " I/O nodes");
      Ok = false;
    }
    if (TileCovered != TileBytes) {
      if (capped(Seen.Tiles))
        DE.report(Diagnostic(DiagSeverity::Error, PassName, "tile-split")
                      .at(DiagLocation(Prog.name()))
                  << "splitting tile " << T << " of array '" << A.Name
                  << "' covers " << TileCovered << " of " << TileBytes
                  << " bytes");
      Ok = false;
    }
  }
  return Ok;
}

void LayoutVerifier::reportSuppressed() {
  // Check slug, the noun its suppression note counts, and the count.
  const std::tuple<const char *, const char *, unsigned> Overflow[] = {
      {"disk-out-of-range", "disk-out-of-range", Seen.BadDisks},
      {"stripe-rotation", "rotation", Seen.Rotations},
      {"device-offset", "device-offset", Seen.Offsets},
      {"coverage-gap", "coverage-gap", Seen.Gaps},
      {"tile-checks", "tile", Seen.Tiles}};
  for (auto [Check, Noun, Count] : Overflow)
    if (Count > MaxPerCheck)
      DE.report(Diagnostic(DiagSeverity::Note, PassName, Check)
                << (Count - MaxPerCheck) << " further " << Noun
                << " diagnostics suppressed");
}

bool LayoutVerifier::verify() {
  bool Ok = verifyConfig(Layout.config(), DE);
  // The mapping is only compared once the state it reads is sound; a file
  // too small for its tiles would send tile offsets past the layout.
  if (Ok)
    Ok = verifyFiles();
  if (Ok)
    Ok = verifyPeriods();
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified")
                  .at(DiagLocation(Prog.name()))
              << "layout of " << Layout.totalBytes() << " bytes over "
              << Layout.numDisks()
              << " I/O nodes is a consistent two-level striping");
  return Ok;
}
