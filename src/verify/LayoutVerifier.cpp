//===- verify/LayoutVerifier.cpp - Stripe-mapping sanity -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/LayoutVerifier.h"

#include <algorithm>
#include <map>

using namespace dra;

namespace {

const char *PassName = "layout-verifier";

constexpr unsigned MaxPerCheck = 16;

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

bool LayoutVerifier::verifyCoverage() {
  bool Ok = true;
  unsigned NumDisks = Layout.numDisks();
  uint64_t Total = Layout.totalBytes();

  // Splitting the whole logical space must yield fragments that (a) land on
  // real disks, (b) sum to the space, and (c) never claim the same device
  // byte twice — i.e. byte -> (iodevice, device offset) is injective.
  std::vector<SubRequest> Frags = Layout.splitRequest(0, Total);
  uint64_t Covered = 0;
  std::map<unsigned, std::vector<std::pair<uint64_t, uint64_t>>> PerDisk;
  unsigned BadDisk = 0;
  for (const SubRequest &F : Frags) {
    Covered += F.Bytes;
    if (F.Disk >= NumDisks) {
      if (++BadDisk <= MaxPerCheck)
        DE.report(
            Diagnostic(DiagSeverity::Error, PassName, "disk-out-of-range")
                .at(DiagLocation(Prog.name(), -1, -1, F.Disk))
            << "fragment of " << F.Bytes << " bytes maps to I/O node "
            << F.Disk << " but the layout has only " << NumDisks);
      Ok = false;
      continue;
    }
    PerDisk[F.Disk].push_back({F.DiskByteOffset, F.Bytes});
  }
  if (Covered != Total) {
    DE.report(Diagnostic(DiagSeverity::Error, PassName, "coverage-gap")
                  .at(DiagLocation(Prog.name()))
              << "splitting the laid-out space covers " << Covered << " of "
              << Total << " bytes");
    Ok = false;
  }
  unsigned Overlaps = 0;
  for (auto &[Disk, Ranges] : PerDisk) {
    std::sort(Ranges.begin(), Ranges.end());
    for (size_t I = 1; I < Ranges.size(); ++I) {
      if (Ranges[I - 1].first + Ranges[I - 1].second > Ranges[I].first) {
        if (++Overlaps <= MaxPerCheck)
          DE.report(
              Diagnostic(DiagSeverity::Error, PassName, "fragment-overlap")
                  .at(DiagLocation(Prog.name(), -1, -1, Disk))
              << "I/O node " << Disk << " byte ranges [" << Ranges[I - 1].first
              << ", +" << Ranges[I - 1].second << ") and [" << Ranges[I].first
              << ", +" << Ranges[I].second << ") overlap");
        Ok = false;
      }
    }
  }
  if (Overlaps > MaxPerCheck)
    DE.report(Diagnostic(DiagSeverity::Note, PassName, "fragment-overlap")
              << (Overlaps - MaxPerCheck) << " further overlaps suppressed");
  return Ok;
}

bool LayoutVerifier::verifyTiles() {
  bool Ok = true;
  unsigned Errors = 0;
  bool TileIsStripeUnit =
      Layout.tileBytes() == Layout.config().StripeUnitBytes;

  for (const ArrayInfo &A : Prog.arrays()) {
    if (Layout.arrayStartDisk(A.Id) >= Layout.numDisks()) {
      DE.report(Diagnostic(DiagSeverity::Error, PassName,
                           "array-start-disk-out-of-range")
                    .at(DiagLocation(Prog.name()))
                << "array '" << A.Name << "' starts at iodevice "
                << Layout.arrayStartDisk(A.Id) << " of "
                << Layout.numDisks());
      Ok = false;
    }
    for (int64_t T = 0; T != A.numTiles(); ++T) {
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
      std::vector<unsigned> Disks = Layout.disksOfTile(Tile);
      if (Primary != Layout.diskOfByte(Off) ||
          std::find(Disks.begin(), Disks.end(), Primary) == Disks.end()) {
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
      if (TileIsStripeUnit && Disks.size() != 1) {
        if (++Errors <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "tile-spans-disks")
                        .at(DiagLocation(Prog.name(), -1, -1, Primary))
                    << "stripe-unit-sized tile " << T << " of array '"
                    << A.Name << "' spans " << Disks.size() << " I/O nodes");
        Ok = false;
      }

      uint64_t Covered = 0;
      for (const SubRequest &F : Layout.splitRequest(Off, Layout.tileBytes()))
        Covered += F.Bytes;
      if (Covered != Layout.tileBytes()) {
        if (++Errors <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName, "tile-split")
                        .at(DiagLocation(Prog.name()))
                    << "splitting tile " << T << " of array '" << A.Name
                    << "' covers " << Covered << " of " << Layout.tileBytes()
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

bool LayoutVerifier::verifyRotation() {
  bool Ok = true;
  const StripingConfig &C = Layout.config();
  unsigned Errors = 0;

  // Files are aligned to full stripe cycles, so within each array's file
  // consecutive stripe units must visit I/O nodes round-robin starting at
  // the array's starting iodevice.
  for (const ArrayInfo &A : Prog.arrays()) {
    uint64_t Base = Layout.fileBase(A.Id);
    uint64_t Units =
        (uint64_t(A.numTiles()) * Layout.tileBytes() + C.StripeUnitBytes - 1) /
        C.StripeUnitBytes;
    for (uint64_t U = 0; U != Units; ++U) {
      unsigned Want =
          unsigned((U + Layout.arrayStartDisk(A.Id)) % C.StripeFactor);
      unsigned Got = Layout.diskOfByte(Base + U * C.StripeUnitBytes);
      if (Got != Want) {
        if (++Errors <= MaxPerCheck)
          DE.report(
              Diagnostic(DiagSeverity::Error, PassName, "stripe-rotation")
                  .at(DiagLocation(Prog.name(), -1, -1, Got))
              << "stripe unit " << U << " of array '" << A.Name
              << "' lives on I/O node " << Got << " but round-robin from "
              << "starting iodevice " << Layout.arrayStartDisk(A.Id)
              << " requires node " << Want);
        Ok = false;
      }
    }
  }
  if (Errors > MaxPerCheck)
    DE.report(Diagnostic(DiagSeverity::Note, PassName, "stripe-rotation")
              << (Errors - MaxPerCheck) << " further rotation diagnostics "
              << "suppressed");
  return Ok;
}

bool LayoutVerifier::verify() {
  bool Ok = verifyConfig(Layout.config(), DE);
  if (Ok) {
    Ok &= verifyCoverage();
    Ok &= verifyTiles();
    Ok &= verifyRotation();
  }
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified")
                  .at(DiagLocation(Prog.name()))
              << "layout of " << Layout.totalBytes() << " bytes over "
              << Layout.numDisks()
              << " I/O nodes is a consistent two-level striping");
  return Ok;
}
