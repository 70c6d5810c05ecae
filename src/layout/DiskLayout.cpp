//===- layout/DiskLayout.cpp - Two-level striped disk layout --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "layout/DiskLayout.h"

#include <algorithm>
#include <cassert>

using namespace dra;

DiskLayout::DiskLayout(const Program &P, StripingConfig Config,
                       uint64_t TileBytes)
    : Config(Config),
      TileBytes(TileBytes == 0 ? Config.StripeUnitBytes : TileBytes) {
  assert(Config.StripeFactor > 0 && "need at least one I/O node");
  assert(Config.StripeUnitBytes > 0 && "stripe unit must be positive");
  assert(Config.StartDisk < Config.StripeFactor && "start disk out of range");

  // Align every file to a full stripe cycle so all files start at the
  // configured starting iodevice.
  uint64_t Cycle = Config.StripeUnitBytes * Config.StripeFactor;
  uint64_t Offset = 0;
  FileBase.reserve(P.arrays().size());
  for (const ArrayInfo &A : P.arrays()) {
    FileBase.push_back(Offset);
    uint64_t Size = uint64_t(A.numTiles()) * this->TileBytes;
    Offset += (Size + Cycle - 1) / Cycle * Cycle;
  }
  TotalBytes = Offset;
  StartDiskOf.assign(P.arrays().size(), Config.StartDisk);
}

void DiskLayout::setArrayStartDisk(ArrayId A, unsigned StartDisk) {
  assert(A < StartDiskOf.size() && "unknown array");
  assert(StartDisk < Config.StripeFactor && "start disk out of range");
  StartDiskOf[A] = StartDisk;
}

ArrayId DiskLayout::arrayOfByte(uint64_t Offset) const {
  assert(Offset < TotalBytes && "offset beyond the laid-out space");
  // FileBase is ascending; find the last base <= Offset.
  auto It = std::upper_bound(FileBase.begin(), FileBase.end(), Offset);
  return ArrayId(It - FileBase.begin() - 1);
}

uint64_t DiskLayout::tileByteOffset(const TileRef &T) const {
  assert(T.Array < FileBase.size() && "unknown array");
  return FileBase[T.Array] + uint64_t(T.Linear) * TileBytes;
}

unsigned DiskLayout::diskOfByte(uint64_t Offset) const {
  // Scratch bytes belong to no array; they stripe from the configured
  // starting iodevice. The region is cycle-aligned (TotalBytes is a
  // multiple of the stripe cycle), so the arithmetic matches the files'.
  if (Offset >= TotalBytes) {
    assert(Offset < addressableBytes() && "offset beyond the scratch region");
    uint64_t Stripe = Offset / Config.StripeUnitBytes;
    return unsigned((Stripe + Config.StartDisk) % Config.StripeFactor);
  }
  ArrayId A = arrayOfByte(Offset);
  // Files are aligned to full stripe cycles, so the file-relative and
  // global stripe indices agree modulo the stripe factor; only the
  // starting iodevice is per-array.
  uint64_t Stripe = Offset / Config.StripeUnitBytes;
  return unsigned((Stripe + StartDiskOf[A]) % Config.StripeFactor);
}

uint64_t DiskLayout::scratchSlotOffset(uint64_t Slot) const {
  assert(Slot < ScratchTiles && "scratch slot out of range");
  return TotalBytes + Slot * TileBytes;
}

unsigned DiskLayout::primaryDiskOfTile(const TileRef &T) const {
  return diskOfByte(tileByteOffset(T));
}

uint64_t DiskLayout::diskMaskOfTile(const TileRef &T) const {
  assert(Config.StripeFactor <= 64 && "disk mask limited to 64 I/O nodes");
  // A tile occupies [Base, Base + TileBytes); successive stripe units land
  // on successive disks (mod the stripe factor), offset by the array's
  // starting iodevice. Stops early once every disk is covered.
  uint64_t Base = tileByteOffset(T);
  uint64_t First = Base / Config.StripeUnitBytes;
  uint64_t Last = (Base + TileBytes - 1) / Config.StripeUnitBytes;
  uint64_t Span = Last - First + 1;
  if (Span >= Config.StripeFactor)
    return Config.StripeFactor >= 64 ? ~uint64_t(0)
                                     : (uint64_t(1) << Config.StripeFactor) - 1;
  uint64_t M = 0;
  unsigned D = unsigned((First + StartDiskOf[T.Array]) % Config.StripeFactor);
  for (uint64_t S = 0; S != Span; ++S) {
    M |= uint64_t(1) << D;
    D = D + 1 == Config.StripeFactor ? 0 : D + 1;
  }
  return M;
}

std::vector<SubRequest> DiskLayout::splitRequest(uint64_t Offset,
                                                 uint64_t Bytes) const {
  std::vector<SubRequest> Subs;
  splitRequestInto(Offset, Bytes, Subs);
  return Subs;
}

void DiskLayout::splitRequestInto(uint64_t Offset, uint64_t Bytes,
                                  std::vector<SubRequest> &Subs) const {
  Subs.clear();
  uint64_t Pos = Offset;
  uint64_t End = Offset + Bytes;
  while (Pos < End) {
    uint64_t StripeEnd =
        (Pos / Config.StripeUnitBytes + 1) * Config.StripeUnitBytes;
    uint64_t ChunkEnd = std::min(End, StripeEnd);
    unsigned Disk = diskOfByte(Pos);
    // Bytes land on a node at: (cycle index) * StripeUnit + in-stripe offset.
    uint64_t Cycle = Pos / (Config.StripeUnitBytes * Config.StripeFactor);
    uint64_t DiskOff =
        Cycle * Config.StripeUnitBytes + Pos % Config.StripeUnitBytes;
    if (!Subs.empty() && Subs.back().Disk == Disk &&
        Subs.back().DiskByteOffset + Subs.back().Bytes == DiskOff) {
      Subs.back().Bytes += ChunkEnd - Pos;
    } else {
      Subs.push_back(SubRequest{Disk, DiskOff, ChunkEnd - Pos});
    }
    Pos = ChunkEnd;
  }
}
