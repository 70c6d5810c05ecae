//===- layout/DiskLayout.h - Two-level striped disk layout ------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models the storage architecture of Sec. 2: arrays live in files (one
/// array per file) striped round-robin over I/O nodes at a visible stripe
/// unit (the PVFS-style striping the compiler can query), with an optional
/// hidden RAID-level sub-striping inside each I/O node. Power management
/// operates at I/O node granularity; throughout the project "disk" means
/// "I/O node" exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_LAYOUT_DISKLAYOUT_H
#define DRA_LAYOUT_DISKLAYOUT_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace dra {

/// The I/O-node-level striping parameters the parallel file system exposes
/// (the pvfs_filestat analogue): stripe unit, stripe factor, starting disk.
struct StripingConfig {
  /// Bytes per stripe unit at the I/O node level (Table 1: 32 KB).
  uint64_t StripeUnitBytes = 32 * 1024;
  /// Number of I/O nodes the file is striped over (Table 1: 8).
  unsigned StripeFactor = 8;
  /// First I/O node of the file (Table 1: the first disk).
  unsigned StartDisk = 0;
  /// Disks inside each I/O node (RAID level, hidden from software). The
  /// paper's experiments use 1 ("each I/O node has one disk"); the
  /// simulator models a larger node as a RAID-0 group that scales its
  /// transfer rate and power (StorageSystem::scaleForNode).
  unsigned DisksPerNode = 1;
};

/// One fragment of a request after striping: the bytes a single I/O node
/// must service.
struct SubRequest {
  unsigned Disk = 0;           ///< I/O node index.
  uint64_t DiskByteOffset = 0; ///< Byte offset within that node's storage.
  uint64_t Bytes = 0;
};

/// Maps array tiles to file offsets, stripes, and I/O nodes.
///
/// Each array is assigned a disjoint region of a single global logical byte
/// space (its "file"), aligned to a full stripe cycle so that striping
/// arithmetic is uniform. Tiles are TileBytes-sized and stored row-major.
class DiskLayout {
public:
  /// \param P the program whose arrays are laid out.
  /// \param Config I/O-node-level striping parameters.
  /// \param TileBytes bytes per tile; defaults to one stripe unit so one
  ///        tile maps to exactly one I/O node (the granularity at which the
  ///        paper's restructuring reasons about disks).
  DiskLayout(const Program &P, StripingConfig Config, uint64_t TileBytes = 0);

  /// Per-array starting iodevice override (the energy-oriented layout
  /// parameter of Son et al. [23]): array \p A's file starts striping at
  /// disk \p StartDisk instead of Config.StartDisk. Must be called before
  /// any mapping query; used by the layout optimizer.
  void setArrayStartDisk(ArrayId A, unsigned StartDisk);

  /// Starting iodevice of array \p A.
  unsigned arrayStartDisk(ArrayId A) const { return StartDiskOf[A]; }

  /// The array whose file contains global byte \p Offset. Padding bytes at
  /// the end of a file's last stripe cycle count as that file's.
  ArrayId arrayOfByte(uint64_t Offset) const;

  const StripingConfig &config() const { return Config; }
  uint64_t tileBytes() const { return TileBytes; }
  unsigned numDisks() const { return Config.StripeFactor; }

  /// Global logical byte offset of the first byte of array \p A.
  uint64_t fileBase(ArrayId A) const { return FileBase[A]; }

  /// Global logical byte offset of tile \p T.
  uint64_t tileByteOffset(const TileRef &T) const;

  /// The I/O node holding global byte \p Offset.
  unsigned diskOfByte(uint64_t Offset) const;

  /// The I/O node holding the first byte of tile \p T. When
  /// TileBytes == StripeUnitBytes this is the only node the tile touches.
  unsigned primaryDiskOfTile(const TileRef &T) const;

  /// Bitmask of the I/O nodes tile \p T spans (bit d set iff disk d holds a
  /// byte of the tile). Allocation free — this is the compile hot path's
  /// form (the scheduler computes one mask per table entry). Requires
  /// numDisks() <= 64.
  uint64_t diskMaskOfTile(const TileRef &T) const;

  /// Splits a logical request (global \p Offset, \p Bytes) into per-I/O-node
  /// fragments, exactly as the simulator of Sec. 7.1 "determines which I/O
  /// nodes it should access" for each trace request. Fragments on the same
  /// node are merged.
  std::vector<SubRequest> splitRequest(uint64_t Offset, uint64_t Bytes) const;

  /// splitRequest into a caller-owned vector (cleared first). Replay loops
  /// call this with a reused scratch vector so the per-request allocation
  /// disappears once the vector reaches its steady-state capacity.
  void splitRequestInto(uint64_t Offset, uint64_t Bytes,
                        std::vector<SubRequest> &Subs) const;

  /// Total logical bytes laid out (end of the last array's file; the
  /// scratch region, when reserved, starts here).
  uint64_t totalBytes() const { return TotalBytes; }

  /// Reserves a scratch region of \p NumTiles tile-sized slots after the
  /// program's files — the online serving mode's ad-hoc object store
  /// (docs/SERVING.md). Scratch slots stripe round-robin from
  /// StripingConfig::StartDisk like any file; they belong to no array, so
  /// arrayOfByte stays program-only while diskOfByte and splitRequest
  /// accept scratch offsets. Must be called before any mapping query (the
  /// same contract as setArrayStartDisk). NumTiles == 0 (the default)
  /// leaves the address space exactly as before.
  void setScratchTiles(uint64_t NumTiles) { ScratchTiles = NumTiles; }

  /// Global byte offset of scratch slot \p Slot (< the reserved count);
  /// slot 0 starts at totalBytes(), which is cycle-aligned.
  uint64_t scratchSlotOffset(uint64_t Slot) const;

  /// One past the last addressable byte (program files plus scratch).
  uint64_t addressableBytes() const {
    return TotalBytes + ScratchTiles * TileBytes;
  }

private:
  StripingConfig Config;
  uint64_t TileBytes;
  std::vector<uint64_t> FileBase;
  std::vector<unsigned> StartDiskOf;
  uint64_t TotalBytes = 0;
  uint64_t ScratchTiles = 0;
};

} // namespace dra

#endif // DRA_LAYOUT_DISKLAYOUT_H
