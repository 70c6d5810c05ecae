//===- sim/StorageCache.h - Storage cache with LRU / PA-LRU -----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage-cache layer the paper's related work revolves around
/// (Sec. 3): large I/O-node caches whose replacement policy affects how
/// long disks can stay in low-power modes. Two policies are provided:
///
///  * LRU — classical least-recently-used.
///  * PA-LRU — a power-aware variant in the spirit of Zhu et al. [29]:
///    blocks whose home disk currently rests in a low-power state are
///    protected, so that disk keeps sleeping; victims are taken from
///    full-power disks' blocks first (LRU order within each class).
///
/// Only reads allocate and hit (write-through for durability, as in the
/// evaluated storage stacks); a hit is serviced at cache speed and never
/// touches the disk. The cache tracks blocks at stripe-unit granularity,
/// keyed by (disk, disk-local block index).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_STORAGECACHE_H
#define DRA_SIM_STORAGECACHE_H

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

namespace dra {

/// Replacement policy of the storage cache.
enum class CachePolicyKind {
  None, ///< No cache: every access goes to disk.
  Lru,
  PaLru,
};

/// Storage-cache configuration.
struct CacheConfig {
  CachePolicyKind Policy = CachePolicyKind::None;
  /// Capacity in cached blocks (stripe units). 0 disables the cache.
  uint64_t CapacityBlocks = 0;
  /// Service time of a cache hit, in milliseconds.
  double HitServiceMs = 0.05;
};

/// Cache statistics.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;      ///< Read misses (allocations).
  uint64_t Writes = 0;      ///< Write-throughs observed.
  uint64_t Evictions = 0;
  uint64_t PowerAwareEvictions = 0; ///< Victims chosen over a sleeping peer.

  double hitRate() const {
    uint64_t N = Hits + Misses;
    return N == 0 ? 0.0 : double(Hits) / double(N);
  }
};

/// A set-less, fully associative block cache.
class StorageCache {
public:
  /// \param IsDiskCold callback telling the PA-LRU policy whether a disk
  ///        currently rests in a low-power state (standby or below full
  ///        RPM). Ignored by plain LRU.
  StorageCache(CacheConfig Config,
               std::function<bool(unsigned)> IsDiskCold = {});

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return S; }
  uint64_t size() const { return Map.size(); }

  /// True when the cache is enabled and non-empty-capacity.
  bool enabled() const {
    return Config.Policy != CachePolicyKind::None &&
           Config.CapacityBlocks > 0;
  }

  /// Processes a read of block \p Block on disk \p Disk. Returns true on a
  /// hit (no disk access needed); on a miss the block is allocated
  /// (evicting if full).
  bool read(unsigned Disk, uint64_t Block);

  /// Processes a write (write-through: the disk is always accessed; the
  /// cached copy, if any, is refreshed in LRU order).
  void write(unsigned Disk, uint64_t Block);

  /// Drops every cached block (used between simulation runs).
  void clear();

private:
  struct Entry {
    unsigned Disk;
    uint64_t Block;
  };
  using LruList = std::list<Entry>;

  CacheConfig Config;
  std::function<bool(unsigned)> IsDiskCold;
  LruList Lru; ///< Front = most recent.
  std::unordered_map<uint64_t, LruList::iterator> Map;
  CacheStats S;

  static uint64_t key(unsigned Disk, uint64_t Block) {
    return (uint64_t(Disk) << 48) | Block;
  }

  void touch(LruList::iterator It);
  void insert(unsigned Disk, uint64_t Block);
  void evictOne();
};

} // namespace dra

#endif // DRA_SIM_STORAGECACHE_H
