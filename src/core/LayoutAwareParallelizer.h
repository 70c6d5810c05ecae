//===- core/LayoutAwareParallelizer.h - Sec. 6.2 scheme ---------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disk layout-aware (reuse-aware) code parallelization (Sec. 6.2). The
/// scheme is data-space oriented:
///
/// The paper states the goal precisely: the scheme "in a sense partitions
/// the disks in the storage system across the processors by localizing
/// accesses to each disk to a single processor as much as possible". In
/// the paper's coarse-stripe layouts a row-block region is disk-aligned;
/// under fine-grained round-robin striping the equivalent data mapping
/// Z_{s,j} is the set of tiles residing on processor s's disk block:
///
///  1. The disks are divided into NumProcs contiguous blocks; Z_{s,j} is
///     the set of tiles of array j striped onto processor s's disks. This
///     mapping is identical for every nest, so the same processor touches
///     the same array regions in every nest — the Fig. 6(b) assignment —
///     regardless of each nest's orientation.
///  2. Iterations follow the data (affinity classes): every access of an
///     iteration votes for the processor owning its tile's disk; the
///     majority wins (ties to the first reference).
///  3. The Sec. 6.2.2 unification step (most-frequently-demanded
///     distribution per array) is computed and reported as diagnostics.
///  4. Nests whose data sits on few disks can leave processors idle; per
///     the paper's "second issue" handling, such nests are rebalanced by
///     splitting their iterations into equal contiguous chunks ordered by
///     data position (the common-element prefix assignment).
///  5. Nests with surviving cross-processor intra-nest dependences are
///     serialized; barriers separate nests with cross-processor
///     dependences.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_LAYOUTAWAREPARALLELIZER_H
#define DRA_CORE_LAYOUTAWAREPARALLELIZER_H

#include "core/LoopParallelizer.h"
#include "ir/TileAccessTable.h"
#include "layout/DiskLayout.h"

#include <vector>

namespace dra {

class SymbolicFootprint;

/// Diagnostics of the layout-aware parallelization.
struct LayoutAwareInfo {
  /// Chosen partition dimension per array (the unification result).
  std::vector<unsigned> PartitionDimOfArray;
  /// Nests rebalanced by the equal-chunk fallback (partial array access).
  std::vector<NestId> RebalancedNests;
  /// Tile demand each processor's disk block absorbs, folded from the
  /// symbolic footprint's per-disk demand under the contiguous disk-block
  /// partition (filled only when a footprint is supplied). A balance
  /// signal derived without enumerating iterations; the plan itself is
  /// byte-identical with or without it.
  std::vector<uint64_t> PerProcDemand;
};

/// Sec. 6.2 parallelizer.
class LayoutAwareParallelizer {
public:
  /// Computes the layout-aware plan for \p NumProcs processors.
  /// \param Info out-parameter for diagnostics; may be null.
  /// \param Table the precomputed access table for \p Space (non-null);
  ///        affinity votes read its rows.
  /// \param Footprint optional symbolic footprint; when given (with
  ///        \p Info), the expected per-processor demand is folded into
  ///        \p Info->PerProcDemand without touching the plan.
  static ParallelPlan parallelize(const Program &P,
                                  const IterationSpace &Space,
                                  const IterationGraph &Graph,
                                  const DiskLayout &Layout, unsigned NumProcs,
                                  LayoutAwareInfo *Info,
                                  const TileAccessTable *Table,
                                  const SymbolicFootprint *Footprint = nullptr);
};

} // namespace dra

#endif // DRA_CORE_LAYOUTAWAREPARALLELIZER_H
