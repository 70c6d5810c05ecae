//===- ir/TileAccessTable.h - Precomputed tile accesses ---------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access-analysis substrate of the compiler hot path: an immutable,
/// CSR-flattened table of every tile access of every iteration, computed
/// once per (Program, IterationSpace) and shared by all downstream passes
/// (docs/PERFORMANCE.md).
///
/// Before this table existed every pass that needed per-iteration tile
/// touches — the scheduler's disk masks, the dependence-graph builder, the
/// locality counter, the trace generator, the layout-aware parallelizer,
/// the energy estimator, the schedule verifier — re-derived them with its
/// own virtual execution of the program (`Program::appendTouchedTiles`,
/// i.e. affine subscript evaluation plus row-major linearization per
/// access). One pipeline run performed seven-plus identical virtual
/// executions; the table replaces them all with one pass and O(1) row
/// lookups. Rows are stored contiguously in iteration order, so consumers
/// that sweep the whole space scan the table linearly.
///
/// The build is one serial pass that appends each iteration's accesses
/// straight into the entry array, reading the iteration vectors in place
/// from the flat IterationSpace. It allocates O(arrays) times whatever the
/// iteration count: the row offsets, the entries, the dense ids and one
/// census bitmap and rank table per array.
///
/// Every compile-side consumer requires the table; none keeps a table-less
/// twin. The deliberate exceptions are the serial IterationGraph reference
/// build and the ScheduleVerifier's Full-level re-derivation (CI rejects
/// any other `appendTouchedTiles` call outside ir/).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_TILEACCESSTABLE_H
#define DRA_IR_TILEACCESSTABLE_H

#include "ir/Program.h"

#include <cstdint>
#include <span>
#include <vector>

namespace dra {

/// Immutable per-iteration tile-access table in CSR form: one row per
/// GlobalIter holding the iteration's TileAccess triples in body order —
/// exactly the sequence `Program::appendTouchedTiles` would append.
class TileAccessTable {
public:
  /// Performs the single virtual execution: evaluates every access of every
  /// iteration of \p Space in original program order, on the calling
  /// thread. \p Workers is ignored; it stays only until the benchmark's
  /// decomposed compile stops passing it.
  TileAccessTable(const Program &P, const IterationSpace &Space,
                  unsigned Workers = 0);

  /// Number of rows (== Space.size() at construction).
  uint64_t numIters() const { return RowOffset.size() - 1; }

  /// Total access entries across all rows.
  uint64_t numAccesses() const { return Entries.size(); }

  /// The accesses of iteration \p G, in body order.
  std::span<const TileAccess> row(GlobalIter G) const {
    return {Entries.data() + RowOffset[G],
            Entries.data() + RowOffset[G + 1]};
  }

  /// Dense tile ids of iteration \p G's accesses, parallel to row(G).
  /// Distinct (array, linear tile) pairs are numbered 0..numDistinctTiles()
  /// contiguously — array-major, ascending linear index within an array —
  /// so consumers keep per-tile state in a flat vector instead of a hash
  /// map. Ids of array A occupy [denseBaseOfArray(A),
  /// denseBaseOfArray(A) + numDistinctTilesOfArray(A)).
  std::span<const uint32_t> denseRow(GlobalIter G) const {
    return {DenseIds.data() + RowOffset[G],
            DenseIds.data() + RowOffset[G + 1]};
  }

  /// First dense tile id of array \p A.
  uint32_t denseBaseOfArray(ArrayId A) const { return DenseBaseOfArray[A]; }

  /// Number of distinct (array, linear tile) pairs touched anywhere in the
  /// program. Exact, so consumers can size hash tables without guessing.
  uint64_t numDistinctTiles() const { return DistinctTiles; }

  /// Distinct tiles of array \p A touched anywhere in the program.
  uint64_t numDistinctTilesOfArray(ArrayId A) const {
    return DistinctTilesOfArray[A];
  }

  /// Number of arrays covered by the per-array distinct-tile counts.
  unsigned numArrays() const { return unsigned(DistinctTilesOfArray.size()); }

  /// Declared tile count of array \p A (ArrayInfo::numTiles). Every
  /// Tile.Linear of array A in the table is < this, so consumers can use
  /// direct-indexed per-tile state instead of hashing.
  int64_t tileSpanOfArray(ArrayId A) const { return TileSpanOfArray[A]; }

private:
  std::vector<uint64_t> RowOffset; ///< numIters()+1 offsets into Entries.
  std::vector<TileAccess> Entries;
  std::vector<uint32_t> DenseIds; ///< Parallel to Entries; see denseRow.
  std::vector<uint32_t> DenseBaseOfArray;
  std::vector<uint64_t> DistinctTilesOfArray;
  std::vector<int64_t> TileSpanOfArray;
  uint64_t DistinctTiles = 0;
};

} // namespace dra

#endif // DRA_IR_TILEACCESSTABLE_H
