//===- sim/CompletionBatch.h - Cross-shard event batches --------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregated cross-shard messages of the sharded simulator
/// (sim/ShardedSimEngine.h), after the delegation/aggregation idiom of
/// message-driven PGAS runtimes: instead of handing every disk fragment to
/// its owning shard one at a time, the coordinator accumulates them into
/// one CompletionBatch per destination shard and delivers whole batches at
/// conservative window edges. Each event carries everything the shard's
/// Disk replay needs — and the completion the coordinator's
/// DiskTimingModel computed for it. The shard's Disk runs the same model
/// over the same per-disk fragment sequence, so its completion must match
/// bit-for-bit; a mismatch means a batch was mis-delivered (wrong disk,
/// lost or reordered fragment).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_COMPLETIONBATCH_H
#define DRA_SIM_COMPLETIONBATCH_H

#include "trace/Provenance.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dra {

/// One disk fragment crossing from the coordinator to a shard.
struct FragmentEvent {
  double ArrivalMs = 0.0;
  /// The coordinator's DiskTimingModel completion for this fragment; the
  /// owning shard's Disk::submit must reproduce it exactly.
  double ExpectedCompletionMs = 0.0;
  uint64_t Offset = 0; ///< Disk-local byte offset.
  uint64_t Bytes = 0;
  /// Global fragment sequence number in coordinator emission order; the
  /// final tie-breaker of the deterministic batch order.
  uint64_t Seq = 0;
  uint32_t Disk = 0; ///< Global disk id.
  uint32_t Proc = 0; ///< Issuing processor (for the batch ordering).
  bool IsWrite = false;
  Provenance Prov;
};

/// All fragments destined for one shard within one conservative window.
struct CompletionBatch {
  double WindowEndMs = 0.0; ///< The window edge the batch was delivered at.
  std::vector<FragmentEvent> Events;
};

/// Deterministic delivery order: (time, proc, seq). The coordinator emits
/// fragments in exactly this order already (see replayClosedLoop's ordering
/// note), so the sort is a no-op that pins the contract: batch contents are
/// identical for any shard/worker count, and per-disk subsequences stay in
/// FCFS arrival order.
inline void sortCompletionBatch(CompletionBatch &B) {
  std::stable_sort(B.Events.begin(), B.Events.end(),
                   [](const FragmentEvent &A, const FragmentEvent &B) {
                     if (A.ArrivalMs != B.ArrivalMs)
                       return A.ArrivalMs < B.ArrivalMs;
                     if (A.Proc != B.Proc)
                       return A.Proc < B.Proc;
                     return A.Seq < B.Seq;
                   });
}

} // namespace dra

#endif // DRA_SIM_COMPLETIONBATCH_H
