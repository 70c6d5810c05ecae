//===- sim/ShardRouter.h - Disk-to-shard ownership map ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ownership and window legality for the sharded simulator. Disks are
/// partitioned round-robin over the shards (disk d belongs to shard
/// d % NumShards), which spreads hot low-numbered disks of skewed
/// (Zipf-heat) traces across shards. The conservative window width is
/// validated against the active power policy at configuration time: a
/// window no longer than the policy's shortest decision threshold (TPM
/// break-even, DRPM idle step-down) provably cannot straddle a power-state
/// decision, so batch delivery at window edges never reorders one.
/// ShardedSimEngine's batches additionally carry exact per-fragment
/// timestamps and pre-computed completions, making results byte-identical
/// for *any* legal window — the check pins the architectural contract (and
/// catches configs that would be illegal for a lookahead-based engine).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_SHARDROUTER_H
#define DRA_SIM_SHARDROUTER_H

#include "sim/DiskParams.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace dra {

/// Round-robin disk-to-shard ownership.
struct ShardRouter {
  unsigned NumShards = 1;

  explicit ShardRouter(unsigned NumShards) : NumShards(NumShards) {
    if (NumShards == 0)
      throw std::invalid_argument("sharded simulator needs >= 1 shard");
  }

  unsigned shardOf(unsigned Disk) const { return Disk % NumShards; }
};

/// Resolves the configured window width \p RequestedMs (0 = auto: the
/// policy's maximum legal window, powerDecisionMs, or 1000 ms when
/// unconstrained). Throws std::invalid_argument when the request is
/// negative, not finite (NaN never flushes a batch) or exceeds the
/// policy's legal maximum — checked at configuration time, before any
/// simulation runs.
inline double resolveSimWindowMs(double RequestedMs, const DiskParams &P,
                                 PowerPolicyKind Policy) {
  double MaxMs = powerDecisionMs(P, Policy);
  if (RequestedMs == 0.0)
    return MaxMs == std::numeric_limits<double>::infinity() ? 1000.0 : MaxMs;
  if (!std::isfinite(RequestedMs) || RequestedMs < 0.0)
    throw std::invalid_argument(
        "sim window must be positive and finite, got " +
        std::to_string(RequestedMs) + " ms");
  if (RequestedMs > MaxMs)
    throw std::invalid_argument(
        "sim window " + std::to_string(RequestedMs) +
        " ms exceeds the policy's break-even gap (max legal " +
        std::to_string(MaxMs) + " ms): window edges could straddle a "
        "power-state decision");
  return RequestedMs;
}

} // namespace dra

#endif // DRA_SIM_SHARDROUTER_H
