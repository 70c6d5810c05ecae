//===- trace/TenantMerge.h - Multi-tenant trace merging ---------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Combines independently compiled applications (tenants) into one
/// multi-tenant workload sharing a storage system — the consolidation
/// scenario the paper's single-application assumption (Sec. 2) excludes.
/// Each tenant brings its own program, scheduled trace, and layout; the
/// merge relocates every tenant's files into one shared striped byte space
/// (per-array start disks preserved), offsets processor and nest ids into
/// disjoint ranges, stamps Request::Tenant, and prefixes attribution labels
/// with "label/" so per-tenant energy stays separable in the report's
/// attribution section, `dra-compare --nests` and flame output. Barrier
/// phases remain scoped per tenant (sim/ReplayCore.h), so each tenant
/// replays exactly as it would alone modulo contention.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_TRACE_TENANTMERGE_H
#define DRA_TRACE_TENANTMERGE_H

#include "layout/DiskLayout.h"
#include "sim/Attribution.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace dra {

/// One tenant of a merged workload. All referenced objects must outlive the
/// merge call; the result owns only copies.
struct TenantInput {
  /// Tenant label, prefixed onto array and nest names ("label/jacobi.n0").
  std::string Label;
  const Program *Prog = nullptr;
  const Trace *Replay = nullptr;      ///< The tenant's scheduled trace.
  const DiskLayout *Layout = nullptr; ///< Built over Prog.
  /// Human-readable attribution labels of Prog (empty is fine: merged
  /// labels fall back to "(unattributed)").
  AttributionNames Names;
  /// Simulated start offset: the tenant's processors begin their first
  /// think period at this time instead of 0.
  double StartMs = 0.0;
};

/// A merged multi-tenant workload, ready for simulation.
struct MergedWorkload {
  Program Prog;      ///< Arrays of every tenant ("label/name"); no nests.
  DiskLayout Layout; ///< Shared layout over Prog, start disks preserved.
  Trace Replay;      ///< Merged trace: procs/nests/offsets relocated.
  AttributionNames Names; ///< Nest labels prefixed "label/".
  std::vector<std::string> TenantLabels; ///< Index == Request::Tenant.
  std::vector<uint32_t> ProcBase; ///< Tenant t's procs start here.
  std::vector<uint32_t> NestBase; ///< Tenant t's nest ids start here.

  MergedWorkload() : Prog("multitenant"), Layout(Prog, StripingConfig()) {}
};

/// Merges \p Tenants into one workload. Every tenant needs a non-empty,
/// unique label without ';' or whitespace, and all must share the striping
/// configuration, tile size and trace block size (the tenants inhabit one
/// physical storage system); violations and empty inputs throw
/// std::invalid_argument. Requests keep their per-tenant issue order;
/// tenant t's blocks are relocated by the distance between its arrays'
/// tenant-local and merged file bases, its processors are offset by the
/// preceding tenants' processor counts, its provenance nest ids by the
/// preceding tenants' nest counts, and StartMs is added to each
/// processor's first think period.
MergedWorkload mergeTenants(const std::vector<TenantInput> &Tenants);

} // namespace dra

#endif // DRA_TRACE_TENANTMERGE_H
