//===- trace/Trace.h - Disk I/O request traces ------------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The I/O request trace that drives the disk simulator (Sec. 7.1). Each
/// request carries the paper's five fields (arrival time, start block,
/// size, read/write, processor id) plus two fields that make closed-loop
/// replay possible: the compute (think) time that precedes the request on
/// its processor, and a barrier phase (requests of phase p may only start
/// once every request of phases < p has completed).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_TRACE_TRACE_H
#define DRA_TRACE_TRACE_H

#include "trace/Provenance.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dra {

/// One disk I/O request.
struct Request {
  /// Nominal arrival time in milliseconds (paper field #1). Computed for a
  /// full-speed, zero-contention disk; the closed-loop simulator derives
  /// actual issue times from ThinkMs instead.
  double ArrivalMs = 0.0;
  /// Logical start block, striped over the I/O nodes (paper field #2).
  uint64_t StartBlock = 0;
  /// Request size in bytes (paper field #3).
  uint64_t SizeBytes = 0;
  /// True for writes (paper field #4).
  bool IsWrite = false;
  /// Issuing processor (paper field #5).
  uint32_t Proc = 0;
  /// Compute time on Proc between the previous request's completion and
  /// this request's issue, in milliseconds.
  double ThinkMs = 0.0;
  /// Barrier phase (see file comment). 0 for single-phase traces.
  uint32_t Phase = 0;
  /// Compiler provenance (nest, reference, schedule round) of the request;
  /// invalid for externally loaded traces (trace/Provenance.h).
  Provenance Prov;
  /// Tenant (application) the request belongs to in a multi-tenant trace
  /// (trace/TenantMerge.h). Barrier phases are scoped per tenant: a
  /// phase-p request of tenant t waits only on lower phases of tenant t.
  /// 0 for single-tenant traces, which keeps their replay identical.
  uint32_t Tenant = 0;
};

/// An ordered I/O trace. Requests of one processor appear in issue order;
/// requests of different processors may interleave arbitrarily. As
/// requests are added the trace also records what closed-loop replay needs
/// up front, so a run starts without a pass over the requests: each
/// processor's stream as links between request indices (TraceProcIndex),
/// the largest phase and tenant, and the request count per (tenant,
/// phase).
class Trace {
public:
  /// \param BlockBytes page-block size used for StartBlock numbering
  ///        ("access to disk-resident data is made at a page block
  ///        granularity", Sec. 7.1).
  explicit Trace(unsigned NumProcs = 1, uint64_t BlockBytes = 4096)
      : NumProcs(NumProcs), BlockBytes(BlockBytes),
        ProcFirst(NumProcs, NoRequest), ProcLast(NumProcs, NoRequest) {}

  /// Appends \p R. Throws std::out_of_range when R.Proc is not below
  /// numProcs().
  void addRequest(const Request &R) {
    // One rarely taken branch for the checks and the count-table growth.
    if (R.Proc >= NumProcs || Requests.size() >= NoRequest ||
        R.Phase >= PhaseStride || R.Tenant > MaxTenant) [[unlikely]]
      prepareFor(R);
    const uint32_t I = uint32_t(Requests.size());
    Requests.push_back(R);
    NextOfProc.push_back(NoRequest);
    uint32_t &Last = ProcLast[R.Proc];
    (Last == NoRequest ? ProcFirst[R.Proc] : NextOfProc[Last]) = I;
    Last = I;
    MaxPhase = std::max(MaxPhase, R.Phase);
    ++PhaseCounts[size_t(R.Tenant) * PhaseStride + R.Phase];
  }

  /// Pre-sizes the request storage; generators with an exact request count
  /// call this to avoid growth reallocations on large traces.
  void reserve(size_t NumRequests) {
    Requests.reserve(NumRequests);
    NextOfProc.reserve(NumRequests);
  }

  unsigned numProcs() const { return NumProcs; }
  uint64_t blockBytes() const { return BlockBytes; }
  const std::vector<Request> &requests() const { return Requests; }
  size_t size() const { return Requests.size(); }

  /// Byte offset of a request in the global logical space.
  uint64_t byteOffset(const Request &R) const {
    return R.StartBlock * BlockBytes;
  }

  /// Sum of request sizes in bytes (the "data manipulated" of Table 2).
  uint64_t totalBytes() const;

  /// Requests of processor \p P, in issue order. Builds a fresh vector per
  /// call; replay walks TraceProcIndex instead.
  std::vector<const Request *> requestsOfProc(uint32_t P) const;

  /// Largest Phase value present.
  uint32_t maxPhase() const { return MaxPhase; }

  /// Largest Tenant value present (0 for single-tenant traces).
  uint32_t maxTenant() const { return MaxTenant; }

  /// Number of requests of tenant \p Tenant in barrier phase \p Phase.
  uint64_t phaseCount(uint32_t Tenant, uint32_t Phase) const {
    return Tenant <= MaxTenant && Phase < PhaseStride
               ? PhaseCounts[size_t(Tenant) * PhaseStride + Phase]
               : 0;
  }

  /// Link value marking the end of a processor's stream.
  static constexpr uint32_t NoRequest = ~uint32_t(0);

private:
  friend class TraceProcIndex;

  unsigned NumProcs;
  uint64_t BlockBytes;
  std::vector<Request> Requests;
  /// Per processor: index of its first and last request (NoRequest when
  /// it has none). NextOfProc[I] is the index of the request its
  /// processor issues after request I.
  std::vector<uint32_t> ProcFirst, ProcLast, NextOfProc;
  uint32_t MaxPhase = 0;
  uint32_t MaxTenant = 0;
  /// Requests per (tenant, phase), row-major by tenant with rows of
  /// PhaseStride > MaxPhase entries (widened geometrically as phases
  /// grow); MaxTenant + 1 rows once the first request arrives.
  std::vector<uint64_t> PhaseCounts;
  size_t PhaseStride = 0;

  /// Rejects \p R (unknown processor, full trace) or makes room in
  /// PhaseCounts for its (tenant, phase).
  void prepareFor(const Request &R);
};

/// Per-processor view of a trace: walks the stream links the trace
/// records as requests are added, so building it is free and a processor's
/// next request is one index load away.
class TraceProcIndex {
public:
  explicit TraceProcIndex(const Trace &T) : T(&T) {}

  unsigned numProcs() const { return T->numProcs(); }

  /// Index of processor \p P's first request, or Trace::NoRequest.
  uint32_t first(uint32_t P) const { return T->ProcFirst[P]; }

  /// Index of the request issued after request \p I by the same
  /// processor, or Trace::NoRequest.
  uint32_t next(uint32_t I) const { return T->NextOfProc[I]; }

private:
  const Trace *T;
};

} // namespace dra

#endif // DRA_TRACE_TRACE_H
