//===- trace/Trace.cpp - Disk I/O request traces ---------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include <algorithm>
#include <stdexcept>

using namespace dra;

uint64_t Trace::totalBytes() const {
  uint64_t N = 0;
  for (const Request &R : Requests)
    N += R.SizeBytes;
  return N;
}

void Trace::prepareFor(const Request &R) {
  if (R.Proc >= NumProcs)
    throw std::out_of_range("request from unknown processor");
  if (Requests.size() >= NoRequest)
    throw std::length_error("trace exceeds 2^32 - 1 requests");
  // Widen the rows when a phase outgrows them, doubling so re-layouts
  // stay amortized O(1) per request; new tenants append rows.
  if (R.Phase >= PhaseStride) {
    size_t Stride = std::max(size_t(R.Phase) + 1, 2 * PhaseStride);
    std::vector<uint64_t> Wider((size_t(MaxTenant) + 1) * Stride, 0);
    for (size_t T = 0; PhaseStride != 0 && T <= MaxTenant; ++T)
      std::copy_n(PhaseCounts.begin() + T * PhaseStride, PhaseStride,
                  Wider.begin() + T * Stride);
    PhaseCounts = std::move(Wider);
    PhaseStride = Stride;
  }
  MaxTenant = std::max(MaxTenant, R.Tenant);
  PhaseCounts.resize((size_t(MaxTenant) + 1) * PhaseStride, 0);
}

std::vector<const Request *> Trace::requestsOfProc(uint32_t P) const {
  std::vector<const Request *> Out;
  TraceProcIndex Index(*this);
  for (uint32_t I = Index.first(P); I != NoRequest; I = Index.next(I))
    Out.push_back(&Requests[I]);
  return Out;
}
