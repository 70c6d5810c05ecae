//===- trace/TraceIO.cpp - External trace file format ----------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

using namespace dra;

namespace {
struct FileCloser {
  void operator()(FILE *F) const {
    if (F)
      std::fclose(F);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;
} // namespace

bool dra::writeTraceFile(const Trace &T, const std::string &Path) {
  FilePtr F(std::fopen(Path.c_str(), "w"));
  if (!F)
    return false;
  std::fprintf(F.get(), "# dra-trace v1\n");
  std::fprintf(F.get(), "procs %u\n", T.numProcs());
  std::fprintf(F.get(), "blockbytes %" PRIu64 "\n", T.blockBytes());
  std::fprintf(F.get(), "nreq %zu\n", T.size());
  // Multi-tenant traces append an eighth tenant column; single-tenant
  // traces keep the seven-column v1 lines byte-for-byte (FORMATS.md).
  bool MultiTenant = T.maxTenant() != 0;
  for (const Request &R : T.requests()) {
    if (std::fprintf(F.get(), "%.3f %" PRIu64 " %" PRIu64 " %c %u %.3f %u",
                     R.ArrivalMs, R.StartBlock, R.SizeBytes,
                     R.IsWrite ? 'W' : 'R', R.Proc, R.ThinkMs, R.Phase) < 0)
      return false;
    if (MultiTenant && std::fprintf(F.get(), " %u", R.Tenant) < 0)
      return false;
    if (std::fprintf(F.get(), "\n") < 0)
      return false;
  }
  return true;
}

std::optional<Trace> dra::readTraceFile(const std::string &Path) {
  FilePtr F(std::fopen(Path.c_str(), "r"));
  if (!F)
    return std::nullopt;

  char Magic[32];
  if (std::fscanf(F.get(), "# %31s v1\n", Magic) != 1 ||
      std::string(Magic) != "dra-trace")
    return std::nullopt;

  unsigned Procs = 0;
  uint64_t BlockBytes = 0;
  size_t NReq = 0;
  if (std::fscanf(F.get(), "procs %u\n", &Procs) != 1 || Procs == 0)
    return std::nullopt;
  if (std::fscanf(F.get(), "blockbytes %" SCNu64 "\n", &BlockBytes) != 1 ||
      BlockBytes == 0)
    return std::nullopt;
  if (std::fscanf(F.get(), "nreq %zu\n", &NReq) != 1)
    return std::nullopt;

  Trace T(Procs, BlockBytes);
  // Last phase seen per processor: replay needs each processor's phases
  // nondecreasing in file order, or its barrier can never open.
  std::unordered_map<unsigned, uint32_t> LastPhase;
  for (size_t I = 0; I != NReq; ++I) {
    Request R;
    char Kind = 0;
    if (std::fscanf(F.get(), "%lf %" SCNu64 " %" SCNu64 " %c %u %lf %u",
                    &R.ArrivalMs, &R.StartBlock, &R.SizeBytes, &Kind, &R.Proc,
                    &R.ThinkMs, &R.Phase) != 7)
      return std::nullopt;
    // Optional eighth tenant column (multi-tenant traces); seven-column
    // lines read as tenant 0. The rest of the line is consumed here so a
    // missing column never eats the next line's first field.
    char Rest[64];
    R.Tenant = 0;
    if (std::fgets(Rest, sizeof(Rest), F.get())) {
      unsigned Tenant = 0;
      if (std::sscanf(Rest, " %u", &Tenant) == 1)
        R.Tenant = Tenant;
    }
    if (Kind != 'R' && Kind != 'W')
      return std::nullopt;
    if (R.Proc >= Procs)
      return std::nullopt;
    // %lf accepts "nan" and "inf"; replay needs finite, non-negative times.
    if (!std::isfinite(R.ArrivalMs) || R.ArrivalMs < 0 ||
        !std::isfinite(R.ThinkMs) || R.ThinkMs < 0)
      return std::nullopt;
    auto [It, First] = LastPhase.try_emplace(R.Proc, R.Phase);
    if (!First && R.Phase < It->second)
      return std::nullopt;
    It->second = R.Phase;
    R.IsWrite = Kind == 'W';
    T.addRequest(R);
  }
  return T;
}
