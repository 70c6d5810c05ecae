//===- trace/TenantMerge.cpp - Multi-tenant trace merging -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/TenantMerge.h"

#include <cctype>
#include <stdexcept>
#include <string>

using namespace dra;

static void checkCompatible(const TenantInput &A, const TenantInput &B) {
  const StripingConfig &CA = A.Layout->config();
  const StripingConfig &CB = B.Layout->config();
  if (CA.StripeUnitBytes != CB.StripeUnitBytes ||
      CA.StripeFactor != CB.StripeFactor || CA.StartDisk != CB.StartDisk ||
      CA.DisksPerNode != CB.DisksPerNode)
    throw std::invalid_argument("tenant '" + B.Label +
                                "': striping config differs from tenant '" +
                                A.Label + "'");
  if (A.Layout->tileBytes() != B.Layout->tileBytes())
    throw std::invalid_argument("tenant '" + B.Label +
                                "': tile size differs from tenant '" +
                                A.Label + "'");
  if (A.Replay->blockBytes() != B.Replay->blockBytes())
    throw std::invalid_argument("tenant '" + B.Label +
                                "': trace block size differs from tenant '" +
                                A.Label + "'");
}

/// Tenant \p I's label prefixes its attribution names ("label/nest") and
/// flame frames, so it must be non-empty, unique, and free of the flame
/// separators: ';' between frames, whitespace before the weight.
static void checkLabel(const std::vector<TenantInput> &Tenants, size_t I) {
  const std::string &L = Tenants[I].Label;
  if (L.empty())
    throw std::invalid_argument("tenants[" + std::to_string(I) +
                                "]: empty label");
  for (char C : L)
    if (C == ';' || std::isspace((unsigned char)C))
      throw std::invalid_argument("tenant '" + L +
                                  "': label contains ';' or whitespace");
  for (size_t J = 0; J != I; ++J)
    if (Tenants[J].Label == L)
      throw std::invalid_argument("tenant '" + L +
                                  "': label used by another tenant");
}

MergedWorkload dra::mergeTenants(const std::vector<TenantInput> &Tenants) {
  if (Tenants.empty())
    throw std::invalid_argument("mergeTenants: no tenants");
  for (size_t I = 0; I != Tenants.size(); ++I) {
    checkLabel(Tenants, I);
    const TenantInput &TI = Tenants[I];
    if (!TI.Prog || !TI.Replay || !TI.Layout)
      throw std::invalid_argument("tenant '" + TI.Label +
                                  "': program, trace and layout required");
    if (TI.StartMs < 0)
      throw std::invalid_argument("tenant '" + TI.Label +
                                  "': negative start offset");
    checkCompatible(Tenants.front(), TI);
  }

  MergedWorkload W;
  const uint64_t BlockBytes = Tenants.front().Replay->blockBytes();

  // --- Merged program: every tenant's arrays under "label/name", in tenant
  // order, so merged array ids are tenant-base + local id. Nests are not
  // copied (simulation needs only arrays for the layout); nest ids live on
  // in the offset provenance and the merged labels.
  std::vector<ArrayId> ArrayBase;
  unsigned TotalProcs = 0;
  for (const TenantInput &TI : Tenants) {
    ArrayBase.push_back(ArrayId(W.Prog.arrays().size()));
    for (const ArrayInfo &A : TI.Prog->arrays())
      W.Prog.addArray(TI.Label + "/" + A.Name, A.DimsInTiles);
    W.ProcBase.push_back(TotalProcs);
    TotalProcs += TI.Replay->numProcs();
    W.NestBase.push_back(uint32_t(W.Names.Nests.size()));
    for (size_t N = 0; N != TI.Prog->nests().size(); ++N) {
      std::string Name = TI.Label + "/";
      if (N < TI.Names.Nests.size()) {
        Name += TI.Names.Nests[N];
      } else {
        Name += 'n';
        Name += std::to_string(N);
      }
      W.Names.Nests.push_back(std::move(Name));
      W.Names.Refs.push_back(N < TI.Names.Refs.size()
                                 ? TI.Names.Refs[N]
                                 : std::vector<std::string>());
    }
    W.TenantLabels.push_back(TI.Label);
  }

  // --- Shared layout over the merged program, per-array start disks
  // carried over from each tenant's (possibly optimizer-tuned) layout.
  W.Layout = DiskLayout(W.Prog, Tenants.front().Layout->config(),
                        Tenants.front().Layout->tileBytes());
  for (size_t T = 0; T != Tenants.size(); ++T)
    for (const ArrayInfo &A : Tenants[T].Prog->arrays())
      W.Layout.setArrayStartDisk(ArrayBase[T] + A.Id,
                                 Tenants[T].Layout->arrayStartDisk(A.Id));

  // --- Merged trace: tenant blocks relocate by the distance between the
  // tenant-local and merged file base of their array. File bases are
  // aligned to full stripe cycles, so the distance is block-aligned
  // whenever blocks divide the cycle (checked per tenant).
  W.Replay = Trace(TotalProcs, BlockBytes);
  size_t TotalRequests = 0;
  for (const TenantInput &TI : Tenants)
    TotalRequests += TI.Replay->size();
  W.Replay.reserve(TotalRequests);

  for (size_t T = 0; T != Tenants.size(); ++T) {
    const TenantInput &TI = Tenants[T];
    std::vector<bool> ProcSeen(TI.Replay->numProcs(), false);
    for (const Request &Orig : TI.Replay->requests()) {
      Request R = Orig;
      uint64_t ByteOff = TI.Replay->byteOffset(Orig);
      ArrayId A = TI.Layout->arrayOfByte(ByteOff);
      uint64_t Delta =
          W.Layout.fileBase(ArrayBase[T] + A) - TI.Layout->fileBase(A);
      if (Delta % BlockBytes != 0)
        throw std::invalid_argument(
            "tenant '" + TI.Label +
            "': file relocation is not block-aligned (block size must "
            "divide the stripe cycle)");
      R.StartBlock = Orig.StartBlock + Delta / BlockBytes;
      R.Proc = Orig.Proc + W.ProcBase[T];
      if (R.Prov.valid())
        R.Prov.Nest += W.NestBase[T];
      R.Tenant = uint32_t(T);
      R.ArrivalMs += TI.StartMs;
      if (!ProcSeen[Orig.Proc]) {
        // The closed loop issues at ProcReady + ThinkMs, so front-loading
        // the think time delays the tenant's whole stream by StartMs.
        ProcSeen[Orig.Proc] = true;
        R.ThinkMs += TI.StartMs;
      }
      W.Replay.addRequest(R);
    }
  }
  return W;
}
