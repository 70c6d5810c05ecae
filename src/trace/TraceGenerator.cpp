//===- trace/TraceGenerator.cpp - Schedule -> I/O trace --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceGenerator.h"

#include <cassert>

using namespace dra;

TraceGenerator::TraceGenerator(const Program &P, const IterationSpace &Space,
                               const DiskLayout &Layout, uint64_t BlockBytes,
                               const TileAccessTable *Table)
    : Prog(P), Space(Space), Layout(Layout), BlockBytes(BlockBytes),
      Table(Table) {
  assert(Layout.tileBytes() % BlockBytes == 0 &&
         "tile size must be a whole number of page blocks");
  assert(Table && "trace generation reads the shared access table");
  assert(Table->numIters() == Space.size() &&
         "access table built over a different iteration space");
}

double TraceGenerator::nominalServiceMs(uint64_t Bytes) const {
  // Full-RPM figures of the IBM Ultrastar 36Z15 (Table 1): 3.4 ms average
  // seek, 2 ms average rotation, 55 MB/s internal transfer.
  double TransferMs = double(Bytes) / (55.0 * 1024 * 1024) * 1000.0;
  return 3.4 + 2.0 + TransferMs;
}

Trace TraceGenerator::generate(const ScheduledWork &Work) const {
  Trace T(unsigned(Work.PerProc.size()), BlockBytes);

  // Exact request count: one request per access of every scheduled
  // iteration.
  uint64_t NumRequests = 0;
  for (const std::vector<GlobalIter> &Proc : Work.PerProc)
    for (GlobalIter G : Proc)
      NumRequests += Table->row(G).size();
  T.reserve(size_t(NumRequests));

  for (uint32_t P = 0; P != Work.PerProc.size(); ++P) {
    double Clock = 0.0; // Nominal per-processor time.
    for (GlobalIter G : Work.PerProc[P]) {
      const LoopNest &Nest = Prog.nest(Space.nestOf(G));
      bool First = true;
      uint32_t Ref = 0;
      for (const TileAccess &TA : Table->row(G)) {
        Request R;
        R.ThinkMs = First ? Nest.computePerIterMs() : 0.0;
        First = false;
        Clock += R.ThinkMs;
        R.ArrivalMs = Clock;
        uint64_t Offset = Layout.tileByteOffset(TA.Tile);
        assert(Offset % BlockBytes == 0 && "tiles are block aligned");
        R.StartBlock = Offset / BlockBytes;
        R.SizeBytes = Layout.tileBytes();
        R.IsWrite = TA.Kind == AccessKind::Write;
        R.Proc = P;
        R.Phase = Work.PhaseOf.empty() ? 0 : Work.PhaseOf[G];
        // Provenance: the row is in nest body order, so the row position
        // is the reference index within the nest (ir/LoopNest.h).
        R.Prov.Nest = Space.nestOf(G);
        R.Prov.Ref = Ref++;
        R.Prov.Round = Work.RoundOf.empty() ? 0 : Work.RoundOf[G];
        Clock += nominalServiceMs(R.SizeBytes);
        T.addRequest(R);
      }
    }
  }
  return T;
}

Trace TraceGenerator::generateSingle(
    const std::vector<GlobalIter> &Order) const {
  ScheduledWork Work;
  Work.PerProc.push_back(Order);
  return generate(Work);
}
