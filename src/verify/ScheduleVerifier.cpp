//===- verify/ScheduleVerifier.cpp - Schedule legality ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/ScheduleVerifier.h"

#include <algorithm>

using namespace dra;

namespace {

const char *PassName = "schedule-verifier";

/// Cap on diagnostics emitted per check per call, so a badly corrupted
/// schedule does not flood the consumer; the overflow is summarized.
constexpr unsigned MaxPerCheck = 16;

} // namespace

const IterationGraph &ScheduleVerifier::graph() {
  if (!Graph)
    Graph = std::make_unique<IterationGraph>(Prog, Space);
  return *Graph;
}

DiagLocation ScheduleVerifier::loc(int64_t Iter) const {
  DiagLocation L(Prog.name());
  L.Iter = Iter;
  if (Iter >= 0)
    L.Nest = Space.nestOf(GlobalIter(Iter));
  return L;
}

bool ScheduleVerifier::verifyPartition(const ScheduledWork &Work) {
  bool Ok = true;
  uint64_t N = Space.size();
  // FirstProc[g]: 1 + processor that first scheduled g; 0 = unscheduled.
  std::vector<uint32_t> FirstProc(N, 0);
  unsigned Dups = 0, OutOfRange = 0;

  for (size_t P = 0; P != Work.PerProc.size(); ++P) {
    for (GlobalIter G : Work.PerProc[P]) {
      if (uint64_t(G) >= N) {
        if (++OutOfRange <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "iteration-out-of-range")
                        .at(loc())
                    << "processor " << P << " schedules iteration " << G
                    << " but the space has only " << N << " iterations");
        Ok = false;
        continue;
      }
      if (FirstProc[G] != 0) {
        if (++Dups <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "duplicate-iteration")
                        .at(loc(G))
                    << "iteration " << G << " "
                    << toString(Space.iterOf(G))
                    << " is scheduled more than once (first on processor "
                    << (FirstProc[G] - 1) << ", again on processor " << P
                    << ")");
        Ok = false;
        continue;
      }
      FirstProc[G] = uint32_t(P) + 1;
    }
  }

  unsigned Missing = 0;
  for (GlobalIter G = 0; G != GlobalIter(N); ++G) {
    if (FirstProc[G] == 0) {
      if (++Missing <= MaxPerCheck)
        DE.report(
            Diagnostic(DiagSeverity::Error, PassName, "missing-iteration")
                .at(loc(G))
            << "iteration " << G << " " << toString(Space.iterOf(G))
            << " of nest '" << Prog.nest(Space.nestOf(G)).name()
            << "' is never scheduled");
      Ok = false;
    }
  }

  // Reordering may never cross a barrier: each processor's phases must be
  // non-decreasing along its order.
  unsigned Regressions = 0;
  if (!Work.PhaseOf.empty()) {
    for (size_t P = 0; P != Work.PerProc.size(); ++P) {
      uint32_t Last = 0;
      for (GlobalIter G : Work.PerProc[P]) {
        if (uint64_t(G) >= N)
          continue;
        uint32_t Phase = Work.PhaseOf[G];
        if (Phase < Last) {
          if (++Regressions <= MaxPerCheck)
            DE.report(Diagnostic(DiagSeverity::Error, PassName,
                                 "phase-regression")
                          .at(loc(G))
                      << "processor " << P << " runs iteration " << G
                      << " of barrier phase " << Phase
                      << " after an iteration of phase " << Last);
          Ok = false;
        }
        Last = std::max(Last, Phase);
      }
    }
  }

  const std::pair<unsigned, const char *> Overflow[] = {
      {OutOfRange, "iteration-out-of-range"},
      {Dups, "duplicate-iteration"},
      {Missing, "missing-iteration"},
      {Regressions, "phase-regression"}};
  for (auto [Count, Check] : Overflow) {
    if (Count > MaxPerCheck)
      DE.report(Diagnostic(DiagSeverity::Note, PassName, Check).at(loc())
                << (Count - MaxPerCheck) << " further " << Check
                << " diagnostics suppressed");
  }
  return Ok;
}

bool ScheduleVerifier::verifyDependences(const ScheduledWork &Work) {
  bool Ok = true;
  uint64_t N = Space.size();
  const IterationGraph &G = graph();

  // Placement of every iteration: owning processor and position in its
  // order. Unplaced or out-of-range iterations are verifyPartition's
  // problem; dependence checks skip them.
  constexpr uint32_t NoProc = ~uint32_t(0);
  std::vector<uint32_t> ProcOf(N, NoProc);
  std::vector<uint64_t> PosOf(N, 0);
  for (size_t P = 0; P != Work.PerProc.size(); ++P) {
    const auto &Order = Work.PerProc[P];
    for (uint64_t I = 0; I != Order.size(); ++I) {
      GlobalIter It = Order[I];
      if (uint64_t(It) >= N || ProcOf[It] != NoProc)
        continue;
      ProcOf[It] = uint32_t(P);
      PosOf[It] = I;
    }
  }

  unsigned Violations = 0, BarrierViolations = 0, NegativeDistances = 0;
  for (GlobalIter U = 0; U != GlobalIter(N); ++U) {
    const NestId NestU = Space.nestOf(U);
    const IterSpan IterU = Space.iterOf(U);
    // Cross-validate the re-derived graph against the Sec. 6.1 theory:
    // a same-nest dependence always has a lexicographically positive
    // distance vector (original order is a topological order).
    for (GlobalIter V : G.succs(U)) {
      // The distance V - U is lexicographically positive exactly when U
      // precedes V, so the vector is built only for the diagnostic.
      if (NestU == Space.nestOf(V) && !lexLess(IterU, Space.iterOf(V))) {
        if (++NegativeDistances <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "negative-distance")
                        .at(loc(V))
                    << "dependence " << U << " -> " << V << " in nest '"
                    << Prog.nest(NestU).name()
                    << "' has non-positive distance "
                    << toString(vecDiff(Space.iterOf(V), IterU)));
        Ok = false;
      }

      if (ProcOf[U] == NoProc || ProcOf[V] == NoProc)
        continue;
      if (ProcOf[U] == ProcOf[V]) {
        // Same processor: the source must simply come earlier.
        if (PosOf[V] <= PosOf[U]) {
          if (++Violations <= MaxPerCheck)
            DE.report(Diagnostic(DiagSeverity::Error, PassName,
                                 "dependence-violation")
                          .at(loc(V))
                      << "iteration " << V << " " << toString(Space.iterOf(V))
                      << " depends on iteration " << U << " "
                      << toString(Space.iterOf(U))
                      << " but processor " << ProcOf[U]
                      << " schedules it at position " << PosOf[V]
                      << ", before the source at position " << PosOf[U]);
          Ok = false;
        }
      } else {
        // Different processors: only a barrier orders them, so the source's
        // phase must be strictly smaller (Sec. 6.1 — a cross-processor
        // dependence inside one phase is unsynchronizable).
        if (phaseOf(Work, U) >= phaseOf(Work, V)) {
          if (++BarrierViolations <= MaxPerCheck)
            DE.report(Diagnostic(DiagSeverity::Error, PassName,
                                 "barrier-violation")
                          .at(loc(V))
                      << "cross-processor dependence " << U << " (processor "
                      << ProcOf[U] << ", phase " << phaseOf(Work, U)
                      << ") -> " << V << " (processor " << ProcOf[V]
                      << ", phase " << phaseOf(Work, V)
                      << ") is not separated by a barrier");
          Ok = false;
        }
      }
    }
  }

  const std::pair<unsigned, const char *> Overflow[] = {
      {Violations, "dependence-violation"},
      {BarrierViolations, "barrier-violation"},
      {NegativeDistances, "negative-distance"}};
  for (auto [Count, Check] : Overflow) {
    if (Count > MaxPerCheck)
      DE.report(Diagnostic(DiagSeverity::Note, PassName, Check).at(loc())
                << (Count - MaxPerCheck) << " further " << Check
                << " diagnostics suppressed");
  }
  return Ok;
}

bool ScheduleVerifier::verifyWork(const ScheduledWork &Work) {
  bool Ok = verifyPartition(Work);
  Ok &= verifyDependences(Work);
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified").at(loc())
              << "schedule of " << Space.size() << " iterations across "
              << Work.PerProc.size()
              << " processors proves legal against " << graph().numEdges()
              << " independently derived dependence edges");
  return Ok;
}

bool ScheduleVerifier::verifyOrder(const std::vector<GlobalIter> &Order) {
  ScheduledWork Work;
  Work.PerProc.push_back(Order);
  return verifyWork(Work);
}

bool ScheduleVerifier::verifyFootprint(const SymbolicFootprint &FP) {
  bool Ok = true;
  unsigned NumDisks = Layout.numDisks();
  unsigned IterMismatches = 0, CountMismatches = 0, DemandMismatches = 0;

  // One flat recount state, sized once for the widest nest and reused by
  // every nest: a bitmap over each reference's array tiles back to back,
  // a distinct-tile count per reference and a per-disk demand row per
  // reference.
  size_t MaxRefs = 0;
  uint64_t MaxSeen = 0;
  for (const NestFootprint &NF : FP.nests()) {
    const LoopNest &Nest = Prog.nest(NF.Nest);
    uint64_t Tiles = 0;
    for (const ArrayAccess &A : Nest.accesses())
      Tiles += uint64_t(Prog.array(A.Array).numTiles());
    MaxRefs = std::max(MaxRefs, Nest.accesses().size());
    MaxSeen = std::max(MaxSeen, Tiles);
  }
  std::vector<uint8_t> Seen(static_cast<size_t>(MaxSeen));
  std::vector<uint64_t> SeenBase(MaxRefs), Count(MaxRefs);
  std::vector<uint64_t> Demand(MaxRefs * NumDisks);
  std::vector<TileAccess> Touched;
  Touched.reserve(MaxRefs);

  for (const NestFootprint &NF : FP.nests()) {
    NestId N = NF.Nest;
    const LoopNest &Nest = Prog.nest(N);
    GlobalIter Begin = Space.nestBegin(N), End = Space.nestEnd(N);
    uint64_t Iters = uint64_t(End) - uint64_t(Begin);
    if (NF.Iterations != Iters) {
      if (++IterMismatches <= MaxPerCheck)
        DE.report(Diagnostic(DiagSeverity::Error, PassName,
                             "footprint-iterations-mismatch")
                      .at(loc())
                  << "nest '" << Nest.name() << "' claims " << NF.Iterations
                  << " iterations symbolically but the iteration space holds "
                  << Iters);
      Ok = false;
    }

    // Independent per-reference recount: a bitmap over the array's tiles,
    // demand counted once per distinct tile at its primary disk.
    size_t NumRefs = Nest.accesses().size();
    assert(NF.Refs.size() == NumRefs && "one footprint per reference");
    uint64_t SeenEnd = 0;
    for (size_t R = 0; R != NumRefs; ++R) {
      SeenBase[R] = SeenEnd;
      SeenEnd += uint64_t(Prog.array(Nest.accesses()[R].Array).numTiles());
    }
    std::fill_n(Seen.begin(), SeenEnd, 0);
    std::fill_n(Count.begin(), NumRefs, 0);
    std::fill_n(Demand.begin(), NumRefs * NumDisks, 0);
    for (GlobalIter G = Begin; G != End; ++G) {
      std::span<const TileAccess> Row;
      if (Table) {
        Row = Table->row(G);
      } else {
        Touched.clear();
        Prog.appendTouchedTiles(N, Space.iterOf(G), Touched);
        Row = {Touched.data(), Touched.size()};
      }
      assert(Row.size() == NumRefs && "one row entry per reference");
      for (size_t R = 0; R != NumRefs; ++R) {
        uint8_t &Bit = Seen[SeenBase[R] + uint64_t(Row[R].Tile.Linear)];
        if (Bit)
          continue;
        Bit = 1;
        ++Count[R];
        ++Demand[R * NumDisks + Layout.primaryDiskOfTile(Row[R].Tile)];
      }
    }

    for (size_t R = 0; R != NumRefs; ++R) {
      const RefFootprint &RF = NF.Refs[R];
      std::span<const uint64_t> Recount(Demand.data() + R * NumDisks,
                                        NumDisks);
      if (RF.DistinctTiles != Count[R]) {
        if (++CountMismatches <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "footprint-count-mismatch")
                        .at(loc())
                    << "reference " << R << " of nest '" << Nest.name()
                    << "' claims " << RF.DistinctTiles
                    << " distinct tiles (method "
                    << footprintMethodName(RF.Method)
                    << ") but an independent recount gives " << Count[R]);
        Ok = false;
      }
      if (!std::equal(RF.PerDiskDemand.begin(), RF.PerDiskDemand.end(),
                      Recount.begin(), Recount.end())) {
        unsigned BadDisk = 0;
        for (unsigned K = 0; K != NumDisks; ++K)
          if (RF.PerDiskDemand.size() != NumDisks ||
              RF.PerDiskDemand[K] != Recount[K]) {
            BadDisk = K;
            break;
          }
        if (++DemandMismatches <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "footprint-demand-mismatch")
                        .at(loc())
                    << "reference " << R << " of nest '" << Nest.name()
                    << "' claims "
                    << (BadDisk < RF.PerDiskDemand.size()
                            ? RF.PerDiskDemand[BadDisk]
                            : 0)
                    << " tiles on disk " << BadDisk << " (method "
                    << footprintMethodName(RF.Method)
                    << ") but an independent recount gives "
                    << Recount[BadDisk]);
        Ok = false;
      }
    }
  }

  const std::pair<unsigned, const char *> Overflow[] = {
      {IterMismatches, "footprint-iterations-mismatch"},
      {CountMismatches, "footprint-count-mismatch"},
      {DemandMismatches, "footprint-demand-mismatch"}};
  for (auto [Count2, Check] : Overflow) {
    if (Count2 > MaxPerCheck)
      DE.report(Diagnostic(DiagSeverity::Note, PassName, Check).at(loc())
                << (Count2 - MaxPerCheck) << " further " << Check
                << " diagnostics suppressed");
  }
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified").at(loc())
              << "symbolic footprint of " << FP.numRefs()
              << " references across " << FP.nests().size()
              << " nests matches the independent recount exactly ("
              << FP.numFallbackRefs() << " fallback)");
  return Ok;
}

bool ScheduleVerifier::verifyLocality(const Schedule &S,
                                      const ScheduleLocality &Claimed) {
  // Independent recount, written against the definition in Schedule.h: a
  // visit is a maximal run of consecutive iterations whose first-touched
  // tile lives on one disk; a switch is a transition between visits.
  ScheduleLocality R;
  std::vector<uint8_t> Seen(Layout.numDisks(), 0);
  std::vector<TileAccess> Touched;
  size_t MaxRow = 0;
  for (const LoopNest &Nest : Prog.nests())
    MaxRow = std::max(MaxRow, Nest.accesses().size());
  Touched.reserve(MaxRow);
  bool HaveLast = false;
  unsigned Last = 0;
  for (GlobalIter G : S.Order) {
    std::span<const TileAccess> Row;
    if (Table) {
      Row = Table->row(G);
    } else {
      Touched.clear();
      Prog.appendTouchedTiles(Space.nestOf(G), Space.iterOf(G), Touched);
      Row = {Touched.data(), Touched.size()};
    }
    if (Row.empty())
      continue;
    unsigned D = Layout.primaryDiskOfTile(Row.front().Tile);
    R.DisksUsed += 1 - Seen[D];
    Seen[D] = 1;
    if (!HaveLast || D != Last) {
      if (HaveLast)
        ++R.DiskSwitches;
      ++R.DiskVisits;
      Last = D;
      HaveLast = true;
    }
  }

  bool Ok = true;
  const std::tuple<const char *, uint64_t, uint64_t> Metrics[] = {
      {"DiskSwitches", Claimed.DiskSwitches, R.DiskSwitches},
      {"DiskVisits", Claimed.DiskVisits, R.DiskVisits},
      {"DisksUsed", Claimed.DisksUsed, R.DisksUsed}};
  for (auto [Name, Got, Want] : Metrics) {
    if (Got != Want) {
      DE.report(
          Diagnostic(DiagSeverity::Error, PassName, "locality-mismatch")
              .at(loc())
          << "claimed locality metric " << Name << " = " << Got
          << " but an independent recount gives " << Want);
      Ok = false;
    }
  }
  return Ok;
}
