//===- verify/ScheduleVerifier.cpp - Schedule legality ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/ScheduleVerifier.h"

#include <algorithm>
#include <optional>

using namespace dra;

namespace {

const char *PassName = "schedule-verifier";

/// Cap on diagnostics emitted per check per call, so a badly corrupted
/// schedule does not flood the consumer; the overflow is summarized.
constexpr unsigned MaxPerCheck = 16;

/// Placement of an iteration no processor schedules.
constexpr uint32_t NoProc = ~uint32_t(0);

/// FirstTile entry of an iteration that touches nothing.
constexpr int64_t NoTile = -1;

/// The disk of each tile of one array's file in turn, by the striping
/// formula disk(U) = (U + start disk) mod stripe factor over the global
/// stripe units U, stepping from tile to tile without a division.
struct StripeCursor {
  uint64_t UnitBytes, InUnit, StepBytes;
  unsigned Factor, StepUnits, Disk;

  StripeCursor(const DiskLayout &L, ArrayId A) {
    const StripingConfig &C = L.config();
    const uint64_t Base = L.fileBase(A);
    UnitBytes = C.StripeUnitBytes;
    Factor = C.StripeFactor;
    InUnit = Base % UnitBytes;
    Disk = unsigned((Base / UnitBytes + L.arrayStartDisk(A)) % Factor);
    StepBytes = L.tileBytes() % UnitBytes;
    StepUnits = unsigned(L.tileBytes() / UnitBytes % Factor);
  }

  void next() {
    InUnit += StepBytes;
    Disk += StepUnits;
    if (InUnit >= UnitBytes) {
      InUnit -= UnitBytes;
      ++Disk;
    }
    if (Disk >= Factor)
      Disk -= Factor;
  }
};

} // namespace

void ScheduleVerifier::derive(unsigned Want) {
  Want &= ~Have;
  if (Want == 0)
    return;
  if (Table && (Want & DepGraph)) {
    // The dependence checks never read the table, at any level.
    Graph = std::make_unique<IterationGraph>(Prog, Space);
    Have |= DepGraph;
    Want &= ~DepGraph;
    if (Want == 0)
      return;
  }

  // One walk in program order, nest by nest. Without a table each row is
  // evaluated here from the subscripts, and the same row feeds the graph
  // build, the recount and the first-access tiles.
  const unsigned NumDisks = Layout.numDisks();
  std::optional<IterationGraph::ProgramWalk> Walk;
  if (Want & DepGraph)
    Walk.emplace(Prog, Space);

  // The recount's state: a bitmap over each reference's array tiles back
  // to back, sized once for the widest nest. The walk only marks it; the
  // scan at the end of each nest counts and clears it.
  size_t MaxRow = 0, NumRefs = 0;
  uint64_t MaxSeen = 0;
  for (const LoopNest &Nest : Prog.nests()) {
    uint64_t Tiles = 0;
    for (const ArrayAccess &A : Nest.accesses())
      Tiles += uint64_t(Prog.array(A.Array).numTiles());
    MaxRow = std::max(MaxRow, Nest.accesses().size());
    MaxSeen = std::max(MaxSeen, Tiles);
    NumRefs += Nest.accesses().size();
  }
  std::vector<uint8_t> Seen;
  std::vector<uint64_t> SeenBase;
  if (Want & Recount) {
    Seen.resize(size_t(MaxSeen));
    SeenBase.resize(MaxRow);
    RefBase.assign(Prog.nests().size(), 0);
    RefTiles.assign(NumRefs, 0);
    RefDemand.assign(NumRefs * NumDisks, 0);
  }
  if (Want & FirstTiles)
    FirstTile.assign(Space.size(), NoTile);
  std::vector<TileAccess> Touched;
  if (!Table)
    Touched.reserve(MaxRow);

  uint64_t NextRef = 0;
  for (NestId N = 0; N != Prog.nests().size(); ++N) {
    const LoopNest &Nest = Prog.nest(N);
    const size_t Refs = Nest.accesses().size();
    if (Want & Recount) {
      uint64_t SeenEnd = 0;
      for (size_t R = 0; R != Refs; ++R) {
        SeenBase[R] = SeenEnd;
        SeenEnd += uint64_t(Prog.array(Nest.accesses()[R].Array).numTiles());
      }
    }
    for (GlobalIter G = Space.nestBegin(N), E = Space.nestEnd(N); G != E;
         ++G) {
      std::span<const TileAccess> Row;
      if (Table) {
        Row = Table->row(G);
      } else {
        Touched.clear();
        Prog.appendTouchedTiles(N, Space.iterOf(G), Touched);
        Row = {Touched.data(), Touched.size()};
      }
      assert(Row.size() == Refs && "one row entry per reference");
      if (Walk)
        Walk->visit(G, Row);
      if (Want & Recount)
        for (size_t R = 0; R != Refs; ++R)
          Seen[SeenBase[R] + uint64_t(Row[R].Tile.Linear)] = 1;
      if ((Want & FirstTiles) && !Row.empty())
        FirstTile[G] = Row.front().Tile.Linear;
    }
    if (!(Want & Recount))
      continue;
    // Each reference's distinct tiles, and its demand: each distinct tile
    // once, at the disk the striping formula puts its first byte on.
    RefBase[N] = NextRef;
    for (size_t R = 0; R != Refs; ++R, ++NextRef) {
      const ArrayId A = Nest.accesses()[R].Array;
      uint8_t *Bits = Seen.data() + SeenBase[R];
      uint64_t *Demand = RefDemand.data() + NextRef * NumDisks;
      uint64_t Count = 0;
      StripeCursor Cur(Layout, A);
      for (int64_t T = 0, E = Prog.array(A).numTiles(); T != E;
           ++T, Cur.next()) {
        const uint8_t Bit = Bits[T];
        Bits[T] = 0;
        Count += Bit;
        Demand[Cur.Disk] += Bit;
      }
      RefTiles[NextRef] = Count;
    }
  }
  if (Walk) {
    // The recount's bitmap is spent; release it before the graph's CSR
    // arrays are laid out, which is this walk's peak.
    std::vector<uint8_t>().swap(Seen);
    Graph = std::make_unique<IterationGraph>(std::move(*Walk).finish());
  }
  Have |= Want;
}

const IterationGraph &ScheduleVerifier::graph() {
  derive(DepGraph);
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
  std::vector<Placement> Placed;
  return checkPartition(Work, Placed);
}

bool ScheduleVerifier::checkPartition(const ScheduledWork &Work,
                                      std::vector<Placement> &Placed) {
  bool Ok = true;
  uint64_t N = Space.size();
  // Placed[g]: the processor that first scheduled g and g's position in
  // its order; NoProc = unscheduled.
  Placed.assign(N, Placement());
  unsigned Dups = 0, OutOfRange = 0;

  for (size_t P = 0; P != Work.PerProc.size(); ++P) {
    const std::vector<GlobalIter> &Order = Work.PerProc[P];
    assert(Order.size() <= UINT32_MAX && "positions fit a Placement");
    for (uint64_t I = 0; I != Order.size(); ++I) {
      GlobalIter G = Order[I];
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
      if (Placed[G].Proc != NoProc) {
        if (++Dups <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "duplicate-iteration")
                        .at(loc(G))
                    << "iteration " << G << " "
                    << toString(Space.iterOf(G))
                    << " is scheduled more than once (first on processor "
                    << Placed[G].Proc << ", again on processor " << P
                    << ")");
        Ok = false;
        continue;
      }
      Placed[G] = {uint32_t(P), uint32_t(I)};
    }
  }

  unsigned Missing = 0;
  for (GlobalIter G = 0; G != GlobalIter(N); ++G) {
    if (Placed[G].Proc == NoProc) {
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
  // Placement of every iteration: owning processor and position in its
  // order. Unplaced or out-of-range iterations are verifyPartition's
  // problem; dependence checks skip them.
  uint64_t N = Space.size();
  std::vector<Placement> Placed(N);
  for (size_t P = 0; P != Work.PerProc.size(); ++P) {
    const auto &Order = Work.PerProc[P];
    assert(Order.size() <= UINT32_MAX && "positions fit a Placement");
    for (uint64_t I = 0; I != Order.size(); ++I) {
      GlobalIter It = Order[I];
      if (uint64_t(It) >= N || Placed[It].Proc != NoProc)
        continue;
      Placed[It] = {uint32_t(P), uint32_t(I)};
    }
  }
  return checkDependences(Work, Placed);
}

bool ScheduleVerifier::checkDependences(const ScheduledWork &Work,
                                        const std::vector<Placement> &Placed) {
  bool Ok = true;
  uint64_t N = Space.size();
  const IterationGraph &G = graph();

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

      if (Placed[U].Proc == NoProc || Placed[V].Proc == NoProc)
        continue;
      if (Placed[U].Proc == Placed[V].Proc) {
        // Same processor: the source must simply come earlier.
        if (Placed[V].Pos <= Placed[U].Pos) {
          if (++Violations <= MaxPerCheck)
            DE.report(Diagnostic(DiagSeverity::Error, PassName,
                                 "dependence-violation")
                          .at(loc(V))
                      << "iteration " << V << " " << toString(Space.iterOf(V))
                      << " depends on iteration " << U << " "
                      << toString(Space.iterOf(U))
                      << " but processor " << Placed[U].Proc
                      << " schedules it at position " << Placed[V].Pos
                      << ", before the source at position " << Placed[U].Pos);
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
                      << Placed[U].Proc << ", phase " << phaseOf(Work, U)
                      << ") -> " << V << " (processor " << Placed[V].Proc
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
  // The graph first: it outlives the placements, and with the kept graph
  // below this call's scratch the allocator hands the scratch's pages
  // back to the next call instead of returning them to the system (a
  // verifier made for this one call paid a page fault per 4 KiB of it).
  graph();
  std::vector<Placement> Placed;
  bool Ok = checkPartition(Work, Placed);
  Ok &= checkDependences(Work, Placed);
  if (Ok)
    DE.report(Diagnostic(DiagSeverity::Remark, PassName, "verified").at(loc())
              << "schedule of " << Space.size() << " iterations across "
              << Work.PerProc.size()
              << " processors proves legal against " << graph().numEdges()
              << " independently derived dependence edges");
  return Ok;
}

bool ScheduleVerifier::verifyFootprint(const SymbolicFootprint &FP) {
  derive(Recount);
  bool Ok = true;
  unsigned NumDisks = Layout.numDisks();
  unsigned IterMismatches = 0, CountMismatches = 0, DemandMismatches = 0;

  for (const NestFootprint &NF : FP.nests()) {
    NestId N = NF.Nest;
    const LoopNest &Nest = Prog.nest(N);
    uint64_t Iters = uint64_t(Space.nestEnd(N)) - uint64_t(Space.nestBegin(N));
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

    size_t NumRefs = Nest.accesses().size();
    assert(NF.Refs.size() == NumRefs && "one footprint per reference");
    for (size_t R = 0; R != NumRefs; ++R) {
      const RefFootprint &RF = NF.Refs[R];
      const uint64_t Ref = RefBase[N] + R;
      const uint64_t Count = RefTiles[Ref];
      std::span<const uint64_t> Recount(RefDemand.data() + Ref * NumDisks,
                                        NumDisks);
      if (RF.DistinctTiles != Count) {
        if (++CountMismatches <= MaxPerCheck)
          DE.report(Diagnostic(DiagSeverity::Error, PassName,
                               "footprint-count-mismatch")
                        .at(loc())
                    << "reference " << R << " of nest '" << Nest.name()
                    << "' claims " << RF.DistinctTiles
                    << " distinct tiles (method "
                    << footprintMethodName(RF.Method)
                    << ") but an independent recount gives " << Count);
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
  for (auto [Count, Check] : Overflow) {
    if (Count > MaxPerCheck)
      DE.report(Diagnostic(DiagSeverity::Note, PassName, Check).at(loc())
                << (Count - MaxPerCheck) << " further " << Check
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
  derive(FirstTiles);
  ScheduleLocality R;
  std::vector<uint8_t> Seen(Layout.numDisks(), 0);
  bool HaveLast = false;
  unsigned Last = 0;
  for (GlobalIter G : S.Order) {
    if (FirstTile[G] == NoTile)
      continue;
    const ArrayId A = Prog.nest(Space.nestOf(G)).accesses().front().Array;
    unsigned D = Layout.primaryDiskOfTile({A, FirstTile[G]});
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
