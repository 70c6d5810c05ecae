//===- tests/sharded_sim_test.cpp - sharded simulator tests ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The sharded engine's whole contract is "byte-identical to the serial
// oracle, only faster" — so every test here is differential: render the
// full observable surface (the report's sim, ledger and attribution
// sections and the dra-timeline-v1 document) from both engines and compare
// the strings.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "sim/CompletionBatch.h"
#include "sim/ShardRouter.h"
#include "sim/ShardedSimEngine.h"
#include "sim/SimEngine.h"
#include "trace/TenantMerge.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

using namespace dra;

namespace {

constexpr uint64_t KiB32 = 32 * 1024;

struct Rig {
  Program P;
  DiskLayout Layout;

  explicit Rig(unsigned StripeFactor, int64_t Tiles)
      : P(makeProgram(Tiles)), Layout(P, makeConfig(StripeFactor)) {}

  static Program makeProgram(int64_t Tiles) {
    ProgramBuilder B("rig");
    ArrayId U = B.addArray("U", {Tiles});
    B.beginNest("n", 1.0).loop(0, Tiles).read(U, {iv(0)}).endNest();
    return B.build();
  }

  static StripingConfig makeConfig(unsigned F) {
    StripingConfig C;
    C.StripeFactor = F;
    return C;
  }
};

/// Deterministic pseudo-random closed-loop trace: per-processor phases are
/// nondecreasing (a processor whose phase-0 request sat behind a phase-2
/// request would deadlock the barrier), tiles/sizes/think times/writes and
/// provenance vary per request.
Trace makeRandomTrace(unsigned Procs, unsigned Phases, int64_t Tiles,
                      size_t PerProc, unsigned Seed) {
  std::mt19937 Rng(Seed);
  // Leave room for the largest request so no access runs past the array.
  std::uniform_int_distribution<int64_t> TileD(0, Tiles - 4);
  std::uniform_int_distribution<int> SizeD(1, 3);
  std::uniform_real_distribution<double> ThinkD(0.0, 40.0);
  std::uniform_int_distribution<int> WriteD(0, 4);
  std::uniform_int_distribution<uint32_t> RefD(0, 1);
  Trace T(Procs, 4096);
  for (uint32_t P = 0; P != Procs; ++P) {
    for (size_t I = 0; I != PerProc; ++I) {
      Request R;
      R.StartBlock = uint64_t(TileD(Rng)) * KiB32 / 4096;
      R.SizeBytes = uint64_t(SizeD(Rng)) * KiB32;
      R.IsWrite = WriteD(Rng) == 0;
      R.Proc = P;
      R.ThinkMs = ThinkD(Rng);
      R.Phase = uint32_t(I * Phases / PerProc);
      if (I % 5 != 4) // every fifth request stays unattributed
        R.Prov = Provenance{0, RefD(Rng), uint32_t(I % 3)};
      T.addRequest(R);
    }
  }
  return T;
}

/// Renders everything a run makes observable as one string: the report's
/// sim, dra-ledger-v1 and dra-attrib-v1 sections and the dra-timeline-v1
/// document.
std::string renderObservable(const SimResults &Res, const DiskParams &P,
                             const TimelineRecorder &TL) {
  JsonWriter W;
  W.beginObject();
  W.key("report");
  writeSimResultsJson(W, Res);
  W.key("ledger");
  writeLedgerSectionJson(W, Res, P.TpmBreakEvenS);
  SchemeRun R;
  R.Sim = Res;
  W.key("attrib");
  writeAttributionSectionJson(W, R);
  W.endObject();
  return W.take() + "\n" + renderTimelineJson(TL, "test");
}

std::string runSerial(const DiskLayout &L, const DiskParams &P,
                      PowerPolicyKind Policy, const Trace &T,
                      CacheConfig Cache, bool Attribution) {
  TimelineRecorder TL{500.0};
  SimEngine E(L, P, Policy, Cache, nullptr, "sim", Attribution, &TL);
  SimResults Res = E.run(T);
  return renderObservable(Res, P, TL);
}

std::string runSharded(const DiskLayout &L, const DiskParams &P,
                       PowerPolicyKind Policy, const Trace &T, unsigned Shards,
                       double WindowMs, CacheConfig Cache, bool Attribution) {
  TimelineRecorder TL{500.0};
  ShardedSimEngine E(L, P, Policy, Shards, WindowMs, Cache, nullptr, "sim",
                     Attribution, &TL);
  SimResults Res = E.run(T);
  return renderObservable(Res, P, TL);
}

} // namespace

TEST(ShardedSimTest, ByteIdenticalToSerialAllPoliciesAndShardCounts) {
  Rig R(16, 256);
  DiskParams P;
  Trace T = makeRandomTrace(6, 3, 256, 60, 12345);
  for (PowerPolicyKind Policy :
       {PowerPolicyKind::None, PowerPolicyKind::Tpm, PowerPolicyKind::Drpm}) {
    for (bool Cached : {false, true}) {
      CacheConfig Cache;
      if (Cached) {
        Cache.Policy = CachePolicyKind::Lru;
        Cache.CapacityBlocks = 64;
      }
      std::string Serial = runSerial(R.Layout, P, Policy, T, Cache, true);
      for (unsigned Shards : {1u, 2u, 4u, 8u})
        EXPECT_EQ(Serial, runSharded(R.Layout, P, Policy, T, Shards, 0.0,
                                     Cache, true))
            << "policy " << int(Policy) << " cached " << Cached << " shards "
            << Shards;
    }
  }
}

TEST(ShardedSimTest, ByteIdenticalForAnyLegalWindow) {
  Rig R(8, 128);
  DiskParams P;
  Trace T = makeRandomTrace(4, 2, 128, 40, 777);
  std::string Serial =
      runSerial(R.Layout, P, PowerPolicyKind::Tpm, T, CacheConfig(), true);
  // Any legal window gives the same bytes -- tiny windows included.
  for (double WindowMs : {1.0, 50.0, 1000.0, P.TpmBreakEvenS * 1000.0})
    EXPECT_EQ(Serial, runSharded(R.Layout, P, PowerPolicyKind::Tpm, T, 4,
                                 WindowMs, CacheConfig(), true))
        << "window " << WindowMs;
}

TEST(ShardedSimTest, MoreShardsThanDisksClampsAndMatches) {
  Rig R(4, 64);
  DiskParams P;
  Trace T = makeRandomTrace(2, 1, 64, 20, 99);
  std::string Serial =
      runSerial(R.Layout, P, PowerPolicyKind::Drpm, T, CacheConfig(), false);
  EXPECT_EQ(Serial, runSharded(R.Layout, P, PowerPolicyKind::Drpm, T, 64, 0.0,
                               CacheConfig(), false));
}

TEST(ShardedSimTest, PipelineShardsMatchSerialAllSchemes) {
  ProgramBuilder B("small");
  int64_t N = 12;
  ArrayId A = B.addArray("A", {N, N});
  ArrayId C = B.addArray("C", {N, N});
  B.beginNest("s0", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(A, {iv(0), iv(1)})
      .write(C, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(C, {iv(1), iv(0)})
      .write(A, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();

  PipelineConfig Cfg = paperConfig(4);
  Pipeline Pipe(P, Cfg);
  for (Scheme S : allSchemes()) {
    Trace T = Pipe.trace(S);
    // 3 shards: an odd count that does not divide the disk count.
    ShardedSimEngine Sharded(Pipe.layout(), schemeDiskParams(S, Cfg.Disk),
                             schemePolicy(S), 3, 0.0, Cfg.Cache, nullptr,
                             "sim", Cfg.Attribution);
    JsonWriter WA, WB;
    writeSimResultsJson(WA, simulateScheme(S, Pipe.layout(), Cfg, T));
    writeSimResultsJson(WB, Sharded.run(T));
    EXPECT_EQ(WA.take(), WB.take()) << "scheme " << schemeName(S);
  }
}

TEST(ShardedSimTest, WindowLegality) {
  DiskParams P;
  // Auto (0) resolves to the policy's break-even gap; None is unconstrained
  // and falls back to 1000 ms.
  EXPECT_DOUBLE_EQ(resolveSimWindowMs(0.0, P, PowerPolicyKind::None), 1000.0);
  EXPECT_DOUBLE_EQ(resolveSimWindowMs(0.0, P, PowerPolicyKind::Tpm),
                   P.TpmBreakEvenS * 1000.0);
  EXPECT_DOUBLE_EQ(resolveSimWindowMs(0.0, P, PowerPolicyKind::Drpm),
                   P.DrpmIdleStepDownS * 1000.0);
  // At the limit is legal; past it is a config-time error.
  EXPECT_DOUBLE_EQ(
      resolveSimWindowMs(P.TpmBreakEvenS * 1000.0, P, PowerPolicyKind::Tpm),
      P.TpmBreakEvenS * 1000.0);
  EXPECT_THROW(resolveSimWindowMs(P.TpmBreakEvenS * 1000.0 + 1.0, P,
                                  PowerPolicyKind::Tpm),
               std::invalid_argument);
  EXPECT_THROW(resolveSimWindowMs(P.DrpmIdleStepDownS * 1000.0 + 1.0, P,
                                  PowerPolicyKind::Drpm),
               std::invalid_argument);
  EXPECT_THROW(resolveSimWindowMs(-5.0, P, PowerPolicyKind::None),
               std::invalid_argument);
  // Non-finite widths compare false against both bounds; NaN would never
  // flush a batch before the end of the run.
  for (PowerPolicyKind Pol : {PowerPolicyKind::None, PowerPolicyKind::Tpm}) {
    EXPECT_THROW(resolveSimWindowMs(std::nan(""), P, Pol),
                 std::invalid_argument);
    EXPECT_THROW(resolveSimWindowMs(
                     std::numeric_limits<double>::infinity(), P, Pol),
                 std::invalid_argument);
  }
  // None admits any positive window.
  EXPECT_DOUBLE_EQ(resolveSimWindowMs(1e9, P, PowerPolicyKind::None), 1e9);

  // The engine checks at construction, before any simulation runs.
  Rig R(4, 64);
  EXPECT_THROW(ShardedSimEngine(R.Layout, P, PowerPolicyKind::Tpm, 2,
                                P.TpmBreakEvenS * 1000.0 + 1.0),
               std::invalid_argument);
  EXPECT_THROW(ShardedSimEngine(R.Layout, P, PowerPolicyKind::None, 0),
               std::invalid_argument);
  EXPECT_THROW(ShardRouter(0), std::invalid_argument);
}

TEST(ShardedSimTest, BatchOrderIsTimeProcSeq) {
  CompletionBatch B;
  auto Ev = [](double Time, uint32_t Proc, uint64_t Seq) {
    FragmentEvent F;
    F.ArrivalMs = Time;
    F.Proc = Proc;
    F.Seq = Seq;
    return F;
  };
  // Deliberately scrambled, with ties on time and on (time, proc).
  B.Events = {Ev(5.0, 1, 7), Ev(1.0, 2, 3), Ev(5.0, 0, 9), Ev(1.0, 2, 1),
              Ev(1.0, 0, 4), Ev(5.0, 1, 2), Ev(0.5, 3, 8)};
  sortCompletionBatch(B);
  ASSERT_EQ(B.Events.size(), 7u);
  for (size_t I = 1; I != B.Events.size(); ++I) {
    const FragmentEvent &A = B.Events[I - 1], &C = B.Events[I];
    bool Ordered = A.ArrivalMs < C.ArrivalMs ||
                   (A.ArrivalMs == C.ArrivalMs &&
                    (A.Proc < C.Proc || (A.Proc == C.Proc && A.Seq < C.Seq)));
    EXPECT_TRUE(Ordered) << "position " << I;
  }
  // Sorted: (0.5,p3,s8) first; the 5.0 group orders p0 before p1, and
  // p1's two events by seq, so (5.0,p1,s7) is last.
  EXPECT_EQ(B.Events.front().Seq, 8u);
  EXPECT_EQ(B.Events.back().Seq, 7u);
}

TEST(ShardedSimTest, DivergenceCrossCheckFiresOnCorruptedTrace) {
  // FCFS requires nondecreasing arrivals per disk; the coordinator's timing
  // model and the shard's Disk both see the same stream, so a legal trace
  // can never diverge. This test documents the check exists by exercising
  // the happy path: a clean run must not throw.
  Rig R(8, 128);
  DiskParams P;
  Trace T = makeRandomTrace(3, 2, 128, 30, 4242);
  ShardedSimEngine E(R.Layout, P, PowerPolicyKind::Tpm, 4);
  EXPECT_NO_THROW(E.run(T));
}

//===----------------------------------------------------------------------===//
// Multi-tenant merging
//===----------------------------------------------------------------------===//

namespace {

/// One tenant's workload for the merge tests: a 1-D array program, its
/// layout under the shared striping config, and a hand-built closed-loop
/// trace touching its own tiles.
struct Tenant {
  Program P;
  DiskLayout Layout;
  Trace Replay;

  Tenant(const char *Name, int64_t Tiles, unsigned Procs,
         const StripingConfig &C)
      : P(makeProgram(Name, Tiles)), Layout(P, C), Replay(Procs, 4096) {}

  static Program makeProgram(const char *Name, int64_t Tiles) {
    ProgramBuilder B(Name);
    ArrayId U = B.addArray("U", {Tiles});
    B.beginNest("n", 1.0).loop(0, Tiles).read(U, {iv(0)}).endNest();
    return B.build();
  }

  void add(double Think, uint64_t Tile, uint32_t Proc, uint32_t Phase,
           uint64_t Bytes = KiB32, bool Write = false) {
    Request R;
    R.ThinkMs = Think;
    R.StartBlock = Tile * KiB32 / 4096;
    R.SizeBytes = Bytes;
    R.Proc = Proc;
    R.Phase = Phase;
    R.IsWrite = Write;
    R.Prov = Provenance{0, 0, 0};
    Replay.addRequest(R);
  }
};

} // namespace

TEST(TenantMergeTest, RelocatesStampsAndOffsets) {
  StripingConfig C;
  C.StripeFactor = 4;
  Tenant A("appA", 32, 2, C), B("appB", 16, 1, C);
  A.add(1.0, 0, 0, 0);
  A.add(2.0, 1, 1, 0);
  B.add(3.0, 0, 0, 0);

  std::vector<TenantInput> In(2);
  In[0].Label = "A";
  In[0].Prog = &A.P;
  In[0].Replay = &A.Replay;
  In[0].Layout = &A.Layout;
  In[1].Label = "B";
  In[1].Prog = &B.P;
  In[1].Replay = &B.Replay;
  In[1].Layout = &B.Layout;
  In[1].StartMs = 50.0;
  MergedWorkload W = mergeTenants(In);

  ASSERT_EQ(W.Replay.size(), 3u);
  EXPECT_EQ(W.Replay.numProcs(), 3u);
  EXPECT_EQ(W.ProcBase[1], 2u);
  const std::vector<Request> &R = W.Replay.requests();
  // Tenant A is untouched (no start offset, file base 0).
  EXPECT_EQ(R[0].Tenant, 0u);
  EXPECT_EQ(R[0].StartBlock, 0u);
  EXPECT_EQ(R[0].Proc, 0u);
  EXPECT_DOUBLE_EQ(R[0].ThinkMs, 1.0);
  // Tenant B: proc renumbered, tenant stamped, blocks relocated past A's
  // file, arrival/think shifted by its start offset.
  EXPECT_EQ(R[2].Tenant, 1u);
  EXPECT_EQ(R[2].Proc, 2u);
  uint64_t Delta = W.Layout.fileBase(1) - B.Layout.fileBase(0);
  EXPECT_EQ(R[2].StartBlock, Delta / 4096);
  EXPECT_DOUBLE_EQ(R[2].ThinkMs, 3.0 + 50.0);
  // Nest labels carry the tenant prefix for attribution views (no names
  // were supplied, so the positional fallback "n0" labels the nest).
  ASSERT_EQ(W.Names.Nests.size(), 2u);
  EXPECT_EQ(W.Names.Nests[0], "A/n0");
  EXPECT_EQ(W.Names.Nests[1], "B/n0");
  // Tenant B's provenance was renumbered into the merged nest space.
  EXPECT_EQ(R[2].Prov.Nest, 1u);
}

TEST(TenantMergeTest, IncompatibleStripingThrows) {
  StripingConfig C1, C2;
  C1.StripeFactor = 4;
  C2.StripeFactor = 8;
  Tenant A("appA", 16, 1, C1), B("appB", 16, 1, C2);
  A.add(1.0, 0, 0, 0);
  B.add(1.0, 0, 0, 0);
  std::vector<TenantInput> In(2);
  In[0].Label = "a";
  In[0].Prog = &A.P;
  In[0].Replay = &A.Replay;
  In[0].Layout = &A.Layout;
  In[1].Label = "b";
  In[1].Prog = &B.P;
  In[1].Replay = &B.Replay;
  In[1].Layout = &B.Layout;
  EXPECT_THROW(mergeTenants(In), std::invalid_argument);
  EXPECT_THROW(mergeTenants({}), std::invalid_argument);

  // Labels keep tenants apart in attribution names and flame frames: an
  // empty, repeated, ';'- or whitespace-bearing label is refused, naming
  // the tenant. Tenant A twice isolates the label check.
  In[1].Prog = &A.P;
  In[1].Replay = &A.Replay;
  In[1].Layout = &A.Layout;
  ASSERT_NO_THROW(mergeTenants(In));
  auto messageFor = [&](const std::string &Label) -> std::string {
    std::vector<TenantInput> Bad = In;
    Bad[1].Label = Label;
    try {
      mergeTenants(Bad);
    } catch (const std::invalid_argument &E) {
      return E.what();
    }
    return "no throw";
  };
  EXPECT_EQ(messageFor(""), "tenants[1]: empty label");
  EXPECT_EQ(messageFor("a"), "tenant 'a': label used by another tenant");
  for (const char *Label : {"x;y", "x y", "x;y z", "x\ty"})
    EXPECT_EQ(messageFor(Label), std::string("tenant '") + Label +
                                     "': label contains ';' or whitespace");
}

TEST(TenantMergeTest, MergedTraceShardedMatchesSerial) {
  StripingConfig C;
  C.StripeFactor = 8;
  Tenant A("appA", 64, 3, C), B("appB", 64, 2, C);
  std::mt19937 Rng(31337);
  std::uniform_int_distribution<uint64_t> TileD(0, 63);
  std::uniform_real_distribution<double> ThinkD(0.0, 30.0);
  for (uint32_t P = 0; P != 3; ++P)
    for (size_t I = 0; I != 25; ++I)
      A.add(ThinkD(Rng), TileD(Rng), P, uint32_t(I / 13), KiB32, I % 7 == 0);
  for (uint32_t P = 0; P != 2; ++P)
    for (size_t I = 0; I != 25; ++I)
      B.add(ThinkD(Rng), TileD(Rng), P, uint32_t(I / 13));

  std::vector<TenantInput> In(2);
  In[0].Label = "A";
  In[0].Prog = &A.P;
  In[0].Replay = &A.Replay;
  In[0].Layout = &A.Layout;
  In[1].Label = "B";
  In[1].Prog = &B.P;
  In[1].Replay = &B.Replay;
  In[1].Layout = &B.Layout;
  In[1].StartMs = 100.0;
  MergedWorkload W = mergeTenants(In);

  DiskParams P;
  for (PowerPolicyKind Policy : {PowerPolicyKind::None, PowerPolicyKind::Tpm,
                                 PowerPolicyKind::Drpm}) {
    std::string Serial =
        runSerial(W.Layout, P, Policy, W.Replay, CacheConfig(), true);
    for (unsigned Shards : {2u, 8u})
      EXPECT_EQ(Serial, runSharded(W.Layout, P, Policy, W.Replay, Shards, 0.0,
                                   CacheConfig(), true))
          << "policy " << int(Policy) << " shards " << Shards;
  }
}

TEST(TenantMergeTest, BarriersAreTenantScoped) {
  StripingConfig C;
  C.StripeFactor = 4;
  // Tenant A computes for a long time before its phase-0 request; tenant B
  // runs a short phase 0 then phase 1. Per-tenant barriers let B's phase 1
  // proceed while A is still thinking; a global barrier would stall B's
  // phase 1 until A's phase 0 completed, pushing the wall time out.
  Tenant A("appA", 32, 1, C), B("appB", 32, 1, C);
  A.add(500.0, 0, 0, 0);
  B.add(0.0, 0, 0, 0);
  B.add(1.0, 1, 0, 1);
  std::vector<TenantInput> In(2);
  In[0].Label = "A";
  In[0].Prog = &A.P;
  In[0].Replay = &A.Replay;
  In[0].Layout = &A.Layout;
  In[1].Label = "B";
  In[1].Prog = &B.P;
  In[1].Replay = &B.Replay;
  In[1].Layout = &B.Layout;
  MergedWorkload W = mergeTenants(In);

  DiskParams P;
  SimEngine E(W.Layout, P, PowerPolicyKind::None);
  SimResults Scoped = E.run(W.Replay);

  // Same requests with the tenant stamps erased: one global barrier space.
  Trace Global(W.Replay.numProcs(), W.Replay.blockBytes());
  for (Request R : W.Replay.requests()) {
    R.Tenant = 0;
    Global.addRequest(R);
  }
  SimResults Flat = E.run(Global);
  EXPECT_LT(Scoped.WallTimeMs, Flat.WallTimeMs);
}
