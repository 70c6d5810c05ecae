//===- tests/attribution_test.cpp - Source-attribution tests -----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The attribution ledger (sim/Attribution.h) must charge every joule to a
// (nest, reference, round) key such that the per-category entry sums
// reproduce the disk's EnergyLedger exactly, without perturbing any
// simulation result. A hand-computed two-nest scenario pins the charging
// policy (service to the serviced key, ready energy to the arriving key,
// in-gap energy split half/half between the bounding keys); a randomized
// property sweep pins closure and on/off identity across schemes and
// configurations; round-trip tests pin the report's dra-attrib-v1
// sections, the dra-diff-v1 diff and the chrome-trace v2 span args.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"
#include "obs/AttribDiff.h"
#include "obs/RunReport.h"
#include "obs/Tracer.h"
#include "sim/Disk.h"
#include "verify/EnergyAuditor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>

using namespace dra;

namespace {

constexpr uint64_t KiB32 = 32 * 1024;

/// |A - B| within 1e-9 relative (the auditor's closure tolerance).
::testing::AssertionResult Closes(double A, double B) {
  double Scale = std::max({1.0, std::fabs(A), std::fabs(B)});
  if (std::fabs(A - B) <= 1e-9 * Scale)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << A << " vs " << B << " (rel " << std::fabs(A - B) / Scale << ")";
}

/// Sums the energy of every attribution entry of \p S per category, in
/// map order — the exact fold Disk::finalize performs.
EnergyLedger sumEntries(const DiskStats &S) {
  EnergyLedger L;
  for (const auto &[Key, E] : S.Attrib) {
    (void)Key;
    L += E.Energy;
  }
  return L;
}

/// Small deterministic random affine program: 2 nests over 1-2 arrays.
Program randomProgram(unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };
  int64_t N = Pick(6, 10);
  ProgramBuilder B("attrib" + std::to_string(Seed));
  int NumArrays = Pick(1, 2);
  std::vector<ArrayId> Arrays;
  for (int A = 0; A != NumArrays; ++A)
    Arrays.push_back(B.addArray("U" + std::to_string(A), {N, N}));
  for (int K = 0; K != 2; ++K) {
    B.beginNest("n" + std::to_string(K), 0.5 + 0.1 * Pick(0, 10));
    B.loop(0, N).loop(0, N);
    int NumAcc = Pick(1, 2);
    for (int A = 0; A != NumAcc; ++A)
      B.read(Arrays[size_t(Pick(0, NumArrays - 1))], {iv(0), iv(1)});
    B.write(Arrays[size_t(Pick(0, NumArrays - 1))], {iv(0), iv(1)});
    B.endNest();
  }
  return B.build();
}

/// The two-nest ping-pong program of the compare-report tests: enough
/// cross-nest reuse for the Fig. 3 restructuring to reshape the per-nest
/// energy distribution.
Program pingPongProgram() {
  ProgramBuilder B("aligned");
  int64_t N = 12;
  ArrayId A0 = B.addArray("A", {N, N});
  ArrayId C2 = B.addArray("C", {N, N});
  B.beginNest("s0", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(A0, {iv(0), iv(1)})
      .write(C2, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, N)
      .loop(0, N)
      .read(C2, {iv(0), iv(1)})
      .write(A0, {iv(0), iv(1)})
      .endNest();
  return B.build();
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-computed two-nest single-disk scenario (DiskParams defaults: idle
// 10.2 W, standby 2.5 W, active 13.5 W, spin-down 13 J / 1.5 s, spin-up
// 135 J / 10.9 s, break-even 15.2 s).
//===----------------------------------------------------------------------===//

TEST(AttributionTest, HandComputedTwoNestScenario) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Tpm);

  // Nest 0 issues the first read; after a 60 s gap (15.2 s idle, 1.5 s
  // spin-down, 43.3 s standby, reactive spin-up stall) nest 1 issues the
  // second.
  Provenance P0{0, 0, 0};
  Provenance P1{1, 0, 0};
  double C1 = D.submit(0.0, 0, KiB32, false, P0);
  double C2 = D.submit(C1 + 60000.0, 0, KiB32, false, P1);
  D.finalize(C2);

  const DiskStats &S = D.stats();
  AttribKey K0 = AttribKey::of(P0), K1 = AttribKey::of(P1);
  ASSERT_EQ(S.Attrib.size(), 2u);
  ASSERT_TRUE(S.Attrib.count(K0));
  ASSERT_TRUE(S.Attrib.count(K1));
  const AttribEntry &E0 = S.Attrib.at(K0);
  const AttribEntry &E1 = S.Attrib.at(K1);

  // Service energy goes to the serviced key.
  double SvcJ = 13.5 * PM.serviceMs(KiB32, P.MaxRpm, false) / 1000.0;
  EXPECT_TRUE(Closes(E0.Energy.ActiveReadJ, SvcJ));
  EXPECT_TRUE(Closes(E1.Energy.ActiveReadJ, SvcJ));
  EXPECT_EQ(E0.NumRequests, 1u);
  EXPECT_EQ(E1.NumRequests, 1u);

  // In-gap energy splits half/half between the bounding keys. The second
  // request was the only arrival, so it alone absorbed the stall.
  EXPECT_TRUE(Closes(E0.Energy.IdleByRpmJ.at(P.MaxRpm), 10.2 * 15.2 / 2));
  EXPECT_TRUE(Closes(E1.Energy.IdleByRpmJ.at(P.MaxRpm), 10.2 * 15.2 / 2));
  EXPECT_TRUE(Closes(E0.Energy.SpinDownJ, 13.0 / 2));
  EXPECT_TRUE(Closes(E1.Energy.SpinDownJ, 13.0 / 2));
  EXPECT_TRUE(Closes(E0.Energy.StandbyJ, 2.5 * 43.3 / 2));
  EXPECT_TRUE(Closes(E1.Energy.StandbyJ, 2.5 * 43.3 / 2));

  // Ready energy belongs wholly to the arriving request; the spin-up
  // stalled it, so the charge is a ready penalty.
  EXPECT_DOUBLE_EQ(E0.Energy.ReadyPenaltyJ, 0.0);
  EXPECT_TRUE(Closes(E1.Energy.ReadyPenaltyJ, 135.0));
  EXPECT_GT(E1.ReadyDelayMs, 0.0);
  EXPECT_DOUBLE_EQ(E0.ReadyDelayMs, 0.0);

  // The ledger is the exact per-category sum of the entries, and closes
  // against the integrated energy.
  EnergyLedger Sum = sumEntries(S);
  EXPECT_DOUBLE_EQ(Sum.ActiveReadJ, S.Ledger.ActiveReadJ);
  EXPECT_DOUBLE_EQ(Sum.SpinDownJ, S.Ledger.SpinDownJ);
  EXPECT_DOUBLE_EQ(Sum.StandbyJ, S.Ledger.StandbyJ);
  EXPECT_DOUBLE_EQ(Sum.ReadyPenaltyJ, S.Ledger.ReadyPenaltyJ);
  EXPECT_TRUE(Closes(S.Ledger.totalJ(), S.EnergyJ));
}

TEST(AttributionTest, WarmUpAndTailGapsFallToUnattributed) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);

  // A 10 s warm-up gap precedes the only request and a 10 s tail gap
  // follows it: each gap has one missing bound, so half of each gap's
  // idle dwell lands in the unattributed bucket.
  Provenance P0{0, 0, 0};
  double C1 = D.submit(10000.0, 0, KiB32, false, P0);
  D.finalize(C1 + 10000.0);

  const DiskStats &S = D.stats();
  ASSERT_TRUE(S.Attrib.count(AttribKey()));
  const AttribEntry &U = S.Attrib.at(AttribKey());
  const AttribEntry &E0 = S.Attrib.at(AttribKey::of(P0));
  EXPECT_EQ(U.NumRequests, 0u);
  // Unattributed: half of each of the two 10 s full-power gaps.
  EXPECT_TRUE(Closes(U.Energy.IdleByRpmJ.at(P.MaxRpm), 10.2 * 10.0));
  EXPECT_TRUE(Closes(E0.Energy.IdleByRpmJ.at(P.MaxRpm), 10.2 * 10.0));
  EXPECT_TRUE(Closes(S.Ledger.totalJ(), S.EnergyJ));
}

TEST(AttributionTest, RequestsWithoutProvenanceStayUnattributed) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 0, KiB32, false); // no provenance
  double C2 = D.submit(C1 + 1000.0, 0, KiB32, true);
  D.finalize(C2);

  const DiskStats &S = D.stats();
  ASSERT_EQ(S.Attrib.size(), 1u);
  const AttribEntry &U = S.Attrib.at(AttribKey());
  EXPECT_EQ(U.NumRequests, 2u);
  EXPECT_TRUE(Closes(U.Energy.totalJ(), S.EnergyJ));
}

//===----------------------------------------------------------------------===//
// Property: closure and on/off identity for every scheme x configuration.
//===----------------------------------------------------------------------===//

class AttributionClosureProperty : public ::testing::TestWithParam<unsigned> {
};

TEST_P(AttributionClosureProperty, ClosesAndPreservesResults) {
  unsigned Seed = GetParam();
  std::mt19937_64 Rng(Seed * 1409u + 31u);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };

  Program P = randomProgram(Seed);
  PipelineConfig Cfg;
  Cfg.NumProcs = Pick(0, 1) ? 4 : 1;
  Cfg.Striping.StripeFactor =
      Cfg.NumProcs > 1 ? unsigned(1 << Pick(2, 3)) : unsigned(1 << Pick(1, 3));
  Cfg.Striping.StripeUnitBytes = uint64_t(16 * 1024) << Pick(0, 2);
  if (Pick(0, 1)) {
    Cfg.Cache.Policy =
        Pick(0, 1) ? CachePolicyKind::Lru : CachePolicyKind::PaLru;
    Cfg.Cache.CapacityBlocks = uint64_t(Pick(1, 8)) * 16;
  }

  PipelineConfig CfgOff = Cfg;
  CfgOff.Attribution = false;
  Pipeline On(P, Cfg), Off(P, CfgOff);

  std::vector<Scheme> Schemes =
      Cfg.NumProcs > 1 ? allSchemes() : singleProcSchemes();
  for (Scheme S : Schemes) {
    SchemeRun ROn = On.run(S);
    SchemeRun ROff = Off.run(S);

    // Closure: per disk, the entry sum reproduces the ledger exactly (the
    // ledger IS the finalize-time fold of the entries), and the auditor's
    // independent check agrees.
    for (const DiskStats &D : ROn.Sim.PerDisk) {
      EnergyLedger Sum = sumEntries(D);
      EXPECT_DOUBLE_EQ(Sum.ActiveReadJ, D.Ledger.ActiveReadJ);
      EXPECT_DOUBLE_EQ(Sum.ActiveWriteJ, D.Ledger.ActiveWriteJ);
      EXPECT_DOUBLE_EQ(Sum.SpinDownJ, D.Ledger.SpinDownJ);
      EXPECT_DOUBLE_EQ(Sum.SpinUpJ, D.Ledger.SpinUpJ);
      EXPECT_DOUBLE_EQ(Sum.StandbyJ, D.Ledger.StandbyJ);
      EXPECT_DOUBLE_EQ(Sum.RpmStepJ, D.Ledger.RpmStepJ);
      EXPECT_DOUBLE_EQ(Sum.ReadyPenaltyJ, D.Ledger.ReadyPenaltyJ);
      for (const auto &[Rpm, J] : Sum.IdleByRpmJ)
        EXPECT_DOUBLE_EQ(J, D.Ledger.IdleByRpmJ.at(Rpm));
      EXPECT_TRUE(Closes(D.Ledger.totalJ(), D.EnergyJ)) << schemeName(S);
      // Per-request counters aggregate too.
      uint64_t Requests = 0;
      for (const auto &[Key, E] : D.Attrib) {
        (void)Key;
        Requests += E.NumRequests;
      }
      EXPECT_EQ(Requests, D.NumRequests) << schemeName(S);
    }
    DiagnosticEngine DE;
    EXPECT_TRUE(EnergyAuditor(ROn.Sim, DE).verify()) << schemeName(S);

    // Identity: attribution perturbs no simulation result. Timings,
    // counters and ledgers are bit-identical (both runs fold the same
    // entries; the off run drops them afterwards).
    EXPECT_DOUBLE_EQ(ROn.Sim.EnergyJ, ROff.Sim.EnergyJ) << schemeName(S);
    ASSERT_EQ(ROn.Sim.PerDisk.size(), ROff.Sim.PerDisk.size());
    for (size_t I = 0; I != ROn.Sim.PerDisk.size(); ++I) {
      const DiskStats &A = ROn.Sim.PerDisk[I];
      const DiskStats &B = ROff.Sim.PerDisk[I];
      EXPECT_EQ(A.NumRequests, B.NumRequests);
      EXPECT_DOUBLE_EQ(A.BusyMs, B.BusyMs);
      EXPECT_DOUBLE_EQ(A.EnergyJ, B.EnergyJ);
      EXPECT_DOUBLE_EQ(A.ResponseSumMs, B.ResponseSumMs);
      EXPECT_DOUBLE_EQ(A.IdleMsTotal, B.IdleMsTotal);
      EXPECT_EQ(A.SpinDowns, B.SpinDowns);
      EXPECT_EQ(A.SpinUps, B.SpinUps);
      EXPECT_EQ(A.RpmSteps, B.RpmSteps);
      EXPECT_EQ(A.Ledger.ActiveReadJ, B.Ledger.ActiveReadJ);
      EXPECT_EQ(A.Ledger.ActiveWriteJ, B.Ledger.ActiveWriteJ);
      EXPECT_EQ(A.Ledger.SpinDownJ, B.Ledger.SpinDownJ);
      EXPECT_EQ(A.Ledger.SpinUpJ, B.Ledger.SpinUpJ);
      EXPECT_EQ(A.Ledger.StandbyJ, B.Ledger.StandbyJ);
      EXPECT_EQ(A.Ledger.RpmStepJ, B.Ledger.RpmStepJ);
      EXPECT_EQ(A.Ledger.ReadyPenaltyJ, B.Ledger.ReadyPenaltyJ);
      std::vector<std::pair<unsigned, double>> IdleA(
          A.Ledger.IdleByRpmJ.begin(), A.Ledger.IdleByRpmJ.end());
      std::vector<std::pair<unsigned, double>> IdleB(
          B.Ledger.IdleByRpmJ.begin(), B.Ledger.IdleByRpmJ.end());
      EXPECT_EQ(IdleA, IdleB);
      EXPECT_TRUE(B.Attrib.empty()) << "attribution-off run kept entries";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttributionClosureProperty,
                         ::testing::Range(1u, 9u));

//===----------------------------------------------------------------------===//
// The report's dra-attrib-v1 sections round-trip.
//===----------------------------------------------------------------------===//

TEST(AttribReportTest, AttribSectionRoundTripsAndCloses) {
  Program P = pingPongProgram();
  PipelineConfig Cfg;
  Pipeline Pipe(P, Cfg);
  AppResults App;
  App.Name = "pingpong";
  for (Scheme S : singleProcSchemes())
    App.Runs.push_back(Pipe.run(S));

  std::string Json = renderRunReportJson(Cfg, {App}, "test");
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, Doc, Error)) << Error;
  EXPECT_EQ(Doc.find("schema")->Str, "dra-report-v1");
  const JsonValue *Apps = Doc.find("apps");
  ASSERT_TRUE(Apps && Apps->isArray());
  const JsonValue *Runs = Apps->Arr[0].find("runs");
  ASSERT_TRUE(Runs && Runs->isArray());
  ASSERT_EQ(Runs->Arr.size(), singleProcSchemes().size());
  for (const JsonValue &Run : Runs->Arr) {
    const JsonValue *A = Run.find("attribution");
    ASSERT_TRUE(A);
    EXPECT_EQ(A->find("schema")->Str, "dra-attrib-v1");
    // Nest + unattributed energies stack to the total.
    double Total = A->find("total")->find("energy_j")->Num;
    double Stack = A->find("unattributed")->find("energy_j")->Num;
    const JsonValue *Nests = A->find("nests");
    ASSERT_TRUE(Nests && Nests->isArray());
    EXPECT_EQ(Nests->Arr.size(), 2u); // s0 and s1
    for (const JsonValue &Nest : Nests->Arr) {
      Stack += Nest.find("energy_j")->Num;
      // Ref rollup stacks to the nest.
      double RefStack = 0.0;
      for (const JsonValue &Ref : Nest.find("refs")->Arr)
        RefStack += Ref.find("energy_j")->Num;
      EXPECT_TRUE(Closes(RefStack, Nest.find("energy_j")->Num));
      EXPECT_GE(Nest.find("rounds")->Num, 1.0);
    }
    EXPECT_TRUE(Closes(Stack, Total));
    // The document total matches the run's integrated energy.
    double SimJ = 0.0;
    (void)SimJ;
  }

  // Flame export: one line per (nest, ref) plus the unattributed bucket,
  // numeric weights, semicolon-separated frames.
  std::string Flame = renderAttribFlame({App});
  EXPECT_NE(Flame.find("pingpong;"), std::string::npos);
  EXPECT_NE(Flame.find("s0"), std::string::npos);
  EXPECT_NE(Flame.find("s1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Per-disk folds against the AttributionRollup rendering they replaced.
//===----------------------------------------------------------------------===//

namespace {

// The oracle: the dra-attrib-v1 section and flame exporter as they were
// written before the per-disk views folded the ordered map directly, with
// one AttributionRollup (or per-(nest, ref) std::map) per disk.

void oracleLedgerCategories(JsonWriter &W, const EnergyLedger &L) {
  W.key("active_read_j");
  W.value(L.ActiveReadJ);
  W.key("active_write_j");
  W.value(L.ActiveWriteJ);
  W.key("idle_by_rpm_j");
  W.beginObject();
  for (const auto &[Rpm, Joules] : L.IdleByRpmJ) {
    W.key(std::to_string(Rpm));
    W.value(Joules);
  }
  W.endObject();
  W.key("spin_down_j");
  W.value(L.SpinDownJ);
  W.key("spin_up_j");
  W.value(L.SpinUpJ);
  W.key("standby_j");
  W.value(L.StandbyJ);
  W.key("rpm_step_j");
  W.value(L.RpmStepJ);
  W.key("ready_penalty_j");
  W.value(L.ReadyPenaltyJ);
}

void oracleEntryFields(JsonWriter &W, const AttribEntry &E) {
  W.key("energy_j");
  W.value(E.Energy.totalJ());
  W.key("busy_ms");
  W.value(E.BusyMs);
  W.key("ready_delay_ms");
  W.value(E.ReadyDelayMs);
  W.key("num_requests");
  W.value(E.NumRequests);
  oracleLedgerCategories(W, E.Energy);
}

void oracleAttributionSection(JsonWriter &W, const SchemeRun &R) {
  AttributionRollup Rollup;
  for (const DiskStats &S : R.Sim.PerDisk)
    Rollup.add(S.Attrib);
  W.beginObject();
  W.key("schema");
  W.value("dra-attrib-v1");
  W.key("total");
  W.beginObject();
  oracleEntryFields(W, Rollup.Total);
  W.endObject();
  W.key("nests");
  W.beginArray();
  for (const auto &[Nest, E] : Rollup.PerNest) {
    W.beginObject();
    W.key("nest");
    W.value(Nest);
    W.key("label");
    W.value(R.AttribNames.nestLabel(Nest));
    W.key("rounds");
    W.value(uint64_t(Rollup.NestRounds[Nest].size()));
    oracleEntryFields(W, E);
    W.key("refs");
    W.beginArray();
    for (auto It = Rollup.PerRef.lower_bound({Nest, 0});
         It != Rollup.PerRef.end() && It->first.first == Nest; ++It) {
      W.beginObject();
      W.key("ref");
      W.value(It->first.second);
      W.key("label");
      W.value(R.AttribNames.refLabel(Nest, It->first.second));
      oracleEntryFields(W, It->second);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("unattributed");
  W.beginObject();
  oracleEntryFields(W, Rollup.Unattributed);
  W.endObject();
  W.key("per_disk");
  W.beginArray();
  for (size_t D = 0; D != R.Sim.PerDisk.size(); ++D) {
    AttributionRollup DiskRollup;
    DiskRollup.add(R.Sim.PerDisk[D].Attrib);
    W.beginObject();
    W.key("disk");
    W.value(unsigned(D));
    W.key("nests");
    W.beginArray();
    for (const auto &[Nest, E] : DiskRollup.PerNest) {
      W.beginObject();
      W.key("nest");
      W.value(Nest);
      W.key("label");
      W.value(R.AttribNames.nestLabel(Nest));
      oracleEntryFields(W, E);
      W.endObject();
    }
    W.endArray();
    W.key("unattributed");
    W.beginObject();
    oracleEntryFields(W, DiskRollup.Unattributed);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string oracleFlame(const std::vector<AppResults> &Apps) {
  std::string Out;
  for (const AppResults &A : Apps) {
    for (const SchemeRun &R : A.Runs) {
      if (!R.Sim.AttributionEnabled)
        continue;
      for (size_t D = 0; D != R.Sim.PerDisk.size(); ++D) {
        std::map<std::pair<uint32_t, uint32_t>, EnergyLedger> PerRef;
        for (const auto &[Key, E] : R.Sim.PerDisk[D].Attrib)
          PerRef[{Key.Nest, Key.Ref}] += E.Energy;
        for (const auto &[Ref, L] : PerRef) {
          std::vector<std::string> Frames = {
              A.Name, schemeName(R.S), R.AttribNames.nestLabel(Ref.first),
              R.AttribNames.refLabel(Ref.first, Ref.second),
              "disk" + std::to_string(D), ""};
          auto Emit = [&](const std::string &Category, double Joules) {
            if (Joules == 0.0)
              return;
            Frames.back() = Category;
            for (size_t I = 0; I != Frames.size(); ++I) {
              if (I)
                Out += ';';
              Out += Frames[I];
            }
            Out += ' ';
            Out += jsonNumber(Joules);
            Out += '\n';
          };
          Emit("active_read", L.ActiveReadJ);
          Emit("active_write", L.ActiveWriteJ);
          for (const auto &[Rpm, Joules] : L.IdleByRpmJ)
            Emit("idle@" + std::to_string(Rpm), Joules);
          Emit("spin_down", L.SpinDownJ);
          Emit("spin_up", L.SpinUpJ);
          Emit("standby", L.StandbyJ);
          Emit("rpm_step", L.RpmStepJ);
          Emit("ready_penalty", L.ReadyPenaltyJ);
        }
      }
    }
  }
  return Out;
}

/// A random attribution entry. Magnitudes span nine decades so that any
/// change in summation order shows in the last bits; about a third of the
/// categories are zero, which the flame exporter elides.
AttribEntry randomAttribEntry(std::mt19937_64 &Rng) {
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  auto J = [&] {
    if (Rng() % 3 == 0)
      return 0.0;
    return Unit(Rng) * std::pow(10.0, int(Rng() % 9) - 4);
  };
  static constexpr unsigned Rpms[] = {3600, 5400, 8400, 12000};
  AttribEntry E;
  E.BusyMs = J();
  E.ReadyDelayMs = J();
  E.NumRequests = Rng() % 50;
  E.Energy.ActiveReadJ = J();
  E.Energy.ActiveWriteJ = J();
  for (uint64_t K = Rng() % 4; K != 0; --K)
    E.Energy.addIdle(Rpms[Rng() % 4], J());
  E.Energy.SpinDownJ = J();
  E.Energy.SpinUpJ = J();
  E.Energy.StandbyJ = J();
  E.Energy.RpmStepJ = J();
  E.Energy.ReadyPenaltyJ = J();
  return E;
}

/// One disk's map of shape \p Shape: 0 empty, 1 unattributed only, 2
/// several nests x refs x rounds, 3 the same plus unattributed keys. Nest
/// ids run past the two named nests, so some labels fall back to
/// "(unattributed)" and "-".
AttributionMap randomAttributionMap(std::mt19937_64 &Rng, unsigned Shape) {
  AttributionMap M;
  if (Shape == 1 || Shape == 3) {
    M[AttribKey()] = randomAttribEntry(Rng);
    if (Rng() % 2) // A provenance-less key with a stray ref id.
      M[AttribKey{Provenance::None, uint32_t(Rng() % 3), 0}] =
          randomAttribEntry(Rng);
  }
  if (Shape >= 2) {
    for (uint64_t K = 1 + Rng() % 12; K != 0; --K) {
      AttribKey Key{uint32_t(Rng() % 5), uint32_t(Rng() % 4),
                    uint32_t(Rng() % 6)};
      M[Key] += randomAttribEntry(Rng);
    }
  }
  return M;
}

} // namespace

TEST(AttributionMapTest, HintedLookupKeepsKeysSortedAndUnique) {
  // Any hint, in range or past the end, finds the key's entry or inserts it
  // at its sorted position; the map must match an ordered-map oracle.
  std::mt19937_64 Rng(7);
  AttributionMap M;
  std::map<AttribKey, uint64_t> Oracle;
  size_t Hint = 0;
  for (unsigned I = 0; I != 4000; ++I) {
    AttribKey K{uint32_t(Rng() % 4), uint32_t(Rng() % 3),
                uint32_t(Rng() % 3)};
    if (Rng() % 8 == 0)
      K = AttribKey();
    if (Rng() % 4 == 0)
      Hint = size_t(Rng() % 48);
    Hint = M.indexOf(K, Hint);
    ASSERT_TRUE((M.begin() + ptrdiff_t(Hint))->first == K);
    ++M.entry(Hint).NumRequests;
    ++Oracle[K];
  }
  ASSERT_EQ(M.size(), Oracle.size());
  auto It = M.begin();
  for (const auto &[K, N] : Oracle) {
    EXPECT_TRUE(It->first == K);
    EXPECT_EQ(It->second.NumRequests, N);
    ++It;
  }
}

TEST(AttribFoldOracleTest, PerDiskViewsMatchRollupRendering) {
  AttributionNames Names;
  Names.Nests = {"s0", "s1"};
  Names.Refs = {{"A.r0", "C.r1"}, {"C.r0"}};
  for (unsigned Seed = 1; Seed != 41; ++Seed) {
    std::mt19937_64 Rng(Seed);
    AppResults App;
    App.Name = "oracle";
    for (Scheme S : {Scheme::Tpm, Scheme::TDrpmS}) {
      SchemeRun R;
      R.S = S;
      R.AttribNames = Names;
      R.Sim.AttributionEnabled = true;
      // The first four disks take every shape in order, the rest mix.
      R.Sim.PerDisk.resize(4 + Rng() % 4);
      for (size_t D = 0; D != R.Sim.PerDisk.size(); ++D)
        R.Sim.PerDisk[D].Attrib = randomAttributionMap(
            Rng, D < 4 ? unsigned(D) : unsigned(Rng() % 4));
      App.Runs.push_back(std::move(R));
    }
    // A run without attribution contributes nothing to the flame.
    App.Runs.push_back(SchemeRun());
    App.Runs.back().Sim.PerDisk.resize(2);

    for (size_t I = 0; I != 2; ++I) {
      JsonWriter Got, Want;
      writeAttributionSectionJson(Got, App.Runs[I]);
      oracleAttributionSection(Want, App.Runs[I]);
      ASSERT_EQ(Got.take(), Want.take()) << "seed " << Seed << " run " << I;
    }
    ASSERT_EQ(renderAttribFlame({App}), oracleFlame({App})) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// dra-diff-v1: per-nest deltas between two runs.
//===----------------------------------------------------------------------===//

TEST(AttribDiffTest, DiffNamesRestructuredNestsSortedByMagnitude) {
  Program P = pingPongProgram();
  PipelineConfig Cfg = paperConfig(1);
  Cfg.Disk.TpmBreakEvenS = 0.4;
  Cfg.Disk.SpinDownS = 0.05;
  Cfg.Disk.SpinUpS = 0.05;
  Cfg.Disk.SpinDownJ = 1.0;
  Cfg.Disk.SpinUpJ = 2.0;
  Pipeline Pipe(P, Cfg);
  AppResults App;
  App.Name = "pingpong";
  App.Runs.push_back(Pipe.run(Scheme::Tpm));
  App.Runs.push_back(Pipe.run(Scheme::TTpmS));

  std::string Json = renderRunReportJson(Cfg, {App}, "test");
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, Doc, Error)) << Error;

  ReportRecords Records;
  ASSERT_TRUE(readRunReport(Doc, "test", Records, Error)) << Error;
  const std::vector<ReportRun> &Views = Records.Runs;
  ASSERT_EQ(Views.size(), 2u);
  ASSERT_TRUE(Views[0].Attribution && Views[1].Attribution);

  // The report is the only document the nest view reads.
  JsonValue AttribDoc;
  ASSERT_TRUE(parseJson(R"({"schema":"dra-attrib-v1","apps":[]})", AttribDoc,
                        Error))
      << Error;
  ReportRecords Refused;
  EXPECT_FALSE(readRunReport(AttribDoc, "attrib", Refused, Error));
  EXPECT_EQ(Error, "attrib: not a dra-report-v1 document");

  AttribDiff D;
  ASSERT_TRUE(buildAttribDiff(Views, Views, "TPM", "T-TPM-s", D, Error))
      << Error;
  ASSERT_EQ(D.Apps.size(), 1u);
  const AppAttribDiff &A = D.Apps[0];
  EXPECT_EQ(A.SchemeA, "TPM");
  EXPECT_EQ(A.SchemeB, "T-TPM-s");
  ASSERT_GE(A.Nests.size(), 2u);
  // Sorted by |DeltaJ| descending, and the named nests appear.
  for (size_t I = 1; I < A.Nests.size(); ++I)
    EXPECT_GE(std::fabs(A.Nests[I - 1].DeltaJ), std::fabs(A.Nests[I].DeltaJ));
  bool SawS0 = false, SawS1 = false;
  double DeltaSum = 0.0;
  for (const AttribNestDelta &N : A.Nests) {
    SawS0 |= N.Label == "s0";
    SawS1 |= N.Label == "s1";
    DeltaSum += N.DeltaJ;
  }
  EXPECT_TRUE(SawS0);
  EXPECT_TRUE(SawS1);
  // Per-nest deltas stack to the total energy delta.
  EXPECT_TRUE(Closes(DeltaSum, A.TotalBJ - A.TotalAJ));

  // The rendered document carries the dra-diff-v1 schema and a row per
  // nest; the table names the nests.
  JsonValue DiffDoc;
  ASSERT_TRUE(parseJson(renderAttribDiffJson(D), DiffDoc, Error)) << Error;
  EXPECT_EQ(DiffDoc.find("schema")->Str, "dra-diff-v1");
  std::string Table = renderAttribDiffTable(D);
  EXPECT_NE(Table.find("s0"), std::string::npos);
  EXPECT_NE(Table.find("s1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Chrome-trace v2: service spans carry attribution args.
//===----------------------------------------------------------------------===//

TEST(ChromeTraceV2Test, ServiceSpansCarryProvenanceArgs) {
  Program P = pingPongProgram();
  PipelineConfig Cfg;
  EventTracer Tracer;
  Cfg.Trace = &Tracer;
  Pipeline Pipe(P, Cfg);
  (void)Pipe.run(Scheme::Base);

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Tracer.renderChromeTrace(), Doc, Error)) << Error;
  EXPECT_EQ(Doc.find("otherData")->find("schema")->Str, "dra-trace-chrome-v2");

  // Every disk service span names its originating nest/ref/round.
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  unsigned ServiceSpans = 0, WithProvenance = 0;
  for (const JsonValue &E : Events->Arr) {
    const JsonValue *Name = E.find("name");
    if (!Name || (Name->Str != "read" && Name->Str != "write"))
      continue;
    ++ServiceSpans;
    const JsonValue *Args = E.find("args");
    if (Args && Args->find("nest") && Args->find("ref") &&
        Args->find("round"))
      ++WithProvenance;
  }
  EXPECT_GT(ServiceSpans, 0u);
  EXPECT_EQ(WithProvenance, ServiceSpans);
}
