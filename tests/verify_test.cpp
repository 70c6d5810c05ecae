//===- tests/verify_test.cpp - verification subsystem tests ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The verifiers are the project's independent safety net: they must accept
// everything the real pipeline produces (positive/property tests over all
// seven schemes) and reject deliberately corrupted artifacts with the exact
// structured diagnostic (negative tests).
//
//===----------------------------------------------------------------------===//

#include "analysis/SymbolicFootprint.h"
#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "frontend/Parser.h"
#include "ir/ProgramBuilder.h"
#include "verify/IRVerifier.h"
#include "verify/LayoutVerifier.h"
#include "verify/ScheduleVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dra;

#ifndef DRA_SOURCE_DIR
#error "build must define DRA_SOURCE_DIR"
#endif

namespace {

Program smallStencil() {
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
  return B.build();
}

/// Engine + collector pair every test case uses.
struct DiagHarness {
  DiagnosticEngine DE;
  CollectingConsumer Diags;
  DiagHarness() { DE.addConsumer(&Diags); }
};

} // namespace

//===----------------------------------------------------------------------===//
// IRVerifier
//===----------------------------------------------------------------------===//

TEST(IRVerifierTest, AcceptsWellFormedPrograms) {
  DiagHarness H;
  Program P = smallStencil();
  EXPECT_TRUE(IRVerifier(P, H.DE).verify());
  EXPECT_FALSE(H.DE.hasErrors());
  EXPECT_EQ(H.Diags.countCheck("verified"), 1u);

  for (const AppUnderTest &A : paperApps(0.06)) {
    DiagHarness HA;
    Program App = A.Build();
    EXPECT_TRUE(IRVerifier(App, HA.DE).verify()) << A.Name;
  }
}

TEST(IRVerifierTest, RejectsDuplicateArrayName) {
  Program P("dup");
  P.addArray("A", {4});
  P.addArray("A", {4});
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("duplicate-array-name"), nullptr);
}

TEST(IRVerifierTest, RejectsNonPositiveArrayDim) {
  Program P("flat");
  P.addArray("A", {4, 0});
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("non-positive-array-dim"), nullptr);
}

TEST(IRVerifierTest, RejectsSubscriptArityMismatch) {
  Program P("arity");
  ArrayId A = P.addArray("A", {4, 4});
  LoopNest N(0, "n0");
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({A, AccessKind::Read, {iv(0)}}); // rank 2, one subscript
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  const Diagnostic *D = H.Diags.findCheck("subscript-arity");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Nest, 0);
}

TEST(IRVerifierTest, RejectsUnknownArray) {
  Program P("ghost");
  P.addArray("A", {4});
  LoopNest N(0, "n0");
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({ArrayId(7), AccessKind::Read, {iv(0)}});
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("unknown-array"), nullptr);
}

TEST(IRVerifierTest, RejectsBoundReferencingNonEnclosingIv) {
  Program P("bound");
  ArrayId A = P.addArray("A", {4, 4});
  LoopNest N(0, "n0");
  // Outermost loop's upper bound references its own induction variable.
  N.addLoop({AffineExpr(0), iv(0)});
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({A, AccessKind::Read, {iv(0), iv(1)}});
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("bound-depth"), nullptr);
}

TEST(IRVerifierTest, RejectsSubscriptReferencingDeeperIv) {
  Program P("deep");
  ArrayId A = P.addArray("A", {4});
  LoopNest N(0, "n0");
  N.addLoop({AffineExpr(0), AffineExpr(4)});
  N.addAccess({A, AccessKind::Read, {iv(2)}}); // nest depth is 1
  P.addNest(std::move(N));
  DiagHarness H;
  EXPECT_FALSE(IRVerifier(P, H.DE).verify());
  ASSERT_NE(H.Diags.findCheck("subscript-depth"), nullptr);
}

TEST(IRVerifierTest, WarnsOnEmptyNest) {
  ProgramBuilder B("empty");
  ArrayId A = B.addArray("A", {4});
  B.beginNest("n0", 1.0).loop(0, 0).read(A, {iv(0)}).endNest();
  Program P = B.build();
  DiagHarness H;
  // Warnings do not fail verification.
  EXPECT_TRUE(IRVerifier(P, H.DE).verify());
  EXPECT_FALSE(H.DE.hasErrors());
  ASSERT_NE(H.Diags.findCheck("empty-nest"), nullptr);
  EXPECT_EQ(H.Diags.findCheck("empty-nest")->severity(),
            DiagSeverity::Warning);
}

//===----------------------------------------------------------------------===//
// LayoutVerifier
//===----------------------------------------------------------------------===//

TEST(LayoutVerifierTest, AcceptsPaperLayout) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
  EXPECT_FALSE(H.DE.hasErrors());
  EXPECT_EQ(H.Diags.countCheck("verified"), 1u);
}

TEST(LayoutVerifierTest, AcceptsArrayStartDiskOverrides) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  L.setArrayStartDisk(0, 3);
  L.setArrayStartDisk(1, 5);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
}

TEST(LayoutVerifierTest, AcceptsRaidSubStriping) {
  Program P = smallStencil();
  StripingConfig C = paperConfig(1).Striping;
  C.DisksPerNode = 4;
  DiskLayout L(P, C);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
}

TEST(LayoutVerifierTest, AcceptsNonStripeUnitTiles) {
  Program P = smallStencil();
  StripingConfig C = paperConfig(1).Striping;
  // Tiles spanning two stripe units: tile-spans-disks must NOT fire.
  DiskLayout L(P, C, 2 * C.StripeUnitBytes);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verify());
}

TEST(LayoutVerifierTest, RejectsBadConfigs) {
  {
    DiagHarness H;
    StripingConfig C;
    C.StripeFactor = 0;
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("zero-stripe-factor"), nullptr);
  }
  {
    DiagHarness H;
    StripingConfig C;
    C.StripeUnitBytes = 0;
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("zero-stripe-unit"), nullptr);
  }
  {
    DiagHarness H;
    StripingConfig C;
    C.StartDisk = 8; // == StripeFactor
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("start-disk-out-of-range"), nullptr);
  }
  {
    DiagHarness H;
    StripingConfig C;
    C.DisksPerNode = 0;
    EXPECT_FALSE(LayoutVerifier::verifyConfig(C, H.DE));
    ASSERT_NE(H.Diags.findCheck("zero-disks-per-node"), nullptr);
  }
  {
    DiagHarness H;
    EXPECT_TRUE(LayoutVerifier::verifyConfig(StripingConfig(), H.DE));
    EXPECT_EQ(H.DE.total(), 0u);
  }
}

namespace {

/// The fragments verify() checks: the whole laid-out space, split.
std::vector<SubRequest> wholeSplit(const DiskLayout &L) {
  return L.splitRequest(0, L.totalBytes());
}

} // namespace

TEST(LayoutVerifierTest, FragmentChecksAcceptTheRealSplit) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  L.setArrayStartDisk(1, 5);
  std::vector<SubRequest> Frags = wholeSplit(L);
  DiagHarness H;
  EXPECT_TRUE(LayoutVerifier(P, L, H.DE).verifyFragments(Frags));
  EXPECT_EQ(H.DE.total(), 0u);

  // A disk's ranges may arrive out of order; sorted, they still tile it.
  // Fragments 1 and 9 are disk 1's first two stripe units.
  ASSERT_EQ(Frags[1].Disk, Frags[9].Disk);
  std::swap(Frags[1].DiskByteOffset, Frags[9].DiskByteOffset);
  DiagHarness H2;
  EXPECT_TRUE(LayoutVerifier(P, L, H2.DE).verifyFragments(Frags));
  EXPECT_EQ(H2.DE.total(), 0u);
}

TEST(LayoutVerifierTest, RejectsFragmentOffTheLayout) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  std::vector<SubRequest> Frags = wholeSplit(L);
  Frags[3].Disk = 99;
  DiagHarness H;
  EXPECT_FALSE(LayoutVerifier(P, L, H.DE).verifyFragments(Frags));
  const Diagnostic *D = H.Diags.findCheck("disk-out-of-range");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Disk, 99);
  EXPECT_NE(D->message().find("I/O node 99"), std::string::npos);
  EXPECT_EQ(H.DE.total(), 1u);
}

TEST(LayoutVerifierTest, RejectsSplitThatMissesBytes) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  std::vector<SubRequest> Frags = wholeSplit(L);
  Frags.pop_back();
  DiagHarness H;
  EXPECT_FALSE(LayoutVerifier(P, L, H.DE).verifyFragments(Frags));
  const Diagnostic *D = H.Diags.findCheck("coverage-gap");
  ASSERT_NE(D, nullptr);
  uint64_t Total = L.totalBytes();
  EXPECT_NE(D->message().find(std::to_string(Total - L.tileBytes()) +
                              " of " + std::to_string(Total)),
            std::string::npos);
  EXPECT_EQ(H.DE.total(), 1u);
}

TEST(LayoutVerifierTest, RejectsOverlappingFragments) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  std::vector<SubRequest> Frags = wholeSplit(L);
  // Disk 1's first unit moves half a unit into its second: the ranges
  // arrive out of order and overlap once sorted.
  ASSERT_EQ(Frags[1].Disk, 1u);
  ASSERT_EQ(Frags[9].DiskByteOffset, L.tileBytes());
  Frags[1].DiskByteOffset = L.tileBytes() + L.tileBytes() / 2;
  DiagHarness H;
  EXPECT_FALSE(LayoutVerifier(P, L, H.DE).verifyFragments(Frags));
  const Diagnostic *D = H.Diags.findCheck("fragment-overlap");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Disk, 1);
  EXPECT_NE(D->message().find("I/O node 1 byte ranges [" +
                              std::to_string(L.tileBytes())),
            std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("disk-out-of-range"), 0u);
  EXPECT_EQ(H.Diags.countCheck("coverage-gap"), 0u);
  EXPECT_EQ(H.Diags.countCheck("stripe-rotation"), 0u);
}

TEST(LayoutVerifierTest, RejectsBrokenStripeRotation) {
  Program P = smallStencil();
  DiskLayout L(P, paperConfig(1).Striping);
  L.setArrayStartDisk(1, 5);
  std::vector<SubRequest> Frags = wholeSplit(L);
  // Stripe unit 2 of array C (the second file), which round-robin from
  // iodevice 5 puts on node 7, moves to node 0 at a free device offset.
  size_t CUnit2 = size_t(L.fileBase(1) / L.tileBytes()) + 2;
  ASSERT_EQ(Frags[CUnit2].Disk, 7u);
  Frags[CUnit2].Disk = 0;
  Frags[CUnit2].DiskByteOffset = L.totalBytes();
  DiagHarness H;
  EXPECT_FALSE(LayoutVerifier(P, L, H.DE).verifyFragments(Frags));
  const Diagnostic *D = H.Diags.findCheck("stripe-rotation");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->message(), "stripe unit 2 of array 'C' lives on I/O node 0 "
                          "but round-robin from starting iodevice 5 requires "
                          "node 7");
  EXPECT_EQ(H.DE.total(), 1u);
}

TEST(ScheduleVerifierTest, RejectsFootprintOfAnotherLayout) {
  // The footprint's per-disk demand was derived for 144-tile arrays
  // striped over 8 I/O nodes (18 tiles each); the verifier's layout
  // stripes them over 5.
  Program P = smallStencil();
  IterationSpace Space(P);
  StripingConfig C = paperConfig(1).Striping;
  DiskLayout Claimed(P, C);
  C.StripeFactor = 5;
  DiskLayout Actual(P, C);
  SymbolicFootprint FP(P, Claimed);

  DiagHarness Clean;
  EXPECT_TRUE(
      ScheduleVerifier(P, Space, Claimed, Clean.DE).verifyFootprint(FP));
  DiagHarness H;
  EXPECT_FALSE(ScheduleVerifier(P, Space, Actual, H.DE).verifyFootprint(FP));
  const Diagnostic *D = H.Diags.findCheck("footprint-demand-mismatch");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("claims 18 tiles on disk 0"), std::string::npos);
  EXPECT_NE(D->message().find("recount gives 29"), std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("footprint-count-mismatch"), 0u);
  EXPECT_EQ(H.Diags.countCheck("footprint-iterations-mismatch"), 0u);
}

TEST(ScheduleVerifierTest, RejectsFootprintOfAnotherSpace) {
  // The footprint of the 12x12 stencil checked against the same program
  // shape over 6x6 iterations: iteration and distinct-tile counts differ.
  Program Big = smallStencil();
  DiskLayout BigLayout(Big, paperConfig(1).Striping);
  SymbolicFootprint FP(Big, BigLayout);

  ProgramBuilder B("small");
  ArrayId A = B.addArray("A", {12, 12});
  ArrayId C = B.addArray("C", {12, 12});
  B.beginNest("s0", 1.5)
      .loop(0, 6)
      .loop(0, 6)
      .read(A, {iv(0), iv(1)})
      .write(C, {iv(0), iv(1)})
      .endNest();
  B.beginNest("s1", 1.5)
      .loop(0, 6)
      .loop(0, 6)
      .read(C, {iv(1), iv(0)})
      .write(A, {iv(0), iv(1)})
      .endNest();
  Program Small = B.build();
  IterationSpace Space(Small);
  DiskLayout Layout(Small, paperConfig(1).Striping);

  DiagHarness H;
  ScheduleVerifier SV(Small, Space, Layout, H.DE);
  EXPECT_FALSE(SV.verifyFootprint(FP));
  const Diagnostic *I = H.Diags.findCheck("footprint-iterations-mismatch");
  ASSERT_NE(I, nullptr);
  EXPECT_NE(I->message().find("claims 144 iterations symbolically but the "
                              "iteration space holds 36"),
            std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("footprint-iterations-mismatch"), 2u);
  const Diagnostic *N = H.Diags.findCheck("footprint-count-mismatch");
  ASSERT_NE(N, nullptr);
  EXPECT_NE(N->message().find("claims 144 distinct tiles"), std::string::npos);
  EXPECT_NE(N->message().find("recount gives 36"), std::string::npos);
  EXPECT_EQ(H.Diags.countCheck("footprint-count-mismatch"), 4u);
}

//===----------------------------------------------------------------------===//
// ScheduleVerifier — positive and corruption tests
//===----------------------------------------------------------------------===//

namespace {

/// Compiled context for schedule checks.
struct Compiled {
  Program P;
  Pipeline Pipe;
  DiagHarness H;

  explicit Compiled(unsigned Procs, Program Prog = smallStencil())
      : P(std::move(Prog)), Pipe(P, paperConfig(Procs)) {}

  ScheduleVerifier verifier() {
    return ScheduleVerifier(P, Pipe.space(), Pipe.layout(), H.DE);
  }
};

} // namespace

TEST(ScheduleVerifierTest, AcceptsIdentityOrder) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::Base);
  ScheduleVerifier SV = C.verifier();
  EXPECT_TRUE(SV.verifyWork(W));
  EXPECT_FALSE(C.H.DE.hasErrors());
  EXPECT_EQ(C.H.Diags.countCheck("verified"), 1u);
}

TEST(ScheduleVerifierTest, RejectsDuplicatedIteration) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);
  // Corrupt: position 5 repeats the iteration at position 0.
  GlobalIter Dup = W.PerProc[0][0];
  GlobalIter Lost = W.PerProc[0][5];
  W.PerProc[0][5] = Dup;

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("duplicate-iteration");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->severity(), DiagSeverity::Error);
  // The diagnostic names the offending iteration, structurally and in text.
  EXPECT_EQ(D->location().Iter, int64_t(Dup));
  EXPECT_NE(D->message().find(std::to_string(Dup)), std::string::npos);
  // The overwritten iteration is reported missing.
  const Diagnostic *M = C.H.Diags.findCheck("missing-iteration");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->location().Iter, int64_t(Lost));
  // No legality remark for a corrupt schedule.
  EXPECT_EQ(C.H.Diags.countCheck("verified"), 0u);
}

TEST(ScheduleVerifierTest, RejectsDroppedIteration) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);
  GlobalIter Dropped = W.PerProc[0].back();
  W.PerProc[0].pop_back();

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("missing-iteration");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->location().Iter, int64_t(Dropped));
  EXPECT_NE(D->message().find(std::to_string(Dropped)), std::string::npos);
  EXPECT_EQ(C.H.Diags.countCheck("duplicate-iteration"), 0u);
}

TEST(ScheduleVerifierTest, RejectsDependenceInvertingSwap) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);

  // Find a dependence edge u -> v and swap their schedule positions.
  IterationGraph G(C.P, C.Pipe.space());
  GlobalIter U = 0, V = 0;
  bool Found = false;
  for (GlobalIter I = 0; I != GlobalIter(C.Pipe.space().size()) && !Found;
       ++I) {
    if (!G.succs(I).empty()) {
      U = I;
      V = G.succs(I).front();
      Found = true;
    }
  }
  ASSERT_TRUE(Found) << "test program must have dependences";
  auto &Order = W.PerProc[0];
  auto PosU = std::find(Order.begin(), Order.end(), U);
  auto PosV = std::find(Order.begin(), Order.end(), V);
  ASSERT_NE(PosU, Order.end());
  ASSERT_NE(PosV, Order.end());
  std::iter_swap(PosU, PosV);

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("dependence-violation");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->severity(), DiagSeverity::Error);
  // Names both the dependent and the source iteration.
  EXPECT_EQ(D->location().Iter, int64_t(V));
  EXPECT_NE(D->message().find(std::to_string(U)), std::string::npos);
  EXPECT_NE(D->message().find(std::to_string(V)), std::string::npos);
  // The swap preserved the permutation, so only legality fails.
  EXPECT_EQ(C.H.Diags.countCheck("duplicate-iteration"), 0u);
  EXPECT_EQ(C.H.Diags.countCheck("missing-iteration"), 0u);
}

TEST(ScheduleVerifierTest, RejectsCrossProcessorDependenceWithoutBarrier) {
  Compiled C(1);
  // Hand-build a two-processor split with nest s1 (which depends on s0's
  // writes) on its own processor but no separating barrier phase.
  const IterationSpace &Space = C.Pipe.space();
  ScheduledWork W;
  W.PerProc.resize(2);
  for (GlobalIter G = Space.nestBegin(0); G != Space.nestEnd(0); ++G)
    W.PerProc[0].push_back(G);
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PerProc[1].push_back(G);
  W.PhaseOf.assign(Space.size(), 0); // everything in one phase: illegal

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  const Diagnostic *D = C.H.Diags.findCheck("barrier-violation");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("not separated by a barrier"),
            std::string::npos);

  // The same split with s1 in a later phase is legal.
  DiagHarness H2;
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PhaseOf[G] = 1;
  ScheduleVerifier SV2(C.P, Space, C.Pipe.layout(), H2.DE);
  EXPECT_TRUE(SV2.verifyWork(W));
}

TEST(ScheduleVerifierTest, RejectsPhaseRegression) {
  Compiled C(1);
  const IterationSpace &Space = C.Pipe.space();
  ScheduledWork W;
  W.PerProc.resize(1);
  // Nest s1 (phase 1) scheduled before nest s0 (phase 0) on one processor.
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PerProc[0].push_back(G);
  for (GlobalIter G = Space.nestBegin(0); G != Space.nestEnd(0); ++G)
    W.PerProc[0].push_back(G);
  W.PhaseOf.assign(Space.size(), 0);
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    W.PhaseOf[G] = 1;

  ScheduleVerifier SV = C.verifier();
  EXPECT_FALSE(SV.verifyWork(W));
  ASSERT_NE(C.H.Diags.findCheck("phase-regression"), nullptr);
}

TEST(ScheduleVerifierTest, LocalityRecountMatchesAndDetectsCorruption) {
  Compiled C(1);
  ScheduledWork W = C.Pipe.compile(Scheme::TTpmS);
  Schedule S;
  S.Order = W.PerProc[0];
  ScheduleLocality L = S.locality(C.Pipe.table(), C.Pipe.layout());

  ScheduleVerifier SV = C.verifier();
  EXPECT_TRUE(SV.verifyLocality(S, L));
  EXPECT_FALSE(C.H.DE.hasErrors());

  ScheduleLocality Bad = L;
  Bad.DiskSwitches += 1;
  EXPECT_FALSE(SV.verifyLocality(S, Bad));
  const Diagnostic *D = C.H.Diags.findCheck("locality-mismatch");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("DiskSwitches"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Property tests: everything the pipeline emits verifies clean
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifierTest, AllSchemesVerifyCleanOnStencil) {
  for (unsigned Procs : {1u, 4u}) {
    Compiled C(Procs);
    ScheduleVerifier SV = C.verifier();
    for (Scheme S : allSchemes()) {
      ScheduledWork W = C.Pipe.compile(S);
      EXPECT_TRUE(SV.verifyWork(W))
          << schemeName(S) << " with " << Procs << " procs";
    }
    EXPECT_FALSE(C.H.DE.hasErrors());
  }
}

TEST(ScheduleVerifierTest, AllSchemesVerifyCleanOnPaperApps) {
  for (const AppUnderTest &A : paperApps(0.06)) {
    for (unsigned Procs : {1u, 4u}) {
      Compiled C(Procs, A.Build());
      ScheduleVerifier SV = C.verifier();
      for (Scheme S : allSchemes()) {
        ScheduledWork W = C.Pipe.compile(S);
        EXPECT_TRUE(SV.verifyWork(W))
            << A.Name << ", " << schemeName(S) << ", " << Procs << " procs";
      }
      EXPECT_FALSE(C.H.DE.hasErrors()) << A.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

TEST(PipelineVerifyTest, FullVerifyRunsCleanAcrossSchemes) {
  for (unsigned Procs : {1u, 4u}) {
    Program P = smallStencil();
    PipelineConfig Cfg = paperConfig(Procs);
    Cfg.Verify = VerifyLevel::Full;
    Pipeline Pipe(P, Cfg);
    for (Scheme S : allSchemes())
      EXPECT_NO_THROW(Pipe.run(S)) << schemeName(S);
    EXPECT_FALSE(Pipe.diags().hasErrors());
    // IR + layout remarks from construction, schedule remarks per compile.
    EXPECT_GE(Pipe.collectedDiags().countCheck("verified"), 3u);
  }
}

TEST(PipelineVerifyTest, CheapVerifyRunsClean) {
  Program P = smallStencil();
  PipelineConfig Cfg = paperConfig(2);
  Cfg.Verify = VerifyLevel::Cheap;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : allSchemes())
    EXPECT_NO_THROW(Pipe.run(S));
  EXPECT_FALSE(Pipe.diags().hasErrors());
}

TEST(PipelineVerifyTest, ConstructorRejectsMalformedProgram) {
  Program P("bad");
  P.addArray("A", {4});
  P.addArray("A", {4}); // duplicate name
  PipelineConfig Cfg = paperConfig(1);
  Cfg.Verify = VerifyLevel::Cheap;
  EXPECT_THROW(
      {
        Pipeline Pipe(P, Cfg);
      },
      VerificationError);
  try {
    Pipeline Pipe(P, Cfg);
  } catch (const VerificationError &E) {
    EXPECT_EQ(E.stage(), "ir");
    EXPECT_NE(std::string(E.what()).find("duplicate-array-name"),
              std::string::npos);
  }
}

TEST(PipelineVerifyTest, ShippedProgramsVerifyFullAcrossSchemes) {
  for (const char *Name : {"demo.dra", "stencil.dra", "triangular.dra"}) {
    std::string Error;
    auto P = Parser::parseFile(
        std::string(DRA_SOURCE_DIR) + "/examples/programs/" + Name, Error);
    ASSERT_TRUE(P.has_value()) << Name << ": " << Error;
    for (unsigned Procs : {1u, 4u}) {
      PipelineConfig Cfg;
      Cfg.NumProcs = Procs;
      Cfg.Verify = VerifyLevel::Full;
      Pipeline Pipe(*P, Cfg);
      for (Scheme S : allSchemes())
        EXPECT_NO_THROW(Pipe.compile(S))
            << Name << ", " << schemeName(S) << ", " << Procs << " procs";
      EXPECT_FALSE(Pipe.diags().hasErrors()) << Name;
    }
  }
}
