//===- tests/footprint_test.cpp - SymbolicFootprint differential suite ----===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The analysis's contract is differential: whatever tier derives a
// reference's footprint, the distinct-tile count and per-disk demand must
// equal what brute-force enumeration of the iteration space (the
// TileAccessTable oracle) produces — exactly, never within a tolerance.
// This suite checks that contract on the six paper apps, on randomized
// affine programs across striping configurations, and on irregular
// references forced down the fallback path by shrunken work budgets.
//
//===----------------------------------------------------------------------===//

#include "analysis/SymbolicFootprint.h"
#include "apps/Apps.h"
#include "ir/ProgramBuilder.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace dra;

namespace {

struct RefOracle {
  std::set<int64_t> Tiles;
  std::vector<uint64_t> Demand;
};

struct NestOracle {
  uint64_t Iterations = 0;
  std::vector<RefOracle> Refs;
};

/// Brute-force ground truth: full enumeration, one tile set per reference.
std::vector<NestOracle> oracleOf(const Program &P, const DiskLayout &L) {
  std::vector<NestOracle> Nests;
  for (const LoopNest &Nest : P.nests()) {
    NestOracle NO;
    NO.Refs.resize(Nest.accesses().size());
    std::vector<int64_t> Coord;
    Nest.forEachIteration([&](const IterVec &Iter) {
      ++NO.Iterations;
      for (size_t R = 0; R != Nest.accesses().size(); ++R) {
        const ArrayAccess &Acc = Nest.accesses()[R];
        LoopNest::evalSubscriptsInto(Acc, Iter, Coord);
        NO.Refs[R].Tiles.insert(P.array(Acc.Array).linearTile(Coord));
      }
    });
    for (size_t R = 0; R != Nest.accesses().size(); ++R) {
      RefOracle &RO = NO.Refs[R];
      RO.Demand.assign(L.numDisks(), 0);
      ArrayId A = Nest.accesses()[R].Array;
      for (int64_t T : RO.Tiles)
        ++RO.Demand[L.primaryDiskOfTile({A, T})];
    }
    Nests.push_back(std::move(NO));
  }
  return Nests;
}

/// Every count the analysis reports must equal the oracle exactly; when a
/// run decomposition claims exactness it must cover precisely the oracle's
/// tile set with no duplicates.
void expectMatchesOracle(const SymbolicFootprint &FP,
                         const std::vector<NestOracle> &Oracle,
                         const std::string &Tag) {
  ASSERT_EQ(FP.nests().size(), Oracle.size()) << Tag;
  for (size_t N = 0; N != Oracle.size(); ++N) {
    const NestFootprint &NF = FP.nests()[N];
    const NestOracle &NO = Oracle[N];
    EXPECT_EQ(NF.Iterations, NO.Iterations) << Tag << " nest " << N;
    ASSERT_EQ(NF.Refs.size(), NO.Refs.size()) << Tag << " nest " << N;
    for (size_t R = 0; R != NO.Refs.size(); ++R) {
      const RefFootprint &RF = NF.Refs[R];
      const RefOracle &RO = NO.Refs[R];
      std::string Where = Tag + " nest " + std::to_string(N) + " ref " +
                          std::to_string(R) + " (" +
                          footprintMethodName(RF.Method) + ")";
      EXPECT_EQ(RF.DistinctTiles, RO.Tiles.size()) << Where;
      EXPECT_EQ(RF.PerDiskDemand, RO.Demand) << Where;
      if (RF.RunsExact) {
        std::set<int64_t> Covered;
        uint64_t Total = 0;
        for (const StridedRange &Run : RF.TileRuns) {
          Total += Run.Count;
          for (uint64_t K = 0; K != Run.Count; ++K)
            Covered.insert(Run.at(K));
        }
        EXPECT_EQ(Total, Covered.size()) << Where << ": runs not disjoint";
        EXPECT_EQ(Covered, RO.Tiles) << Where << ": runs miss the oracle set";
      }
    }
    // Overlap report: exact entries equal the set intersection; estimates
    // must be upper bounds.
    for (const RefOverlap &O : NF.Overlaps) {
      std::vector<int64_t> Shared;
      std::set_intersection(NO.Refs[O.RefA].Tiles.begin(),
                            NO.Refs[O.RefA].Tiles.end(),
                            NO.Refs[O.RefB].Tiles.begin(),
                            NO.Refs[O.RefB].Tiles.end(),
                            std::back_inserter(Shared));
      if (O.Exact)
        EXPECT_EQ(O.SharedTiles, Shared.size())
            << Tag << " nest " << N << " overlap " << O.RefA << "," << O.RefB;
      else
        EXPECT_GE(O.SharedTiles, Shared.size())
            << Tag << " nest " << N << " overlap " << O.RefA << "," << O.RefB;
    }
  }
}

/// Runs both modes, with and without a table, against the oracle.
void checkAllModes(const Program &P, const DiskLayout &L,
                   const std::string &Tag,
                   const FootprintBudgets &Budgets = {}) {
  std::vector<NestOracle> Oracle = oracleOf(P, L);

  SymbolicFootprint Sym(P, L, FootprintMode::Auto, nullptr, Budgets);
  expectMatchesOracle(Sym, Oracle, Tag + "/table-free");

  SymbolicFootprint Enu(P, L, FootprintMode::Enumerated, nullptr, Budgets);
  expectMatchesOracle(Enu, Oracle, Tag + "/enumerated");
  EXPECT_EQ(Enu.numFallbackRefs(), Enu.numRefs()) << Tag;

  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  SymbolicFootprint Auto(P, L, FootprintMode::Auto, &Table, Budgets);
  expectMatchesOracle(Auto, Oracle, Tag + "/auto");

  SymbolicFootprint EnuT(P, L, FootprintMode::Enumerated, &Table, Budgets);
  expectMatchesOracle(EnuT, Oracle, Tag + "/enumerated+table");

  // The per-array distinct counts the table reports are a program-level
  // cross-check on the per-reference sets (union over refs).
  for (ArrayId A = 0; A != P.arrays().size(); ++A) {
    std::set<int64_t> Union;
    for (size_t N = 0; N != Oracle.size(); ++N)
      for (size_t R = 0; R != Oracle[N].Refs.size(); ++R)
        if (P.nest(NestId(N)).accesses()[R].Array == A)
          Union.insert(Oracle[N].Refs[R].Tiles.begin(),
                       Oracle[N].Refs[R].Tiles.end());
    EXPECT_EQ(Table.numDistinctTilesOfArray(A), Union.size()) << Tag;
  }
}

StripingConfig makeConfig(unsigned Factor, unsigned StartDisk,
                          uint64_t StripeUnit = 4096) {
  StripingConfig C;
  C.StripeUnitBytes = StripeUnit;
  C.StripeFactor = Factor;
  C.StartDisk = StartDisk;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-built shapes
//===----------------------------------------------------------------------===//

TEST(FootprintTest, RectangularSeparableIsClosedForm) {
  ProgramBuilder B("rect");
  ArrayId U = B.addArray("U", {8, 10});
  B.beginNest("n0")
      .loop(0, 8)
      .loop(0, 10)
      .read(U, {iv(0), iv(1)})
      .write(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  DiskLayout L(P, makeConfig(4, 0));

  SymbolicFootprint FP(P, L);
  EXPECT_EQ(FP.numClosedFormRefs(), 2u);
  EXPECT_EQ(FP.numFallbackRefs(), 0u);
  EXPECT_EQ(FP.symbolicCoverage(), 1.0);
  EXPECT_EQ(FP.nests()[0].Refs[0].DistinctTiles, 80u);
  // Both refs touch the same tiles: one exact overlap entry of 80.
  ASSERT_EQ(FP.nests()[0].Overlaps.size(), 1u);
  EXPECT_TRUE(FP.nests()[0].Overlaps[0].Exact);
  EXPECT_EQ(FP.nests()[0].Overlaps[0].SharedTiles, 80u);
  checkAllModes(P, L, "rect");
}

TEST(FootprintTest, StridedAndReversedSubscripts) {
  // Column-major style access (stride = row length), a broadcast row, and a
  // reversed (negative-coefficient) traversal.
  ProgramBuilder B("strided");
  ArrayId U = B.addArray("U", {6, 9});
  ArrayId V = B.addArray("V", {54});
  B.beginNest("n0")
      .loop(0, 6)
      .loop(0, 9)
      .read(U, {iv(0), iv(1)})
      .read(U, {AffineExpr::constant(3), iv(1)})
      .write(V, {iv(0) * 9 + iv(1)})
      .read(V, {iv(0) * -9 + (iv(1) * -1) + 53}) // full reversal
      .endNest();
  Program P = B.build();
  for (unsigned Factor : {1u, 3u, 8u})
    checkAllModes(P, DiskLayout(P, makeConfig(Factor, Factor / 2)),
                  "strided/f" + std::to_string(Factor));
}

TEST(FootprintTest, TriangularNestIsRowSymbolic) {
  // Cholesky-style lower-triangular sweep: bounds reference the outer iv.
  ProgramBuilder B("tri");
  ArrayId Lo = B.addArray("L", {12, 12});
  B.beginNest("n0")
      .loop(0, 12)
      .loop(AffineExpr::constant(0), iv(0) + 1)
      .read(Lo, {iv(0), iv(1)})
      .write(Lo, {iv(1), iv(0)})
      .endNest();
  Program P = B.build();
  DiskLayout L(P, makeConfig(4, 1));

  SymbolicFootprint FP(P, L);
  EXPECT_EQ(FP.numRowSymbolicRefs(), 2u);
  EXPECT_EQ(FP.numFallbackRefs(), 0u);
  // Triangular footprint: n(n+1)/2 distinct tiles per ref.
  EXPECT_EQ(FP.nests()[0].Refs[0].DistinctTiles, 78u);
  EXPECT_EQ(FP.nests()[0].Refs[1].DistinctTiles, 78u);
  checkAllModes(P, L, "tri");
}

TEST(FootprintTest, DiagonalAndSkewedReferences) {
  // Non-separable affine shapes: the diagonal L[i][i], the skew A[i+j], and
  // a mixed-iv subscript pair — tier 2 territory, never fallback.
  ProgramBuilder B("diag");
  ArrayId M = B.addArray("M", {10, 10});
  ArrayId S = B.addArray("S", {19});
  B.beginNest("n0")
      .loop(0, 10)
      .loop(0, 10)
      .read(M, {iv(0), iv(0)})
      .write(S, {iv(0) + iv(1)})
      .read(M, {iv(1), iv(0)})
      .endNest();
  Program P = B.build();
  DiskLayout L(P, makeConfig(4, 0));
  SymbolicFootprint FP(P, L);
  EXPECT_EQ(FP.numFallbackRefs(), 0u);
  EXPECT_EQ(FP.nests()[0].Refs[0].DistinctTiles, 10u); // the diagonal
  EXPECT_EQ(FP.nests()[0].Refs[1].DistinctTiles, 19u); // anti-diagonal sweep
  checkAllModes(P, L, "diag");
}

TEST(FootprintTest, EmptyAndDegenerateNests) {
  ProgramBuilder B("empty");
  ArrayId U = B.addArray("U", {4});
  B.beginNest("zero").loop(3, 3).read(U, {iv(0)}).endNest();
  B.beginNest("inverted").loop(5, 2).read(U, {iv(0)}).endNest();
  B.beginNest("single").loop(2, 3).write(U, {iv(0)}).endNest();
  Program P = B.build();
  DiskLayout L(P, makeConfig(2, 0));
  SymbolicFootprint FP(P, L);
  EXPECT_EQ(FP.nests()[0].Iterations, 0u);
  EXPECT_EQ(FP.nests()[0].Refs[0].DistinctTiles, 0u);
  EXPECT_EQ(FP.nests()[1].Iterations, 0u);
  EXPECT_EQ(FP.nests()[2].Refs[0].DistinctTiles, 1u);
  checkAllModes(P, L, "empty");
}

TEST(FootprintTest, PerArrayStartDiskAndWideTiles) {
  // Per-array starting iodevice (the layout optimizer's knob) and tiles
  // spanning multiple stripe units (Mul > 1 in the affine disk map).
  ProgramBuilder B("layout");
  ArrayId U = B.addArray("U", {7, 5});
  ArrayId V = B.addArray("V", {9});
  B.beginNest("n0")
      .loop(0, 7)
      .loop(0, 5)
      .read(U, {iv(0), iv(1)})
      .write(V, {iv(0) + 1})
      .endNest();
  Program P = B.build();
  for (uint64_t TileBytes : {uint64_t(0), uint64_t(2) * 4096}) {
    DiskLayout L(P, makeConfig(4, 0), TileBytes);
    L.setArrayStartDisk(0, 3);
    L.setArrayStartDisk(1, 1);
    checkAllModes(P, L, "layout/tb" + std::to_string(TileBytes));
  }
}

//===----------------------------------------------------------------------===//
// Forced fallback (shrunken budgets)
//===----------------------------------------------------------------------===//

TEST(FootprintTest, ShrunkenBudgetsForceFallbackAndStillAgree) {
  ProgramBuilder B("forced");
  ArrayId M = B.addArray("M", {14, 14});
  B.beginNest("tri")
      .loop(0, 14)
      .loop(AffineExpr::constant(0), iv(0) + 1)
      .read(M, {iv(0), iv(1)})
      .read(M, {iv(1), iv(1)}) // diagonal: conflicts with the row sweep
      .endNest();
  Program P = B.build();
  DiskLayout L(P, makeConfig(4, 0));

  FootprintBudgets Tiny;
  Tiny.OuterRows = 2; // below the 14 outer rows: tier 2 must demote
  Tiny.Points = 4;
  Tiny.CrossPairs = 1;
  Tiny.FoldWidth = 1;
  Tiny.StoredRuns = 2;

  SymbolicFootprint FP(P, L, FootprintMode::Auto, nullptr, Tiny);
  EXPECT_EQ(FP.numFallbackRefs(), FP.numRefs());
  EXPECT_EQ(FP.symbolicCoverage(), 0.0);
  checkAllModes(P, L, "forced", Tiny);

  // Same program, default budgets: fully symbolic and identical.
  SymbolicFootprint Full(P, L);
  EXPECT_EQ(Full.numFallbackRefs(), 0u);
  ASSERT_EQ(Full.nests().size(), FP.nests().size());
  for (size_t N = 0; N != Full.nests().size(); ++N)
    for (size_t R = 0; R != Full.nests()[N].Refs.size(); ++R) {
      EXPECT_EQ(Full.nests()[N].Refs[R].DistinctTiles,
                FP.nests()[N].Refs[R].DistinctTiles);
      EXPECT_EQ(Full.nests()[N].Refs[R].PerDiskDemand,
                FP.nests()[N].Refs[R].PerDiskDemand);
    }
}

//===----------------------------------------------------------------------===//
// The six paper applications
//===----------------------------------------------------------------------===//

TEST(FootprintTest, PaperAppsMatchOracleExactly) {
  for (const AppUnderTest &A : paperApps(0.06)) {
    Program P = A.Build();
    DiskLayout L(P, StripingConfig{});
    checkAllModes(P, L, A.Name);
    // Every paper-app reference is affine: the symbolic path must cover
    // all of them without enumeration.
    SymbolicFootprint FP(P, L);
    EXPECT_EQ(FP.numFallbackRefs(), 0u) << A.Name;
    EXPECT_EQ(FP.symbolicCoverage(), 1.0) << A.Name;
  }
}

TEST(FootprintTest, PaperAppsAcrossStripeFactors) {
  for (const AppUnderTest &A : paperApps(0.06)) {
    Program P = A.Build();
    for (unsigned Factor : {2u, 5u, 16u})
      checkAllModes(P, DiskLayout(P, makeConfig(Factor, Factor - 1, 32768)),
                    A.Name + "/f" + std::to_string(Factor));
  }
}

//===----------------------------------------------------------------------===//
// Randomized differential property suite
//===----------------------------------------------------------------------===//

namespace {

/// A random affine program whose subscripts are in-bounds by construction:
/// each subscript's constant term absorbs the most-negative contribution,
/// and the array dimension is sized to the most-positive one.
Program randomProgram(std::mt19937 &Rng) {
  ProgramBuilder B("random");
  auto Pick = [&](int Lo, int Hi) {
    return int(std::uniform_int_distribution<>(Lo, Hi)(Rng));
  };

  unsigned NumNests = unsigned(Pick(1, 2));
  unsigned NumArrays = unsigned(Pick(1, 2));

  // Collect accesses first, then declare arrays with the derived dims.
  struct PendingNest {
    std::vector<int64_t> ConstLo, ConstHi;
    std::vector<int> TriOuter; ///< -1: constant bounds at this depth.
    std::vector<int64_t> TriAdd;
    struct Ref {
      unsigned Array;
      bool Write;
      std::vector<AffineExpr> Subs;
    };
    std::vector<Ref> Refs;
  };
  std::vector<PendingNest> NestSpecs(NumNests);
  std::vector<std::vector<int64_t>> Dims(NumArrays); // grown as refs appear

  for (PendingNest &NS : NestSpecs) {
    unsigned Depth = unsigned(Pick(1, 3));
    std::vector<int64_t> IvMax(Depth); // conservative per-depth maximum
    for (unsigned K = 0; K != Depth; ++K) {
      int64_t Lo = Pick(0, 2);
      int64_t Hi = Lo + Pick(1, 5);
      bool Tri = K > 0 && Pick(0, 3) == 0;
      NS.ConstLo.push_back(Lo);
      NS.ConstHi.push_back(Hi);
      if (Tri) {
        unsigned Outer = unsigned(Pick(0, int(K) - 1));
        int64_t Add = Pick(1, 3);
        NS.TriOuter.push_back(int(Outer));
        NS.TriAdd.push_back(Add);
        IvMax[K] = IvMax[Outer] + Add - 1;
      } else {
        NS.TriOuter.push_back(-1);
        NS.TriAdd.push_back(0);
        IvMax[K] = Hi - 1;
      }
    }
    unsigned NumRefs = unsigned(Pick(1, 4));
    for (unsigned R = 0; R != NumRefs; ++R) {
      PendingNest::Ref Ref;
      Ref.Array = unsigned(Pick(0, int(NumArrays) - 1));
      Ref.Write = Pick(0, 1) == 1;
      unsigned Rank = Dims[Ref.Array].empty()
                          ? unsigned(Pick(1, 2))
                          : unsigned(Dims[Ref.Array].size());
      if (Dims[Ref.Array].empty())
        Dims[Ref.Array].assign(Rank, 1);
      for (unsigned J = 0; J != Rank; ++J) {
        AffineExpr S = AffineExpr::constant(0);
        int64_t Min = 0, Max = 0;
        for (unsigned K = 0; K != Depth; ++K) {
          int64_t C = Pick(-2, 2);
          if (C == 0)
            continue;
          S = S + AffineExpr::var(K, C);
          if (C > 0)
            Max += C * IvMax[K];
          else
            Min += C * IvMax[K];
        }
        S = S + AffineExpr::constant(-Min + Pick(0, 1));
        Max += -Min + 1 + 1; // slack for the random extra constant
        Dims[Ref.Array][J] = std::max(Dims[Ref.Array][J], Max + 1);
        Ref.Subs.push_back(S);
      }
      NS.Refs.push_back(std::move(Ref));
    }
  }

  std::vector<ArrayId> Ids;
  for (unsigned A = 0; A != NumArrays; ++A) {
    if (Dims[A].empty())
      Dims[A] = {1}; // declared but never referenced
    Ids.push_back(
        B.addArray(std::string("A").append(std::to_string(A)), Dims[A]));
  }
  for (unsigned N = 0; N != NumNests; ++N) {
    const PendingNest &NS = NestSpecs[N];
    B.beginNest(std::string("n").append(std::to_string(N)));
    for (unsigned K = 0; K != NS.ConstLo.size(); ++K) {
      if (NS.TriOuter[K] < 0)
        B.loop(NS.ConstLo[K], NS.ConstHi[K]);
      else
        B.loop(AffineExpr::constant(NS.ConstLo[K]),
               iv(unsigned(NS.TriOuter[K])) + NS.TriAdd[K]);
    }
    for (const PendingNest::Ref &Ref : NS.Refs) {
      if (Ref.Write)
        B.write(Ids[Ref.Array], Ref.Subs);
      else
        B.read(Ids[Ref.Array], Ref.Subs);
    }
    B.endNest();
  }
  return B.build();
}

} // namespace

TEST(FootprintTest, RandomizedDifferentialSweep) {
  std::mt19937 Rng(20060311); // fixed seed: deterministic suite
  const unsigned Factors[] = {1, 2, 3, 4, 8, 16};
  for (unsigned Trial = 0; Trial != 60; ++Trial) {
    Program P = randomProgram(Rng);
    unsigned Factor = Factors[Trial % 6];
    unsigned Start = Trial % Factor;
    uint64_t TileBytes = (Trial % 3 == 2) ? uint64_t(3) * 4096 : 0;
    DiskLayout L(P, makeConfig(Factor, Start), TileBytes);
    if (Trial % 2 == 1)
      for (ArrayId A = 0; A != P.arrays().size(); ++A)
        L.setArrayStartDisk(A, (Trial + A) % Factor);
    checkAllModes(P, L, "trial" + std::to_string(Trial));
  }
}

TEST(FootprintTest, RandomizedSweepUnderShrunkenBudgets) {
  // The same differential property when every budget is tiny: programs are
  // shoved through materialization, conflict, and fallback paths.
  std::mt19937 Rng(771120);
  FootprintBudgets Tiny;
  Tiny.OuterRows = 3;
  Tiny.Points = 8;
  Tiny.CrossPairs = 2;
  Tiny.FoldWidth = 2;
  Tiny.StoredRuns = 3;
  for (unsigned Trial = 0; Trial != 25; ++Trial) {
    Program P = randomProgram(Rng);
    DiskLayout L(P, makeConfig(1 + Trial % 5, 0));
    checkAllModes(P, L, "tiny" + std::to_string(Trial), Tiny);
  }
}

//===----------------------------------------------------------------------===//
// JSON document
//===----------------------------------------------------------------------===//

TEST(FootprintTest, JsonDocumentIsWellFormed) {
  Program P = makeAst(0.06);
  DiskLayout L(P, StripingConfig{});
  SymbolicFootprint FP(P, L);

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(FP.renderJson(), Doc, Error)) << Error;
  EXPECT_EQ(Doc.find("schema")->Str, "dra-footprint-v1");
  EXPECT_EQ(Doc.find("mode")->Str, "auto");
  EXPECT_EQ(uint64_t(Doc.find("num_disks")->Num), uint64_t(L.numDisks()));

  const JsonValue *Cov = Doc.find("coverage");
  ASSERT_NE(Cov, nullptr);
  EXPECT_EQ(uint64_t(Cov->find("refs_total")->Num), FP.numRefs());
  EXPECT_EQ(Cov->find("symbolic_fraction")->Num, FP.symbolicCoverage());

  const JsonValue *Total = Doc.find("total");
  ASSERT_NE(Total, nullptr);
  EXPECT_EQ(uint64_t(Total->find("iterations")->Num), FP.totalIterations());
  ASSERT_EQ(Total->find("per_disk_demand")->Arr.size(), L.numDisks());

  const JsonValue *NestsJ = Doc.find("nests");
  ASSERT_NE(NestsJ, nullptr);
  ASSERT_EQ(NestsJ->Arr.size(), FP.nests().size());
  for (size_t N = 0; N != NestsJ->Arr.size(); ++N) {
    const JsonValue &NJ = NestsJ->Arr[N];
    EXPECT_EQ(uint64_t(NJ.find("iterations")->Num), FP.nests()[N].Iterations);
    ASSERT_EQ(NJ.find("refs")->Arr.size(), FP.nests()[N].Refs.size());
  }
}
