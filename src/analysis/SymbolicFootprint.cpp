//===- analysis/SymbolicFootprint.cpp - Closed-form tile demand -----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/SymbolicFootprint.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <numeric>

using namespace dra;

const char *dra::footprintModeName(FootprintMode M) {
  switch (M) {
  case FootprintMode::Enumerated:
    return "enumerated";
  case FootprintMode::Auto:
    return "auto";
  }
  return "auto";
}

const char *dra::footprintMethodName(FootprintMethod M) {
  switch (M) {
  case FootprintMethod::ClosedForm:
    return "closed-form";
  case FootprintMethod::RowSymbolic:
    return "row-symbolic";
  case FootprintMethod::Fallback:
    return "fallback";
  }
  return "fallback";
}

namespace {

// Fixed limits; the adjustable work budgets live in FootprintBudgets.
constexpr uint64_t SmallMaterialize = uint64_t(1) << 14;
constexpr unsigned ConvolutionDiskCap = 4096; ///< residue-math limit
constexpr unsigned JsonRunCap = 64;           ///< runs emitted to JSON

//===----------------------------------------------------------------------===//
// Tile -> disk arithmetic
//===----------------------------------------------------------------------===//

/// The affine form of DiskLayout::primaryDiskOfTile for one array:
/// disk(t) = (Mul * t + Add) mod F. Valid whenever whole stripe units make
/// up a tile (file bases are always stripe-cycle-aligned by construction).
struct DiskMap {
  bool Valid = false;
  uint64_t Mul = 0;
  uint64_t Add = 0;
  uint64_t F = 1;

  unsigned diskOf(int64_t Tile) const {
    assert(Valid && Tile >= 0);
    return unsigned((Mul * (uint64_t(Tile) % F) + Add) % F);
  }
};

DiskMap diskMapOf(const DiskLayout &Layout, ArrayId A) {
  DiskMap M;
  M.F = Layout.numDisks();
  uint64_t SU = Layout.config().StripeUnitBytes;
  if (Layout.tileBytes() % SU != 0)
    return M; // Fractional-stripe tiles break the linear stripe index.
  // FileBase is aligned to a full stripe cycle (DiskLayout ctor), hence to
  // the stripe unit, so the division below is exact.
  M.Mul = (Layout.tileBytes() / SU) % M.F;
  M.Add = (Layout.fileBase(A) / SU + Layout.arrayStartDisk(A)) % M.F;
  M.Valid = true;
  return M;
}

/// Adds the per-disk tile counts of one disjoint run under \p M to \p D:
/// the run's elements hit disks Start, Start+Step, ... (mod F), a cyclic
/// progression with period F / gcd(Step, F) — counted in closed form, O(F).
void addRunDemand(const StridedRange &R, const DiskMap &M,
                  std::vector<uint64_t> &D) {
  if (R.isEmpty())
    return;
  uint64_t Start = M.diskOf(R.Base);
  uint64_t Step = (M.Mul * (R.Stride % M.F)) % M.F;
  if (Step == 0) {
    D[Start] += R.Count;
    return;
  }
  uint64_t G = std::gcd(Step, M.F);
  uint64_t Period = M.F / G;
  uint64_t Full = R.Count / Period;
  uint64_t Rem = R.Count % Period;
  uint64_t Disk = Start;
  for (uint64_t I = 0; I != Period; ++I) {
    D[Disk] += Full + (I < Rem ? 1 : 0);
    Disk = (Disk + Step) % M.F;
  }
}

/// Residue histogram of (Mul * v) mod F over the progression \p R — the
/// per-dimension factor of the tier-1 demand convolution.
std::vector<uint64_t> residueCounts(const StridedRange &R, uint64_t Mul,
                                    uint64_t F) {
  std::vector<uint64_t> H(F, 0);
  DiskMap M;
  M.Valid = true;
  M.Mul = Mul % F;
  M.Add = 0;
  M.F = F;
  addRunDemand(R, M, H);
  return H;
}

//===----------------------------------------------------------------------===//
// Run-set normalization
//===----------------------------------------------------------------------===//

/// Greedy equal-gap runs over strictly increasing points; the produced runs
/// are disjoint and cover the points exactly.
std::vector<StridedRange> runsFromPoints(const std::vector<int64_t> &P) {
  std::vector<StridedRange> Runs;
  size_t I = 0, N = P.size();
  while (I < N) {
    if (I + 1 == N) {
      Runs.push_back(StridedRange::make(P[I], 1, 1));
      break;
    }
    int64_t Gap = P[I + 1] - P[I];
    size_t J = I + 1;
    while (J + 1 < N && P[J + 1] - P[J] == Gap)
      ++J;
    Runs.push_back(StridedRange::make(P[I], Gap, J - I + 1));
    I = J + 1;
  }
  return Runs;
}

uint64_t totalCount(const std::vector<StridedRange> &Runs) {
  uint64_t N = 0;
  for (const StridedRange &R : Runs)
    N += R.Count;
  return N;
}

/// Expands \p Runs to explicit points, dedups, and rebuilds greedy runs.
/// Requires totalCount within the materialization budget.
bool materialize(std::vector<StridedRange> &Runs, const FootprintBudgets &B) {
  uint64_t N = totalCount(Runs);
  if (N > B.Points)
    return false;
  std::vector<int64_t> Points;
  Points.reserve(size_t(N));
  for (const StridedRange &R : Runs)
    for (uint64_t K = 0; K != R.Count; ++K)
      Points.push_back(R.at(K));
  std::sort(Points.begin(), Points.end());
  Points.erase(std::unique(Points.begin(), Points.end()), Points.end());
  Runs = runsFromPoints(Points);
  return true;
}

/// One stride/residue congruence class: every member run enumerates values
/// === Residue (mod Stride), so runs of the same class merge exactly as
/// intervals over k = (value - Residue) / Stride, and two *different*
/// classes of the same stride are disjoint by construction.
struct StrideClass {
  uint64_t Stride = 1;
  int64_t Residue = 0;
  std::vector<StridedRange> Runs; ///< Disjoint, sorted by Base after merge.

  /// Membership test against the merged runs (disjoint + same stride =>
  /// both Base and last() ascend, so binary search applies).
  bool contains(int64_t V) const {
    auto It = std::upper_bound(
        Runs.begin(), Runs.end(), V,
        [](int64_t Val, const StridedRange &R) { return Val < R.Base; });
    if (It == Runs.begin())
      return false;
    return std::prev(It)->contains(V);
  }
};

int64_t residueOf(int64_t Base, uint64_t Stride) {
  int64_t R = Base % int64_t(Stride);
  return R < 0 ? R + int64_t(Stride) : R;
}

/// Merges the k-space intervals of one congruence class in place. Members
/// are always === Residue (mod Stride) — count-1 runs canonicalized to
/// stride 1 included — so the k projection is exact.
void mergeClass(StrideClass &C) {
  // A lone member is already merged (classFor keys on the run's own
  // stride, so re-expressing it in class stride is the identity); classes
  // are usually singletons when each outer row lands in its own residue.
  if (C.Runs.size() <= 1)
    return;
  int64_t S = int64_t(C.Stride);
  struct KIv {
    int64_t Begin;
    int64_t End; // half-open, in k-space
  };
  std::vector<KIv> Ivs;
  Ivs.reserve(C.Runs.size());
  for (const StridedRange &R : C.Runs) {
    int64_t K0 = (R.Base - C.Residue) / S;
    Ivs.push_back({K0, K0 + int64_t(R.Count)});
  }
  auto ByBegin = [](const KIv &A, const KIv &B) { return A.Begin < B.Begin; };
  // An outer-row walk emits rows in ascending order, so the intervals
  // usually arrive sorted or sorted-with-a-sorted-tail (re-entered loose
  // runs appended to a merged class); prefer the O(n) paths over a full
  // sort per class.
  auto Mid = std::is_sorted_until(Ivs.begin(), Ivs.end(), ByBegin);
  if (Mid != Ivs.end()) {
    if (std::is_sorted(Mid, Ivs.end(), ByBegin))
      std::inplace_merge(Ivs.begin(), Mid, Ivs.end(), ByBegin);
    else
      std::sort(Ivs.begin(), Ivs.end(), ByBegin);
  }
  std::vector<KIv> Merged;
  for (const KIv &Iv : Ivs) {
    if (!Merged.empty() && Iv.Begin <= Merged.back().End) {
      Merged.back().End = std::max(Merged.back().End, Iv.End);
      continue;
    }
    Merged.push_back(Iv);
  }
  C.Runs.clear();
  for (const KIv &Iv : Merged)
    C.Runs.push_back(StridedRange::make(C.Residue + Iv.Begin * S, S,
                                        uint64_t(Iv.End - Iv.Begin)));
}

/// Turns an arbitrary multiset of canonical runs into a *disjoint* cover of
/// its value set, in place:
///
///   1. small inputs materialize outright (exact, trivially disjoint);
///   2. otherwise runs group into (stride, residue) congruence classes and
///      merge as intervals in k-space — classes of equal stride are
///      mutually disjoint with no test at all;
///   3. tiny (count <= 2) leftovers that another class already covers are
///      absorbed, the rest re-enter as points;
///   4. the few cross-stride class pairs are checked by hull sweep +
///      gcd/CRT intersection; any surviving conflict falls back to full
///      materialization.
///
/// Returns false only when a conflict exists and the point budget is
/// exceeded — the caller then demotes the reference a tier.
bool normalizeRuns(std::vector<StridedRange> &Runs,
                   const FootprintBudgets &B) {
  Runs.erase(std::remove_if(Runs.begin(), Runs.end(),
                            [](const StridedRange &R) { return R.isEmpty(); }),
             Runs.end());
  if (Runs.size() <= 1)
    return true;
  if (totalCount(Runs) <= std::min(SmallMaterialize, B.Points))
    return materialize(Runs, B);

  // Partition into congruence classes. Count <= 2 runs are set aside: a
  // 1-2 element run carries no real stride evidence and frequently
  // duplicates a long run of another class (e.g. the first rows of a
  // triangular nest), so gets containment-absorbed below instead of
  // forcing a cross-stride conflict.
  std::vector<StridedRange> Smalls;
  std::vector<StrideClass> Classes;
  // Indexed lookup: a transposed triangular reference yields one class per
  // residue (thousands), so a linear scan here would be quadratic in the
  // outer extent.
  std::map<std::pair<uint64_t, int64_t>, size_t> ClassIndex;
  auto classIdxFor = [&](uint64_t Stride, int64_t Residue) -> size_t {
    auto [It, Inserted] = ClassIndex.try_emplace({Stride, Residue},
                                                 Classes.size());
    if (Inserted)
      Classes.push_back(StrideClass{Stride, Residue, {}});
    return It->second;
  };
  auto classFor = [&](uint64_t Stride, int64_t Residue) -> StrideClass & {
    return Classes[classIdxFor(Stride, Residue)];
  };
  for (const StridedRange &R : Runs) {
    if (R.Count <= 2) {
      Smalls.push_back(R);
      continue;
    }
    classFor(R.Stride, residueOf(R.Base, R.Stride)).Runs.push_back(R);
  }
  for (StrideClass &C : Classes)
    mergeClass(C);

  // Absorb small leftovers: elements already covered by a class vanish;
  // the rest re-enter as exact points.
  std::vector<int64_t> Loose;
  for (const StridedRange &R : Smalls)
    for (uint64_t K = 0; K != R.Count; ++K) {
      int64_t V = R.at(K);
      bool Covered = false;
      for (const StrideClass &C : Classes)
        if (C.contains(V)) {
          Covered = true;
          break;
        }
      if (!Covered)
        Loose.push_back(V);
    }
  std::sort(Loose.begin(), Loose.end());
  Loose.erase(std::unique(Loose.begin(), Loose.end()), Loose.end());
  // Loose points may collide with same-class runs, so dirty classes must
  // re-merge — but only once each: a re-merge walks the whole class, and a
  // triangular nest funnels every row into one class with thousands of
  // member runs.
  std::vector<size_t> Dirty;
  for (const StridedRange &R : runsFromPoints(Loose)) {
    size_t Idx = classIdxFor(R.Stride, residueOf(R.Base, R.Stride));
    Classes[Idx].Runs.push_back(R);
    Dirty.push_back(Idx);
  }
  std::sort(Dirty.begin(), Dirty.end());
  Dirty.erase(std::unique(Dirty.begin(), Dirty.end()), Dirty.end());
  for (size_t Idx : Dirty)
    mergeClass(Classes[Idx]);

  // Loose points were checked against the classes as they stood *before*
  // this loop; a rebuilt loose run never duplicates class members because
  // its elements are exactly the uncovered points. Classes of equal stride
  // and distinct residue are disjoint, so only cross-stride pairs remain.
  bool Conflict = false;
  uint64_t Tested = 0;
  const FootprintBudgets &B2 = B;
  // Group by stride up front: same-stride classes are disjoint with no
  // test, and a reference can legitimately produce thousands of classes of
  // one stride (a transposed triangle), where enumerating all class pairs
  // just to skip them would be quadratic.
  std::map<uint64_t, std::vector<size_t>> ByStride;
  for (size_t I = 0; I != Classes.size(); ++I)
    ByStride[Classes[I].Stride].push_back(I);
  std::vector<std::pair<size_t, size_t>> CrossPairs;
  for (auto GI = ByStride.begin(); GI != ByStride.end() && !Conflict; ++GI)
    for (auto GJ = std::next(GI); GJ != ByStride.end() && !Conflict; ++GJ)
      for (size_t I : GI->second)
        for (size_t J : GJ->second) {
          if (CrossPairs.size() == B2.CrossPairs) {
            // Too many cross-stride pairs to even enumerate: treat as a
            // conflict and let materialization (or demotion) decide.
            Conflict = true;
            break;
          }
          CrossPairs.push_back({I, J});
        }
  for (size_t P = 0; P != CrossPairs.size() && !Conflict; ++P) {
    auto [CI, CJ] = CrossPairs[P];
    {
      const std::vector<StridedRange> &A = Classes[CI].Runs;
      const std::vector<StridedRange> &BR = Classes[CJ].Runs;
      size_t BFrom = 0;
      for (const StridedRange &RA : A) {
        while (BFrom < BR.size() && BR[BFrom].last() < RA.Base)
          ++BFrom;
        for (size_t K = BFrom; K < BR.size() && BR[K].Base <= RA.last(); ++K) {
          if (++Tested > B2.CrossPairs ||
              !intersect(RA, BR[K]).isEmpty()) {
            Conflict = true;
            break;
          }
        }
        if (Conflict)
          break;
      }
    }
  }

  std::vector<StridedRange> Out;
  for (StrideClass &C : Classes)
    for (StridedRange &R : C.Runs)
      Out.push_back(R);
  if (Conflict && !materialize(Out, B))
    return false;
  auto Cmp = [](const StridedRange &A, const StridedRange &B) {
    return A.Base < B.Base || (A.Base == B.Base && A.Stride < B.Stride);
  };
  // The class walk emits runs almost in final order (only the re-entered
  // loose runs trail out of place), so prefer an O(n) merge of the sorted
  // prefix and suffix over a full sort.
  auto Mid = std::is_sorted_until(Out.begin(), Out.end(), Cmp);
  if (Mid != Out.end()) {
    if (std::is_sorted(Mid, Out.end(), Cmp))
      std::inplace_merge(Out.begin(), Mid, Out.end(), Cmp);
    else
      std::sort(Out.begin(), Out.end(), Cmp);
  }
  Runs = std::move(Out);
  return true;
}

//===----------------------------------------------------------------------===//
// Nest iteration counting and the outer-row walk
//===----------------------------------------------------------------------===//

bool allBoundsConstant(const LoopNest &Nest) {
  for (const Loop &L : Nest.loops())
    if (!L.Lower.isConstant() || !L.Upper.isConstant())
      return false;
  return true;
}

/// Invokes Fn(iter, innerLo, innerCount) once per iteration of the *outer*
/// band (depths 0..d-2), with the innermost bounds pre-evaluated. Returns
/// false when more than \p Budget outer rows exist (caller falls back).
template <typename RowFn>
bool forEachOuterRow(const LoopNest &Nest, uint64_t Budget, const RowFn &Fn) {
  unsigned D = Nest.depth();
  assert(D >= 1 && "loop nest with no loops");
  IterVec Iter(D, 0);
  // Statically dispatched recursion: this walk runs once per outer row, so
  // a std::function indirection here is measurable on wide triangles.
  auto Walk = [&](auto &&Self, unsigned Depth) -> bool {
    if (Depth == D - 1) {
      if (Budget == 0)
        return false;
      --Budget;
      int64_t Lo = Nest.loops()[Depth].Lower.evaluate(Iter);
      int64_t Up = Nest.loops()[Depth].Upper.evaluate(Iter);
      Fn(Iter, Lo, Up > Lo ? Up - Lo : 0);
      return true;
    }
    int64_t Lo = Nest.loops()[Depth].Lower.evaluate(Iter);
    int64_t Up = Nest.loops()[Depth].Upper.evaluate(Iter);
    for (int64_t V = Lo; V < Up; ++V) {
      Iter[Depth] = V;
      if (!Self(Self, Depth + 1))
        return false;
    }
    Iter[Depth] = 0;
    return true;
  };
  return Walk(Walk, 0);
}

//===----------------------------------------------------------------------===//
// Shared demand / run bookkeeping
//===----------------------------------------------------------------------===//

/// Row-major linearization weights of \p A: linear = sum coord[j] * W[j].
std::vector<int64_t> rowMajorWeights(const ArrayInfo &A) {
  std::vector<int64_t> W(A.DimsInTiles.size(), 1);
  for (size_t J = W.size(); J-- > 1;)
    W[J - 1] = W[J] * A.DimsInTiles[J];
  return W;
}

/// Computes Out.PerDiskDemand from disjoint runs: closed-form residue math
/// under a valid DiskMap, per-element layout queries otherwise. Returns
/// false when neither is affordable (caller demotes).
bool demandFromRuns(const std::vector<StridedRange> &Runs, ArrayId Array,
                    const DiskLayout &Layout, const DiskMap &M,
                    const FootprintBudgets &B, std::vector<uint64_t> &Demand) {
  Demand.assign(Layout.numDisks(), 0);
  if (M.Valid && M.F <= ConvolutionDiskCap) {
    for (const StridedRange &R : Runs)
      addRunDemand(R, M, Demand);
    return true;
  }
  if (totalCount(Runs) > B.Points)
    return false;
  for (const StridedRange &R : Runs)
    for (uint64_t K = 0; K != R.Count; ++K)
      ++Demand[Layout.primaryDiskOfTile({Array, R.at(K)})];
  return true;
}

/// Moves \p Runs into Out.TileRuns if within the storage budget; otherwise
/// drops them and clears RunsExact. Counts are unaffected either way.
void storeRuns(std::vector<StridedRange> &&Runs, const FootprintBudgets &B,
               RefFootprint &Out) {
  if (Runs.size() > B.StoredRuns) {
    Out.TileRuns.clear();
    Out.RunsExact = false;
    return;
  }
  Out.TileRuns = std::move(Runs);
  Out.RunsExact = true;
}

//===----------------------------------------------------------------------===//
// Tier 1: ClosedForm
//===----------------------------------------------------------------------===//

/// Rectangular constant bounds + separable subscripts: per-dimension value
/// progressions multiply into the distinct-tile count; demand is the cyclic
/// convolution of per-dimension residue histograms. O(rank * F^2), fully
/// independent of every loop extent.
bool tryClosedForm(const Program &Prog, const LoopNest &Nest,
                   const ArrayAccess &Acc, const DiskLayout &Layout,
                   const FootprintBudgets &B, RefFootprint &Out) {
  if (Nest.depth() == 0 || !allBoundsConstant(Nest))
    return false;
  const ArrayInfo &Arr = Prog.array(Acc.Array);
  unsigned Rank = unsigned(Acc.Subscripts.size());
  assert(Rank == Arr.DimsInTiles.size() && "verified arity");
  unsigned Depth = Nest.depth();

  std::vector<int64_t> Extent(Depth);
  for (unsigned K = 0; K != Depth; ++K) {
    int64_t Lo = Nest.loops()[K].Lower.constTerm();
    int64_t Up = Nest.loops()[K].Upper.constTerm();
    Extent[K] = Up > Lo ? Up - Lo : 0;
    assert(Extent[K] != 0 && "empty nests are footprinted before the tiers");
  }

  // Separability: each subscript reads at most one iv; no iv feeds two
  // subscripts. Anything else (diagonal L[i][i], skewed A[i+j]) is tier 2's
  // job.
  std::vector<int> DepthOf(Rank, -1);
  std::vector<bool> DepthUsed(Depth, false);
  for (unsigned J = 0; J != Rank; ++J) {
    const AffineExpr &S = Acc.Subscripts[J];
    for (unsigned K = 0, N = S.numCoeffs(); K != N; ++K) {
      if (S.coeff(K) == 0)
        continue;
      if (DepthOf[J] != -1 || DepthUsed[K])
        return false;
      DepthOf[J] = int(K);
      DepthUsed[K] = true;
    }
  }

  // Per-dimension value progressions (canonical, ascending).
  std::vector<StridedRange> Dim(Rank);
  for (unsigned J = 0; J != Rank; ++J) {
    const AffineExpr &S = Acc.Subscripts[J];
    if (DepthOf[J] == -1) {
      Dim[J] = StridedRange::make(S.constTerm(), 0, 1);
    } else {
      unsigned K = unsigned(DepthOf[J]);
      int64_t C = S.coeff(K);
      int64_t First = C * Nest.loops()[K].Lower.constTerm() + S.constTerm();
      Dim[J] = StridedRange::make(First, C, uint64_t(Extent[K]));
    }
    assert(Dim[J].Base >= 0 && Dim[J].last() < Arr.DimsInTiles[J] &&
           "subscript out of the array's tile bounds");
  }

  Out.DistinctTiles = 1;
  for (unsigned J = 0; J != Rank; ++J)
    Out.DistinctTiles *= Dim[J].Count; // <= numTiles(): no overflow.

  std::vector<int64_t> W = rowMajorWeights(Arr);

  // Fold the per-dimension progressions, innermost first, into disjoint
  // runs over linear tile ids (row-major linearization is injective on
  // in-bounds coordinates, so translated copies never collide).
  std::vector<StridedRange> Runs{StridedRange::make(0, 0, 1)};
  bool RunsOk = true;
  for (unsigned J = Rank; J-- > 0;) {
    if (Runs.size() * Dim[J].Count > B.FoldWidth) {
      RunsOk = false;
      break;
    }
    std::vector<StridedRange> Next;
    Next.reserve(size_t(Runs.size() * Dim[J].Count));
    for (uint64_t K = 0; K != Dim[J].Count; ++K) {
      int64_t Shift = Dim[J].at(K) * W[J];
      for (const StridedRange &R : Runs)
        Next.push_back(StridedRange{R.Base + Shift, R.Stride, R.Count});
    }
    if (!normalizeRuns(Next, B)) {
      RunsOk = false;
      break;
    }
    Runs = std::move(Next);
  }

  // Per-disk demand: convolve per-dimension residue histograms when the
  // affine disk map holds; otherwise fall back to the runs.
  DiskMap M = diskMapOf(Layout, Acc.Array);
  uint64_t F = Layout.numDisks();
  if (M.Valid && F <= ConvolutionDiskCap) {
    std::vector<uint64_t> Dist(F, 0);
    Dist[M.Add] = 1;
    for (unsigned J = 0; J != Rank; ++J) {
      std::vector<uint64_t> H =
          residueCounts(Dim[J], M.Mul * (uint64_t(W[J]) % F) % F, F);
      std::vector<uint64_t> NextDist(F, 0);
      for (uint64_t A = 0; A != F; ++A) {
        if (Dist[A] == 0)
          continue;
        for (uint64_t B = 0; B != F; ++B)
          if (H[B] != 0)
            NextDist[(A + B) % F] += Dist[A] * H[B];
      }
      Dist = std::move(NextDist);
    }
    Out.PerDiskDemand = std::move(Dist);
  } else {
    if (!RunsOk ||
        !demandFromRuns(Runs, Acc.Array, Layout, M, B, Out.PerDiskDemand))
      return false;
  }

  if (RunsOk)
    storeRuns(std::move(Runs), B, Out);
  else {
    Out.TileRuns.clear();
    Out.RunsExact = false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Tier 2: RowSymbolic
//===----------------------------------------------------------------------===//

/// Affine (possibly triangular) bounds, arbitrary affine subscripts: each
/// outer-band iteration contributes one strided run (the innermost loop has
/// a constant linear stride), and the runs union exactly through
/// normalizeRuns. O(outer rows), independent of the innermost extent.
bool tryRowSymbolic(const Program &Prog, const LoopNest &Nest,
                    const ArrayAccess &Acc, const DiskLayout &Layout,
                    const FootprintBudgets &B, RefFootprint &Out) {
  unsigned Depth = Nest.depth();
  if (Depth == 0)
    return false;
  const ArrayInfo &Arr = Prog.array(Acc.Array);
  unsigned Rank = unsigned(Acc.Subscripts.size());
  std::vector<int64_t> W = rowMajorWeights(Arr);

  // Linear stride of one innermost step: constant across the outer band.
  int64_t Stride = 0;
  for (unsigned J = 0; J != Rank; ++J)
    Stride += Acc.Subscripts[J].coeff(Depth - 1) * W[J];

  std::vector<StridedRange> Runs;
  bool InBounds = true;
  bool Walked = forEachOuterRow(
      Nest, B.OuterRows,
      [&](const IterVec &Outer, int64_t InnerLo, int64_t InnerCount) {
        if (InnerCount == 0)
          return;
        IterVec Iter = Outer;
        Iter[Depth - 1] = InnerLo;
        int64_t Base = 0;
        for (unsigned J = 0; J != Rank; ++J) {
          int64_t First = Acc.Subscripts[J].evaluate(Iter);
          int64_t LastC =
              First + Acc.Subscripts[J].coeff(Depth - 1) * (InnerCount - 1);
          // Affine in the innermost iv: extremes sit at the endpoints.
          if (std::min(First, LastC) < 0 ||
              std::max(First, LastC) >= Arr.DimsInTiles[J])
            InBounds = false;
          Base += First * W[J];
        }
        assert(InBounds && "subscript out of the array's tile bounds");
        Runs.push_back(StridedRange::make(Base, Stride, uint64_t(InnerCount)));
      });
  if (!Walked || !InBounds)
    return false;

  if (!normalizeRuns(Runs, B))
    return false;
  Out.DistinctTiles = totalCount(Runs);

  DiskMap M = diskMapOf(Layout, Acc.Array);
  if (!demandFromRuns(Runs, Acc.Array, Layout, M, B, Out.PerDiskDemand))
    return false;

  storeRuns(std::move(Runs), B, Out);
  return true;
}

//===----------------------------------------------------------------------===//
// Tier 3: Fallback (per-reference enumeration)
//===----------------------------------------------------------------------===//

/// Enumerates exactly one reference: TileAccessTable rows when available
/// (entry \p RefIdx of each row — rows are in body order), direct subscript
/// re-evaluation otherwise. The oracle the symbolic tiers must match.
void enumerateRef(const Program &Prog, const LoopNest &Nest, unsigned RefIdx,
                  const DiskLayout &Layout, const TileAccessTable *Table,
                  uint64_t RowBegin, uint64_t NestIters,
                  const FootprintBudgets &B, RefFootprint &Out) {
  const ArrayAccess &Acc = Nest.accesses()[RefIdx];
  const ArrayInfo &Arr = Prog.array(Acc.Array);
  uint64_t Span = uint64_t(Arr.numTiles());
  std::vector<uint8_t> Touched(Span, 0);

  if (Table) {
    assert(RowBegin + NestIters <= Table->numIters() &&
           "table does not cover this nest");
    for (uint64_t G = RowBegin; G != RowBegin + NestIters; ++G) {
      const TileAccess &E = Table->row(GlobalIter(G))[RefIdx];
      assert(E.Tile.Array == Acc.Array && "table row out of body order");
      Touched[uint64_t(E.Tile.Linear)] = 1;
    }
  } else if (NestIters != 0) {
    std::vector<int64_t> Coord;
    Nest.forEachIteration([&](const IterVec &Iter) {
      LoopNest::evalSubscriptsInto(Acc, Iter, Coord);
      Touched[uint64_t(Arr.linearTile(Coord))] = 1;
    });
  }

  Out.DistinctTiles = 0;
  Out.PerDiskDemand.assign(Layout.numDisks(), 0);
  std::vector<int64_t> Points;
  bool KeepPoints = true;
  for (uint64_t T = 0; T != Span; ++T) {
    if (!Touched[T])
      continue;
    ++Out.DistinctTiles;
    ++Out.PerDiskDemand[Layout.primaryDiskOfTile({Acc.Array, int64_t(T)})];
    if (KeepPoints) {
      if (Points.size() == B.Points) {
        KeepPoints = false;
        Points.clear();
      } else {
        Points.push_back(int64_t(T));
      }
    }
  }
  if (KeepPoints)
    storeRuns(runsFromPoints(Points), B, Out);
  else {
    Out.TileRuns.clear();
    Out.RunsExact = false;
  }
}

//===----------------------------------------------------------------------===//
// Overlaps
//===----------------------------------------------------------------------===//

/// Shared-tile count of two disjoint, Base-sorted run sets: exact via
/// pairwise gcd/CRT intersection under the pair budget, a marked hull/count
/// upper bound beyond it.
RefOverlap overlapOf(const RefFootprint &A, const RefFootprint &B,
                     const FootprintBudgets &Budgets) {
  RefOverlap O;
  O.RefA = A.RefIndex;
  O.RefB = B.RefIndex;
  if (A.RunsExact && B.RunsExact) {
    uint64_t Tested = 0;
    uint64_t Shared = 0;
    bool Exact = true;
    size_t From = 0;
    for (const StridedRange &RA : A.TileRuns) {
      while (From < B.TileRuns.size() && B.TileRuns[From].last() < RA.Base)
        ++From;
      for (size_t K = From;
           K < B.TileRuns.size() && B.TileRuns[K].Base <= RA.last(); ++K) {
        if (++Tested > Budgets.CrossPairs) {
          Exact = false;
          break;
        }
        Shared += intersect(RA, B.TileRuns[K]).Count;
      }
      if (!Exact)
        break;
    }
    if (Exact) {
      O.SharedTiles = Shared;
      O.Exact = true;
      return O;
    }
  }
  // Estimate: sharing cannot exceed either footprint (hulls add nothing
  // once run sets are unavailable or too wide to intersect).
  O.SharedTiles = std::min(A.DistinctTiles, B.DistinctTiles);
  O.Exact = false;
  return O;
}

void computeOverlaps(NestFootprint &NF, const FootprintBudgets &B) {
  for (size_t I = 0; I != NF.Refs.size(); ++I)
    for (size_t J = I + 1; J != NF.Refs.size(); ++J) {
      if (NF.Refs[I].Array != NF.Refs[J].Array)
        continue;
      RefOverlap O = overlapOf(NF.Refs[I], NF.Refs[J], B);
      if (O.SharedTiles != 0 || !O.Exact)
        NF.Overlaps.push_back(O);
    }
}

} // namespace

//===----------------------------------------------------------------------===//
// SymbolicFootprint
//===----------------------------------------------------------------------===//

SymbolicFootprint::SymbolicFootprint(const Program &P, const DiskLayout &L,
                                     FootprintMode Mode,
                                     const TileAccessTable *Table,
                                     const FootprintBudgets &Budgets)
    : Prog(P), Layout(L), Mode(Mode), Disks(L.numDisks()) {
  uint64_t RowBegin = 0;
  Nests.reserve(P.nests().size());
  for (const LoopNest &Nest : P.nests()) {
    NestFootprint NF;
    NF.Nest = Nest.id();
    NF.Iterations = Nest.numIterations();
    NF.Refs.reserve(Nest.accesses().size());
    for (unsigned R = 0; R != Nest.accesses().size(); ++R) {
      const ArrayAccess &Acc = Nest.accesses()[R];
      RefFootprint RF;
      RF.RefIndex = R;
      RF.Array = Acc.Array;
      RF.Kind = Acc.Kind;
      bool Done = false;
      if (Mode != FootprintMode::Enumerated) {
        if (NF.Iterations == 0) {
          // An empty nest touches nothing, trivially in closed form, and
          // its outer rows are not walked.
          RF.PerDiskDemand.assign(L.numDisks(), 0);
          RF.Method = FootprintMethod::ClosedForm;
          ++RefsClosedForm;
          Done = true;
        } else if (tryClosedForm(P, Nest, Acc, L, Budgets, RF)) {
          RF.Method = FootprintMethod::ClosedForm;
          ++RefsClosedForm;
          Done = true;
        } else if (tryRowSymbolic(P, Nest, Acc, L, Budgets, RF)) {
          RF.Method = FootprintMethod::RowSymbolic;
          ++RefsRowSymbolic;
          Done = true;
        }
      }
      if (!Done) {
        enumerateRef(P, Nest, R, L, Table, RowBegin, NF.Iterations, Budgets,
                     RF);
        RF.Method = FootprintMethod::Fallback;
        ++RefsFallback;
      }
      NF.Refs.push_back(std::move(RF));
    }
    computeOverlaps(NF, Budgets);
    RowBegin += NF.Iterations;
    Nests.push_back(std::move(NF));
  }
  assert((Table == nullptr || RowBegin == Table->numIters()) &&
         "symbolic iteration totals disagree with the table");
}

double SymbolicFootprint::symbolicCoverage() const {
  uint64_t Total = numRefs();
  if (Total == 0)
    return 1.0;
  return double(RefsClosedForm + RefsRowSymbolic) / double(Total);
}

uint64_t SymbolicFootprint::totalDistinctTiles() const {
  uint64_t N = 0;
  for (const NestFootprint &NF : Nests)
    for (const RefFootprint &RF : NF.Refs)
      N += RF.DistinctTiles;
  return N;
}

std::vector<uint64_t> SymbolicFootprint::totalPerDiskDemand() const {
  std::vector<uint64_t> D(Disks, 0);
  for (const NestFootprint &NF : Nests)
    for (const RefFootprint &RF : NF.Refs)
      for (unsigned K = 0; K != Disks; ++K)
        D[K] += RF.PerDiskDemand[K];
  return D;
}

uint64_t SymbolicFootprint::totalIterations() const {
  uint64_t N = 0;
  for (const NestFootprint &NF : Nests)
    N += NF.Iterations;
  return N;
}

void SymbolicFootprint::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.key("schema");
  W.value("dra-footprint-v1");
  W.key("program");
  W.value(Prog.name());
  W.key("mode");
  W.value(footprintModeName(Mode));
  W.key("num_disks");
  W.value(Disks);
  W.key("tile_bytes");
  W.value(Layout.tileBytes());

  W.key("coverage");
  W.beginObject();
  W.key("refs_total");
  W.value(numRefs());
  W.key("refs_closed_form");
  W.value(RefsClosedForm);
  W.key("refs_row_symbolic");
  W.value(RefsRowSymbolic);
  W.key("refs_fallback");
  W.value(RefsFallback);
  W.key("symbolic_fraction");
  W.value(symbolicCoverage());
  W.endObject();

  W.key("total");
  W.beginObject();
  W.key("iterations");
  W.value(totalIterations());
  W.key("distinct_tiles");
  W.value(totalDistinctTiles());
  W.key("per_disk_demand");
  W.beginArray();
  for (uint64_t D : totalPerDiskDemand())
    W.value(D);
  W.endArray();
  W.endObject();

  W.key("nests");
  W.beginArray();
  for (const NestFootprint &NF : Nests) {
    W.beginObject();
    W.key("nest");
    W.value(NF.Nest);
    W.key("name");
    W.value(Prog.nest(NF.Nest).name());
    W.key("iterations");
    W.value(NF.Iterations);
    W.key("refs");
    W.beginArray();
    for (const RefFootprint &RF : NF.Refs) {
      W.beginObject();
      W.key("ref");
      W.value(RF.RefIndex);
      W.key("array");
      W.value(Prog.array(RF.Array).Name);
      W.key("kind");
      W.value(RF.Kind == AccessKind::Write ? "write" : "read");
      W.key("method");
      W.value(footprintMethodName(RF.Method));
      W.key("distinct_tiles");
      W.value(RF.DistinctTiles);
      W.key("per_disk_demand");
      W.beginArray();
      for (uint64_t D : RF.PerDiskDemand)
        W.value(D);
      W.endArray();
      W.key("runs_exact");
      W.value(RF.RunsExact);
      W.key("runs");
      W.beginArray();
      for (size_t K = 0; K != RF.TileRuns.size() && K != JsonRunCap; ++K) {
        const StridedRange &R = RF.TileRuns[K];
        W.beginArray();
        W.value(R.Base);
        W.value(R.Stride);
        W.value(R.Count);
        W.endArray();
      }
      W.endArray();
      if (RF.TileRuns.size() > JsonRunCap) {
        W.key("runs_elided");
        W.value(uint64_t(RF.TileRuns.size() - JsonRunCap));
      }
      W.endObject();
    }
    W.endArray();
    W.key("overlaps");
    W.beginArray();
    for (const RefOverlap &O : NF.Overlaps) {
      W.beginObject();
      W.key("ref_a");
      W.value(O.RefA);
      W.key("ref_b");
      W.value(O.RefB);
      W.key("shared_tiles");
      W.value(O.SharedTiles);
      W.key("exact");
      W.value(O.Exact);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string SymbolicFootprint::renderJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}
