//===- sim/Attribution.h - Source-attributed energy ledger ------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-disk attribution of the energy ledger back to compiler constructs:
/// every joule of DiskStats::EnergyJ is charged to a (nest, reference,
/// round) key — or to the distinguished "unattributed" key — so summing the
/// attribution entries per category reproduces the disk's EnergyLedger
/// exactly (verify/EnergyAuditor enforces it at 1e-9 relative).
///
/// Charging policy (docs/OBSERVABILITY.md "Attribution"):
///   * service energy, busy time and the DRPM post-service emergency ramp
///     are charged to the serviced request's key;
///   * ready energy (reactive spin-up stalls and compiler-hidden proactive
///     spin-ups) is charged to the arriving request's key;
///   * each in-gap energy category (idle dwell per RPM, spin-down, standby,
///     RPM steps) is split half/half between the requests bounding the gap:
///     the half of a missing bound (warm-up gap has no predecessor, the
///     finalize tail has no successor) and of any bound without valid
///     provenance goes to the unattributed key. Halving is exact in
///     IEEE-754, so the split never perturbs closure.
///
/// The entries are the only ledger path: every charge lands in an
/// AttribEntry and Disk::finalize derives the disk's ledger as their
/// per-category sum, making closure exact by construction. A run without
/// attribution (the engines' flag) drops the entries after that fold, so
/// its ledgers are bit-identical to the same run's with attribution.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_ATTRIBUTION_H
#define DRA_SIM_ATTRIBUTION_H

#include "sim/EnergyLedger.h"
#include "trace/Provenance.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dra {

/// Attribution key: the originating loop nest, array reference and schedule
/// round of a charge. The default-constructed key is the "unattributed"
/// bucket (warm-up/tail gap halves, requests without provenance).
struct AttribKey {
  uint32_t Nest = Provenance::None;
  uint32_t Ref = Provenance::None;
  uint32_t Round = 0;

  /// The key a request with provenance \p P is charged under.
  static AttribKey of(const Provenance &P) {
    return P.valid() ? AttribKey{P.Nest, P.Ref, P.Round} : AttribKey();
  }

  bool unattributed() const { return Nest == Provenance::None; }

  friend bool operator<(const AttribKey &A, const AttribKey &B) {
    if (A.Nest != B.Nest)
      return A.Nest < B.Nest;
    if (A.Ref != B.Ref)
      return A.Ref < B.Ref;
    return A.Round < B.Round;
  }
  friend bool operator==(const AttribKey &A, const AttribKey &B) {
    return A.Nest == B.Nest && A.Ref == B.Ref && A.Round == B.Round;
  }
};

/// Everything one disk charged to one attribution key. The scalar counters
/// come first so that they and the leading EnergyLedger categories — the
/// fields every serviced request touches — share one cache line.
struct AttribEntry {
  double BusyMs = 0.0;        ///< Service time of the key's requests.
  double ReadyDelayMs = 0.0;  ///< Stall time the key's requests absorbed.
  uint64_t NumRequests = 0;   ///< Fragments serviced under the key.
  /// Energy by ledger category; summing Energy over a disk's map
  /// reproduces its DiskStats::Ledger per category.
  EnergyLedger Energy;

  AttribEntry &operator+=(const AttribEntry &O) {
    BusyMs += O.BusyMs;
    ReadyDelayMs += O.ReadyDelayMs;
    NumRequests += O.NumRequests;
    Energy += O.Energy;
    return *this;
  }
};

/// One disk's attribution ledger: its entries in a flat vector sorted by
/// key, iterated in ascending (Nest, Ref, Round) order like the std::map it
/// replaces. The key space is small (a disk sees the nests x refs x rounds
/// that touch it; at most 18 on any paper job), so a short walk over
/// contiguous entries beats a node-based map, and copying or moving the
/// map is one allocation or none.
class AttributionMap {
public:
  using value_type = std::pair<AttribKey, AttribEntry>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Position of \p Key's entry, inserting a zeroed entry when absent (an
  /// insertion moves every later entry up one position). The search walks
  /// from position \p Hint, so a hint at or next to the key's position —
  /// the previous request's entry when references interleave, the
  /// previous key when merging a sorted map — finds it in a step or two.
  size_t indexOf(const AttribKey &Key, size_t Hint = 0) {
    size_t I = std::min(Hint, Items.size());
    while (I != 0 && !(Items[I - 1].first < Key))
      --I;
    while (I != Items.size() && Items[I].first < Key)
      ++I;
    if (I == Items.size() || !(Items[I].first == Key))
      Items.insert(Items.begin() + ptrdiff_t(I),
                   value_type(Key, AttribEntry()));
    return I;
  }

  /// The entry at position \p I (see indexOf).
  AttribEntry &entry(size_t I) { return Items[I].second; }

  AttribEntry &operator[](const AttribKey &Key) {
    return Items[indexOf(Key)].second;
  }

  const_iterator find(const AttribKey &Key) const {
    return std::find_if(begin(), end(),
                        [&](const value_type &E) { return E.first == Key; });
  }
  size_t count(const AttribKey &Key) const { return find(Key) != end(); }
  const AttribEntry &at(const AttribKey &Key) const {
    auto It = find(Key);
    if (It == end())
      throw std::out_of_range("no attribution entry for key");
    return It->second;
  }

  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }
  iterator begin() { return Items.begin(); }
  iterator end() { return Items.end(); }
  const_iterator begin() const { return Items.begin(); }
  const_iterator end() const { return Items.end(); }

private:
  std::vector<value_type> Items; ///< Sorted by key, keys unique.
};

/// The run-level aggregation of the dra-attrib-v1 section writer
/// (obs/RunReport.cpp): totals, the unattributed bucket, per-nest and
/// per-(nest, ref) rollups with rounds collapsed. The per-disk views (the
/// section's per_disk array and the flame exporter) fold one disk's
/// ordered map directly instead, in the same summation order.
struct AttributionRollup {
  AttribEntry Total;
  AttribEntry Unattributed;
  std::map<uint32_t, AttribEntry> PerNest;
  std::map<uint32_t, std::set<uint32_t>> NestRounds;
  std::map<std::pair<uint32_t, uint32_t>, AttribEntry> PerRef;

  /// Folds one disk's map in; call once per disk (associative, so any
  /// grouping of disks gives the same rollup).
  void add(const AttributionMap &M) {
    for (const auto &[Key, E] : M) {
      Total += E;
      if (Key.unattributed()) {
        Unattributed += E;
        continue;
      }
      PerNest[Key.Nest] += E;
      NestRounds[Key.Nest].insert(Key.Round);
      PerRef[{Key.Nest, Key.Ref}] += E;
    }
  }
};

/// Human-readable labels for attribution keys, filled by the pipeline from
/// the program (the sim layer itself never sees the IR). Nests[n] names
/// nest id n; Refs[n][r] names reference r of nest n in body order (e.g.
/// "A.r0" for the first access when it reads array A).
struct AttributionNames {
  std::vector<std::string> Nests;
  std::vector<std::vector<std::string>> Refs;

  bool empty() const { return Nests.empty(); }

  /// Label of \p Nest, or "(unattributed)" for the sentinel.
  std::string nestLabel(uint32_t Nest) const {
    if (Nest == Provenance::None || Nest >= Nests.size())
      return "(unattributed)";
    return Nests[Nest];
  }

  /// Label of reference \p Ref of \p Nest, or "-" when unknown.
  std::string refLabel(uint32_t Nest, uint32_t Ref) const {
    if (Nest >= Refs.size() || Ref >= Refs[Nest].size())
      return "-";
    return Refs[Nest][Ref];
  }
};

} // namespace dra

#endif // DRA_SIM_ATTRIBUTION_H
