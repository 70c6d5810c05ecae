//===- sim/EnergyLedger.h - Attributed per-disk energy ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits one disk's integrated energy into disjoint named categories, so a
/// run does not just report *how much* energy a scheme used but *where* it
/// went — the evidence behind the paper's Sec. 3 argument that restructuring
/// converts full-power idling into standby/low-RPM residency. Categories are
/// accumulated at the exact points the simulator charges DiskStats::EnergyJ
/// (Disk.cpp / TpmPolicy.cpp / DrpmPolicy.cpp), and the hard audit
/// invariant totalJ() == DiskStats::EnergyJ is enforced by
/// verify/EnergyAuditor and the ledger tests.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_ENERGYLEDGER_H
#define DRA_SIM_ENERGYLEDGER_H

#include <cstddef>
#include <stdexcept>
#include <utility>

namespace dra {

/// Joules keyed by spindle RPM, in ascending RPM order: the idle-dwell
/// category of EnergyLedger and IdleOutcome. A disk only ever runs at its
/// numRpmLevels() speeds, so the entries live inline and charging a gap
/// never allocates; DiskTimingModel rejects parameters with more levels
/// than Capacity. The interface is the part of std::map<unsigned, double>
/// its users need, with the same key presence (operator[] inserts a zero
/// entry) and ascending [Rpm, Joules] iteration.
class RpmJoules {
public:
  static constexpr unsigned Capacity = 8;
  using value_type = std::pair<unsigned, double>;
  using iterator = value_type *;
  using const_iterator = const value_type *;

  /// The joules at \p Rpm, inserting a zero entry when absent.
  double &operator[](unsigned Rpm) {
    unsigned I = 0;
    while (I != N && Items[I].first < Rpm)
      ++I;
    if (I != N && Items[I].first == Rpm)
      return Items[I].second;
    if (N == Capacity)
      throw std::length_error("more RPM levels than RpmJoules::Capacity");
    for (unsigned J = N; J != I; --J)
      Items[J] = Items[J - 1];
    ++N;
    Items[I] = {Rpm, 0.0};
    return Items[I].second;
  }

  const_iterator find(unsigned Rpm) const {
    for (const_iterator It = begin(); It != end(); ++It)
      if (It->first == Rpm)
        return It;
    return end();
  }
  size_t count(unsigned Rpm) const { return find(Rpm) != end(); }
  const double &at(unsigned Rpm) const {
    const_iterator It = find(Rpm);
    if (It == end())
      throw std::out_of_range("no joules recorded at this RPM");
    return It->second;
  }

  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  iterator begin() { return Items; }
  iterator end() { return Items + N; }
  const_iterator begin() const { return Items; }
  const_iterator end() const { return Items + N; }

private:
  unsigned N = 0;
  value_type Items[Capacity];
};

/// Disjoint attribution of one disk's integrated energy. Every joule of
/// DiskStats::EnergyJ lands in exactly one category:
///
///   * active service, split by request direction (read/write);
///   * idle dwell at each RPM the spindle actually ran (full-speed idling
///     for Base/TPM, one entry per visited level for DRPM);
///   * spin-down transition energy spent inside idle gaps (TPM);
///   * compiler-hidden spin-up energy — proactive spin-ups that overlap the
///     gap and charge their energy without stalling the request (T-TPM-*);
///   * standby residency (TPM, after a completed spin-down);
///   * RPM-step transition energy: DRPM idle step-downs, proactive ramp-ups
///     and post-service emergency ramps;
///   * ready-delay penalty: energy charged while a request stalls on disk
///     readiness — reactive spin-ups, spin-down completions, mid-step RPM
///     transition completions, and the un-hidden part of proactive ramps.
struct EnergyLedger {
  double ActiveReadJ = 0.0;
  double ActiveWriteJ = 0.0;
  /// Idle dwell joules keyed by actual spindle RPM, so renderers need no
  /// DiskParams to name the levels.
  RpmJoules IdleByRpmJ;
  double SpinDownJ = 0.0;
  double SpinUpJ = 0.0;
  double StandbyJ = 0.0;
  double RpmStepJ = 0.0;
  double ReadyPenaltyJ = 0.0;

  void addIdle(unsigned Rpm, double Joules) { IdleByRpmJ[Rpm] += Joules; }

  double activeJ() const { return ActiveReadJ + ActiveWriteJ; }
  double idleJ() const;

  /// Sum over all categories. The audit invariant: equals the owning
  /// DiskStats::EnergyJ to ~1e-9 relative (FP summation order differs).
  double totalJ() const;

  EnergyLedger &operator+=(const EnergyLedger &O);
};

} // namespace dra

#endif // DRA_SIM_ENERGYLEDGER_H
