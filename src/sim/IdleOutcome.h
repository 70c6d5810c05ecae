//===- sim/IdleOutcome.h - Idle-gap evaluation result -----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of lazily evaluating one disk idle gap under a power policy.
/// Policies are deterministic in the gap length, so the simulator can apply
/// them retroactively when the next request arrives (or at end of
/// simulation), which keeps the event loop simple and exact.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_IDLEOUTCOME_H
#define DRA_SIM_IDLEOUTCOME_H

#include "sim/EnergyLedger.h"

#include <cstddef>
#include <stdexcept>

namespace dra {

/// What the disk was doing during one contiguous slice of an idle gap
/// (obs/Timeline.h renders these as power-state lanes).
enum class GapPhase : unsigned char {
  Idle,     ///< Idle dwell at Rpm (full or reduced speed).
  SpinDown, ///< TPM spin-down in progress.
  Standby,  ///< TPM standby residency.
  Wake,     ///< Compiler-hidden spin-up inside the gap tail (TPM hints).
  RpmStep,  ///< DRPM speed transition (step-down or ramp).
};

/// One time-ordered slice of an idle gap. Invariants over a gap's slices:
///   sum of Ms            == the evaluated gap length
///   sum of Joules over {Idle, SpinDown, Standby, RpmStep} == GapEnergyJ
///   sum of Joules over {Wake} == (ReadyDelayMs == 0 ? ReadyEnergyJ : 0)
/// (a stalled wake burns its ReadyEnergyJ *after* the gap, so it is not a
/// slice; a hidden wake happens inside the gap and is).
struct GapSegment {
  GapPhase Phase = GapPhase::Idle;
  unsigned Rpm = 0; ///< Speed during the slice (Idle dwell only).
  double Ms = 0.0;
  double Joules = 0.0;
};

/// The slices of one gap, in time order, held inline so evaluating a gap
/// never allocates.
class GapSegments {
public:
  /// DRPM bounds the count: each of at most RpmJoules::Capacity levels
  /// contributes at most one idle dwell and one step down from it, and a
  /// proactive ramp adds one slice for the reserved ramp window. TPM needs
  /// at most four (idle, spin-down, standby, wake); no policy needs one.
  static constexpr unsigned Capacity = 2 * RpmJoules::Capacity;
  static_assert(Capacity >=
                    RpmJoules::Capacity + (RpmJoules::Capacity - 1) + 1,
                "a DRPM gap needs a dwell and a step per level plus a ramp");

  /// \throws std::length_error when the list already holds Capacity slices.
  void push_back(const GapSegment &S) {
    if (N == Capacity)
      throw std::length_error("more gap slices than GapSegments::Capacity");
    Items[N++] = S;
  }

  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  const GapSegment &operator[](size_t I) const { return Items[I]; }
  const GapSegment *begin() const { return Items; }
  const GapSegment *end() const { return Items + N; }

private:
  unsigned N = 0;
  GapSegment Items[Capacity];
};

/// What happened during an idle gap and what it costs to service the
/// request that ends it.
struct IdleOutcome {
  /// Energy consumed during the gap itself, in joules.
  double GapEnergyJ = 0.0;
  /// Attribution of GapEnergyJ (sim/EnergyLedger.h categories): idle dwell
  /// joules per spindle RPM plus the three transition/residency shares
  /// below. All four, and GapEnergyJ, are charged only by add(), so each
  /// equals the in-order sum of its slices.
  /// ReadyEnergyJ is deliberately not broken down here — the ledger
  /// attributes it wholesale (stalled -> ready penalty, hidden -> spin-up).
  RpmJoules IdleByRpmJ;
  double SpinDownEnergyJ = 0.0; ///< Spin-down share of GapEnergyJ (TPM).
  double StandbyEnergyJ = 0.0;  ///< Standby share of GapEnergyJ (TPM).
  double RpmStepEnergyJ = 0.0;  ///< RPM-transition share (DRPM steps/ramps).
  /// Extra delay after the gap before service can start (spin-up or an RPM
  /// transition still in flight), in milliseconds.
  double ReadyDelayMs = 0.0;
  /// Energy consumed during ReadyDelayMs, in joules.
  double ReadyEnergyJ = 0.0;
  /// RPM at which the ending request will be serviced.
  unsigned EndRpm = 0;
  /// Number of spin-downs that occurred (TPM; 0 or 1).
  unsigned SpinDowns = 0;
  /// Number of spin-ups that occurred (TPM; 0 or 1).
  unsigned SpinUps = 0;
  /// Number of one-step RPM transitions that occurred (DRPM).
  unsigned RpmSteps = 0;
  /// The gap's time-ordered slices: the one statement of where its energy
  /// went. Always filled; the timeline recorder renders them.
  GapSegments Segments;

  /// Appends the next slice of the gap and charges its joules to
  /// GapEnergyJ and the phase's category. A Wake slice charges neither: a
  /// hidden wake's joules are ReadyEnergyJ, which the ledger charges after
  /// the gap.
  void add(GapPhase Phase, unsigned Rpm, double Ms, double Joules) {
    Segments.push_back({Phase, Rpm, Ms, Joules});
    switch (Phase) {
    case GapPhase::Idle:
      GapEnergyJ += Joules;
      IdleByRpmJ[Rpm] += Joules;
      break;
    case GapPhase::SpinDown:
      GapEnergyJ += Joules;
      SpinDownEnergyJ += Joules;
      break;
    case GapPhase::Standby:
      GapEnergyJ += Joules;
      StandbyEnergyJ += Joules;
      break;
    case GapPhase::RpmStep:
      GapEnergyJ += Joules;
      RpmStepEnergyJ += Joules;
      break;
    case GapPhase::Wake:
      break;
    }
  }
};

} // namespace dra

#endif // DRA_SIM_IDLEOUTCOME_H
