//===- tests/sim_alloc_test.cpp - Simulator allocation regression ---------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Pins the simulator's per-run state as flat: a SimEngine::run allocates a
// fixed number of times for a given set of disks, attribution keys,
// processors and phases, however many requests it replays, and evaluating
// an idle gap never allocates at all. The test binary
// replaces the global operator new with a counting one (alloc_counter.cpp),
// which is why it is its own executable rather than part of dra_tests.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "sim/DiskTimingModel.h"
#include "sim/SimEngine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>

// Defined in alloc_counter.cpp together with the counting operator new (a
// separate file, so the replacement is never inlined into callers here).
void setAllocCounting(bool On);
uint64_t allocCount();

using namespace dra;

namespace {

/// A trace of \p Cycles repetitions of one fixed 48-request cycle: two
/// tenants of two processors each, two barrier phases per tenant, every
/// disk of \p L, three references of two nests, reads and writes, and
/// think times that leave short gaps, DRPM step-downs and TPM spin-downs.
/// Every cycle touches the same disks and attribution keys, so a flat
/// simulator allocates the same for any cycle count.
Trace cyclicTrace(const DiskLayout &L, unsigned Cycles) {
  const uint64_t Block = 4096;
  const uint64_t UnitBlocks = L.config().StripeUnitBytes / Block;
  Trace T(4, Block);
  for (uint32_t Phase = 0; Phase != 2; ++Phase) {
    for (unsigned C = 0; C != Cycles; ++C) {
      for (unsigned I = 0; I != 24; ++I) {
        Request R;
        R.Proc = I % 4;
        R.Tenant = R.Proc / 2;
        R.Phase = Phase;
        // Unit I % NumDisks lands on every disk; +1 block makes some
        // requests straddle into the next unit (two fragments).
        R.StartBlock = (I % L.numDisks()) * UnitBlocks + (I % 3 == 0);
        R.SizeBytes = UnitBlocks * Block;
        R.IsWrite = I % 5 == 0;
        R.ThinkMs = I % 11 == 0 ? 20000.0 : I % 7 == 0 ? 2500.0 : 1.0;
        R.Prov.Nest = I % 2;
        R.Prov.Ref = I % 3;
        R.Prov.Round = 0;
        T.addRequest(R);
      }
    }
  }
  return T;
}

struct AllocCase {
  PowerPolicyKind Policy;
  bool Attribution;
};

std::string caseName(const AllocCase &C) {
  const char *Policy = C.Policy == PowerPolicyKind::None  ? "None"
                       : C.Policy == PowerPolicyKind::Tpm ? "Tpm"
                                                           : "Drpm";
  return std::string(Policy) + (C.Attribution ? "Attributed" : "Plain");
}

void PrintTo(const AllocCase &C, std::ostream *OS) { *OS << caseName(C); }

class SimAllocTest : public ::testing::TestWithParam<AllocCase> {};

uint64_t allocsOfRun(const SimEngine &E, const Trace &T, SimResults &Out) {
  uint64_t Before = allocCount();
  setAllocCounting(true);
  Out = E.run(T);
  setAllocCounting(false);
  return allocCount() - Before;
}

} // namespace

TEST_P(SimAllocTest, AllocationsDoNotGrowWithRequests) {
  Program P = makeFft(0.05);
  DiskLayout L(P, StripingConfig());
  SimEngine E(L, DiskParams(), GetParam().Policy, CacheConfig(), nullptr,
              "sim", GetParam().Attribution);
  const unsigned N = 50;
  Trace Small = cyclicTrace(L, N), Large = cyclicTrace(L, 4 * N);

  SimResults RSmall, RLarge;
  // Warm up once so lazily initialized runtime state is not counted.
  allocsOfRun(E, Small, RSmall);
  uint64_t ASmall = allocsOfRun(E, Small, RSmall);
  uint64_t ALarge = allocsOfRun(E, Large, RLarge);

  ASSERT_EQ(RLarge.NumRequests, 4 * RSmall.NumRequests);
  ASSERT_GT(RSmall.NumFragments, RSmall.NumRequests); // Some split.
  if (GetParam().Policy == PowerPolicyKind::Tpm) {
    ASSERT_GT(RSmall.SpinDowns, 0u);
  }
  if (GetParam().Policy == PowerPolicyKind::Drpm) {
    ASSERT_GT(RSmall.RpmSteps, 0u);
  }
  EXPECT_EQ(ASmall, ALarge) << "SimEngine::run allocates per request: "
                            << ASmall << " allocations for "
                            << RSmall.NumRequests << " requests, " << ALarge
                            << " for " << RLarge.NumRequests;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndAttribution, SimAllocTest,
    ::testing::Values(AllocCase{PowerPolicyKind::None, false},
                      AllocCase{PowerPolicyKind::None, true},
                      AllocCase{PowerPolicyKind::Tpm, false},
                      AllocCase{PowerPolicyKind::Tpm, true},
                      AllocCase{PowerPolicyKind::Drpm, false},
                      AllocCase{PowerPolicyKind::Drpm, true}),
    [](const ::testing::TestParamInfo<AllocCase> &Info) {
      return caseName(Info.param);
    });

// Every gap's slices live inline in its IdleOutcome, so the timing model
// evaluates gaps allocation-free under every policy, with and without the
// compiler's proactive hints. The gap lengths cover sub-threshold idling,
// TPM mid-spin-down and standby, DRPM multi-level sinks, mid-step
// arrivals and proactive ramps.
TEST(GapAllocTest, GapEvaluationDoesNotAllocate) {
  const double GapsMs[] = {1.0,     500.0,   2030.0,  2090.0,  5000.0,
                           15500.0, 16000.0, 28000.0, 60000.0, 120000.0};
  for (PowerPolicyKind Policy :
       {PowerPolicyKind::None, PowerPolicyKind::Tpm, PowerPolicyKind::Drpm}) {
    for (bool Hints : {false, true}) {
      DiskParams P;
      P.TpmProactiveHints = Hints;
      P.DrpmProactiveHints = Hints;
      DiskTimingModel M(P, Policy);
      uint64_t Gaps = 0, Slices = 0;
      auto OnGap = [&](const IdleOutcome &O, double, double) {
        ++Gaps;
        Slices += O.Segments.size();
      };

      uint64_t Before = allocCount();
      setAllocCounting(true);
      for (unsigned I = 0; I != 2000; ++I)
        M.submit(M.busyUntilMs() + GapsMs[I % std::size(GapsMs)],
                 uint64_t(I % 7) * (64u << 20), 64 * 1024, OnGap);
      M.finalize(M.busyUntilMs() + 60000.0, OnGap);
      setAllocCounting(false);
      uint64_t Allocs = allocCount() - Before;

      SCOPED_TRACE(std::string(Policy == PowerPolicyKind::None  ? "None"
                               : Policy == PowerPolicyKind::Tpm ? "Tpm"
                                                                : "Drpm") +
                   (Hints ? " with hints" : ""));
      EXPECT_EQ(Gaps, 2001u);
      EXPECT_GE(Slices, Gaps);
      EXPECT_EQ(Allocs, 0u) << "gap evaluation allocates: " << Allocs
                            << " allocations over " << Gaps << " gaps";
    }
  }
}
