//===- tests/disk_test.cpp - single-disk simulation tests --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Disk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

using namespace dra;

namespace {
constexpr uint64_t KiB32 = 32 * 1024;
} // namespace

TEST(DiskTest, FirstRequestFromColdIdle) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(1000.0, 0, KiB32, false);
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, /*Sequential=*/false);
  EXPECT_NEAR(C, 1000.0 + Svc, 1e-9);
  EXPECT_EQ(D.stats().NumRequests, 1u);
  EXPECT_NEAR(D.stats().BusyMs, Svc, 1e-9);
  // 1 s idle at 10.2 W plus the service energy.
  EXPECT_NEAR(D.stats().EnergyJ,
              10.2 * 1.0 + PM.activePowerW(P.MaxRpm) * Svc / 1000.0, 1e-6);
}

TEST(DiskTest, FcfsQueueing) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Second request arrives while the first is in service: it queues.
  double C2 = D.submit(1.0, 10 * KiB32 * 100, KiB32, false);
  EXPECT_GT(C1, 1.0);
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, false);
  EXPECT_NEAR(C2, C1 + Svc, 1e-9);
  // Response of the queued request includes the wait.
  EXPECT_NEAR(D.stats().ResponseSumMs, C1 + (C2 - 1.0), 1e-9);
}

TEST(DiskTest, SequentialSeekDiscount) {
  DiskParams P;
  P.SeqSeekMs = 0.5; // Non-default: exercise the sequential discount.
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Contiguous follow-up: sequential seek.
  double C2 = D.submit(C1, KiB32, KiB32, false);
  double SeqSvc = PM.serviceMs(KiB32, P.MaxRpm, /*Sequential=*/true);
  EXPECT_NEAR(C2 - C1, SeqSvc, 1e-9);
  // A far jump pays the average seek again.
  double C3 = D.submit(C2, 500 * 1024 * 1024, KiB32, false);
  double RandSvc = PM.serviceMs(KiB32, P.MaxRpm, false);
  EXPECT_NEAR(C3 - C2, RandSvc, 1e-9);
}

TEST(DiskTest, BackwardJumpIsNotSequential) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 500 * 1024 * 1024, KiB32, false);
  double C2 = D.submit(C1, 0, KiB32, false);
  EXPECT_NEAR(C2 - C1, PM.serviceMs(KiB32, P.MaxRpm, false), 1e-9);
}

TEST(DiskTest, TpmSpinUpDelaysService) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Arrive after a long gap: the disk is in standby and must spin up.
  double Arrive = C1 + 60000.0;
  double C2 = D.submit(Arrive, 0, KiB32, false);
  EXPECT_NEAR(C2 - Arrive,
              P.SpinUpS * 1000.0 + PM.serviceMs(KiB32, P.MaxRpm, false),
              1e-6);
  EXPECT_EQ(D.stats().SpinDowns, 1u);
  EXPECT_EQ(D.stats().SpinUps, 1u);
}

TEST(DiskTest, TpmShortGapNoTransition) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  D.submit(C1 + 5000.0, 0, KiB32, false);
  EXPECT_EQ(D.stats().SpinDowns, 0u);
  EXPECT_EQ(D.stats().SpinUps, 0u);
}

TEST(DiskTest, TpmEnergySavedOnLongGapVsBase) {
  DiskParams P;
  Disk Tpm(0, P, PowerPolicyKind::Tpm);
  Disk Base(1, P, PowerPolicyKind::None);
  double Gap = 300000.0; // 5 minutes
  for (Disk *D : {&Tpm, &Base}) {
    double C = D->submit(0.0, 0, KiB32, false);
    D->submit(C + Gap, 0, KiB32, false);
    D->finalize(C + Gap + 1000.0);
  }
  EXPECT_LT(Tpm.stats().EnergyJ, Base.stats().EnergyJ);
}

TEST(DiskTest, DrpmServicesSlowerAfterLongIdle) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Drpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Long gap: disk sinks to 3000 RPM and services the next request there.
  double Arrive = C1 + 120000.0;
  double C2 = D.submit(Arrive, 500 * 1024 * 1024, KiB32, false);
  EXPECT_NEAR(C2 - Arrive, PM.serviceMs(KiB32, P.MinRpm, false), 1e-6);
  EXPECT_GE(D.stats().RpmSteps, 4u);
}

TEST(DiskTest, DrpmRampBlocksDisk) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Drpm);
  double C = D.submit(0.0, 0, KiB32, false);
  C = D.submit(C + 120000.0, 500 * 1024 * 1024, KiB32, false); // at min now
  // Slow servicing drives the response EWMA over the ramp-up tolerance
  // within a few requests; the ramp transition occupies the disk, so the
  // next request waits for it.
  int Ramped = -1;
  for (int I = 0; I != 6 && Ramped < 0; ++I) {
    double BusyBefore = D.busyUntilMs();
    double C2 = D.submit(C, 0, KiB32, false);
    if (D.currentRpm() == P.MaxRpm) {
      Ramped = I;
      EXPECT_NEAR(D.busyUntilMs() - BusyBefore,
                  PM.serviceMs(KiB32, P.MinRpm, false) +
                      PM.rpmTransitionMs(4),
                  1e-6);
    }
    C = C2;
  }
  ASSERT_GE(Ramped, 0) << "EWMA never crossed the ramp-up tolerance";
}

TEST(DiskTest, FinalizeIntegratesTrailingIdle) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, KiB32, false);
  double Before = D.stats().EnergyJ;
  D.finalize(C + 10000.0);
  EXPECT_NEAR(D.stats().EnergyJ - Before, 10.2 * 10.0, 1e-9);
}

TEST(DiskTest, FinalizeBeforeBusyEndIsNoop) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, KiB32, false);
  double Before = D.stats().EnergyJ;
  D.finalize(C - 0.5);
  EXPECT_DOUBLE_EQ(D.stats().EnergyJ, Before);
}

TEST(DiskTest, IdleHistogramRecordsGaps) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, KiB32, false);
  C = D.submit(C + 2000.0, 0, KiB32, false);
  D.finalize(C + 8000.0);
  EXPECT_EQ(D.stats().IdleHist.totalCount(), 2u);
  EXPECT_NEAR(D.stats().IdleMsTotal, 10000.0, 1e-6);
}

TEST(DiskTest, EnergyConservationAgainstManualTimeline) {
  // Full manual cross-check of a 3-request TPM timeline.
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Tpm);
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, false);
  double SeqSvc = PM.serviceMs(KiB32, P.MaxRpm, true);
  double ActiveW = PM.activePowerW(P.MaxRpm);

  double C1 = D.submit(1000.0, 0, KiB32, false);        // idle 1 s first
  double C2 = D.submit(C1 + 2000.0, KiB32, KiB32, false); // 2 s gap, seq
  double Gap3 = 100000.0;                                 // spin down + up
  double C3 = D.submit(C2 + Gap3, 0, KiB32, false);
  D.finalize(C3);

  double Expected = 10.2 * 1.0 + ActiveW * Svc / 1000.0 // req 1
                    + 10.2 * 2.0 + ActiveW * SeqSvc / 1000.0 // req 2
                    + 10.2 * P.TpmBreakEvenS + 13.0          // idle + down
                    + 2.5 * (Gap3 / 1000.0 - P.TpmBreakEvenS - P.SpinDownS)
                    + 135.0                               // spin up
                    + ActiveW * Svc / 1000.0;             // req 3 (random)
  EXPECT_NEAR(D.stats().EnergyJ, Expected, 1e-6);
}

//===----------------------------------------------------------------------===//
// DiskTimingModel: the one timing model Disk owns and the sharded
// coordinator runs bare.
//===----------------------------------------------------------------------===//

namespace {

struct ModelCase {
  const char *Name;
  PowerPolicyKind Policy;
  bool TpmHints;
  bool DrpmHints;
};

/// A random gap before the next arrival, measured from the disk's busy
/// time: negative queues behind the disk; the rest land on both sides of
/// the DRPM idle step-down and of the TPM break-even, or far beyond both.
double randomGapMs(std::mt19937 &Rng, const DiskParams &P) {
  std::uniform_real_distribution<double> U(0.0, 1.0);
  double StepDownMs = P.DrpmIdleStepDownS * 1000.0;
  double BreakEvenMs = P.TpmBreakEvenS * 1000.0;
  switch (std::uniform_int_distribution<int>(0, 5)(Rng)) {
  case 0:
  case 1:
    return -5.0 * U(Rng);
  case 2:
    return 50.0 * U(Rng);
  case 3:
    return StepDownMs * (0.8 + 0.4 * U(Rng));
  case 4:
    return BreakEvenMs * (0.9 + 0.2 * U(Rng));
  default:
    return BreakEvenMs * (2.0 + 4.0 * U(Rng));
  }
}

} // namespace

TEST(DiskTimingModelTest, MatchesDiskAfterEveryFragment) {
  const ModelCase Cases[] = {
      {"None", PowerPolicyKind::None, false, false},
      {"TPM", PowerPolicyKind::Tpm, false, false},
      {"TPM+hints", PowerPolicyKind::Tpm, true, false},
      {"DRPM", PowerPolicyKind::Drpm, false, false},
      {"DRPM+hints", PowerPolicyKind::Drpm, false, true},
  };
  for (const ModelCase &C : Cases) {
    for (bool WithTimeline : {false, true}) {
      for (unsigned Seed = 1; Seed != 5; ++Seed) {
        SCOPED_TRACE(std::string(C.Name) + (WithTimeline ? " timeline" : "") +
                     " seed " + std::to_string(Seed));
        DiskParams P;
        P.TpmProactiveHints = C.TpmHints;
        P.DrpmProactiveHints = C.DrpmHints;
        TimelineRecorder TL(500.0);
        RunTimeline &Run = TL.beginRun("model", 1);
        Disk D(0, P, C.Policy, nullptr, 0,
               WithTimeline ? &Run.Disks[0] : nullptr);
        DiskTimingModel M(P, C.Policy);
        std::mt19937 Rng(Seed);
        uint64_t Gaps = 0;
        auto CountGap = [&Gaps](const IdleOutcome &, double, double) {
          ++Gaps;
        };

        double ArrivalMs = 0.0;
        uint64_t Offset = 0;
        unsigned Ramps = 0;
        for (unsigned I = 0; I != 400; ++I) {
          ArrivalMs =
              std::max(ArrivalMs, M.busyUntilMs() + randomGapMs(Rng, P));
          uint64_t Bytes = (1 + Rng() % 8) * KiB32;
          if (Rng() % 2)
            Offset = (Rng() % (1u << 15)) * KiB32; // else sequential
          bool IsWrite = Rng() % 4 == 0;
          FragmentTiming T = M.submit(ArrivalMs, Offset, Bytes, CountGap);
          double Completion = D.submit(ArrivalMs, Offset, Bytes, IsWrite);
          ASSERT_EQ(T.CompletionMs, Completion) << "fragment " << I;
          EXPECT_EQ(T.CompletionMs, T.ServiceStartMs + T.ServiceMs);
          EXPECT_EQ(M.busyUntilMs(), D.busyUntilMs()) << "fragment " << I;
          EXPECT_EQ(M.currentRpm(), D.currentRpm()) << "fragment " << I;
          Ramps += T.RampLevels != 0;
          Offset += Bytes;
        }
        double EndMs = M.busyUntilMs() + P.TpmBreakEvenS * 2000.0;
        M.finalize(EndMs, CountGap);
        D.finalize(EndMs);
        EXPECT_EQ(M.busyUntilMs(), D.busyUntilMs());
        EXPECT_EQ(M.currentRpm(), D.currentRpm());
        // One OnGap call per gap the Disk accounted, tail included.
        EXPECT_EQ(Gaps, D.stats().GapsBelowBreakEven +
                            D.stats().GapsAtLeastBreakEven);
        // Hints ramp every gap's tail back to full speed, so only reactive
        // DRPM services slowly enough to trip the emergency ramp.
        if (C.Policy == PowerPolicyKind::Drpm && !C.DrpmHints) {
          EXPECT_GT(Ramps, 0u) << "stream never hit a DRPM emergency ramp";
        }
      }
    }
  }
}
