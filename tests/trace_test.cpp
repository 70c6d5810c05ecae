//===- tests/trace_test.cpp - trace generation and I/O tests -----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramBuilder.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dra;

namespace {

Program twoArrayProgram(int64_t N) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {N});
  ArrayId V = B.addArray("V", {N});
  B.beginNest("n", 2.0)
      .loop(0, N)
      .read(U, {iv(0)})
      .write(V, {iv(0)})
      .endNest();
  return B.build();
}

struct Ctx {
  Program P;
  IterationSpace Space;
  TileAccessTable Table;
  DiskLayout Layout;
  TraceGenerator Gen;

  explicit Ctx(Program Prog, StripingConfig C = StripingConfig())
      : P(std::move(Prog)), Space(P), Table(P, Space), Layout(P, C),
        Gen(P, Space, Layout, 4096, &Table) {}
};

} // namespace

TEST(TraceGenTest, OneRequestPerAccess) {
  Ctx C(twoArrayProgram(8));
  std::vector<GlobalIter> Order(8);
  for (GlobalIter I = 0; I != 8; ++I)
    Order[I] = I;
  Trace T = C.Gen.generateSingle(Order);
  EXPECT_EQ(T.size(), 16u); // 8 iterations x 2 accesses
  EXPECT_EQ(T.numProcs(), 1u);
}

TEST(TraceGenTest, ThinkTimeOnFirstAccessOnly) {
  Ctx C(twoArrayProgram(4));
  std::vector<GlobalIter> Order{0, 1, 2, 3};
  Trace T = C.Gen.generateSingle(Order);
  for (size_t I = 0; I != T.size(); ++I) {
    if (I % 2 == 0)
      EXPECT_DOUBLE_EQ(T.requests()[I].ThinkMs, 2.0);
    else
      EXPECT_DOUBLE_EQ(T.requests()[I].ThinkMs, 0.0);
  }
}

TEST(TraceGenTest, ArrivalsMonotonePerProc) {
  Ctx C(twoArrayProgram(8));
  std::vector<GlobalIter> Order{3, 1, 7, 0, 2};
  Trace T = C.Gen.generateSingle(Order);
  double Last = -1;
  for (const Request &R : T.requests()) {
    EXPECT_GT(R.ArrivalMs, Last);
    Last = R.ArrivalMs;
  }
}

TEST(TraceGenTest, ReadWriteKindsFollowAccesses) {
  Ctx C(twoArrayProgram(4));
  Trace T = C.Gen.generateSingle({0});
  ASSERT_EQ(T.size(), 2u);
  EXPECT_FALSE(T.requests()[0].IsWrite);
  EXPECT_TRUE(T.requests()[1].IsWrite);
}

TEST(TraceGenTest, BlockNumbersMatchLayout) {
  Ctx C(twoArrayProgram(4));
  Trace T = C.Gen.generateSingle({2});
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T.byteOffset(T.requests()[0]),
            C.Layout.tileByteOffset({0, 2}));
  EXPECT_EQ(T.byteOffset(T.requests()[1]),
            C.Layout.tileByteOffset({1, 2}));
  EXPECT_EQ(T.requests()[0].SizeBytes, C.Layout.tileBytes());
}

TEST(TraceGenTest, MultiProcTraceCarriesProcAndPhase) {
  Ctx C(twoArrayProgram(8));
  ScheduledWork W;
  W.PerProc = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  W.PhaseOf.assign(8, 0);
  W.PhaseOf[6] = 1;
  W.PhaseOf[7] = 1;
  Trace T = C.Gen.generate(W);
  EXPECT_EQ(T.numProcs(), 2u);
  uint64_t P0 = 0, P1 = 0, Phase1 = 0;
  for (const Request &R : T.requests()) {
    (R.Proc == 0 ? P0 : P1)++;
    if (R.Phase == 1)
      ++Phase1;
  }
  EXPECT_EQ(P0, 8u);
  EXPECT_EQ(P1, 8u);
  EXPECT_EQ(Phase1, 4u); // iterations 6 and 7, two requests each
}

TEST(TraceGenTest, TotalBytes) {
  Ctx C(twoArrayProgram(4));
  Trace T = C.Gen.generateSingle({0, 1, 2, 3});
  EXPECT_EQ(T.totalBytes(), 8 * C.Layout.tileBytes());
}

TEST(TraceGenTest, NominalServiceIncludesSeekRotTransfer) {
  Ctx C(twoArrayProgram(4));
  double Ms = C.Gen.nominalServiceMs(32 * 1024);
  // 3.4 (seek) + 2.0 (rotation) + 32KB / 55MBps.
  double Transfer = 32.0 / (55.0 * 1024) * 1000.0;
  EXPECT_NEAR(Ms, 5.4 + Transfer, 1e-9);
}

TEST(TraceIOTest, RoundTrip) {
  Ctx C(twoArrayProgram(8));
  ScheduledWork W;
  W.PerProc = {{0, 2, 4}, {1, 3, 5}};
  W.PhaseOf.assign(8, 0);
  W.PhaseOf[5] = 2;
  Trace T = C.Gen.generate(W);
  std::string Path = ::testing::TempDir() + "/dra_roundtrip.trace";
  ASSERT_TRUE(writeTraceFile(T, Path));
  auto Back = readTraceFile(Path);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->numProcs(), T.numProcs());
  EXPECT_EQ(Back->blockBytes(), T.blockBytes());
  ASSERT_EQ(Back->size(), T.size());
  for (size_t I = 0; I != T.size(); ++I) {
    const Request &A = T.requests()[I];
    const Request &B = Back->requests()[I];
    EXPECT_EQ(A.StartBlock, B.StartBlock);
    EXPECT_EQ(A.SizeBytes, B.SizeBytes);
    EXPECT_EQ(A.IsWrite, B.IsWrite);
    EXPECT_EQ(A.Proc, B.Proc);
    EXPECT_EQ(A.Phase, B.Phase);
    EXPECT_NEAR(A.ThinkMs, B.ThinkMs, 1e-3);
    EXPECT_NEAR(A.ArrivalMs, B.ArrivalMs, 1e-3);
  }
  std::remove(Path.c_str());
}

TEST(TraceIOTest, MissingFileFails) {
  EXPECT_FALSE(readTraceFile("/nonexistent/dir/trace.txt").has_value());
}

TEST(TraceIOTest, MalformedHeaderFails) {
  std::string Path = ::testing::TempDir() + "/dra_bad.trace";
  FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "# not-a-trace v1\nprocs 1\n");
  std::fclose(F);
  EXPECT_FALSE(readTraceFile(Path).has_value());
  std::remove(Path.c_str());
}

TEST(TraceIOTest, TruncatedBodyFails) {
  std::string Path = ::testing::TempDir() + "/dra_trunc.trace";
  FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "# dra-trace v1\nprocs 1\nblockbytes 4096\nnreq 3\n"
                  "0.0 0 4096 R 0 0.0 0\n");
  std::fclose(F);
  EXPECT_FALSE(readTraceFile(Path).has_value());
  std::remove(Path.c_str());
}

TEST(TraceIOTest, BadRequestKindFails) {
  std::string Path = ::testing::TempDir() + "/dra_kind.trace";
  FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "# dra-trace v1\nprocs 1\nblockbytes 4096\nnreq 1\n"
                  "0.0 0 4096 X 0 0.0 0\n");
  std::fclose(F);
  EXPECT_FALSE(readTraceFile(Path).has_value());
  std::remove(Path.c_str());
}

TEST(TraceIOTest, OutOfRangeProcFails) {
  std::string Path = ::testing::TempDir() + "/dra_proc.trace";
  FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "# dra-trace v1\nprocs 2\nblockbytes 4096\nnreq 1\n"
                  "0.0 0 4096 R 5 0.0 0\n");
  std::fclose(F);
  EXPECT_FALSE(readTraceFile(Path).has_value());
  std::remove(Path.c_str());
}

namespace {

/// Parses a trace file with \p Procs processors and the given request
/// lines (header written here).
std::optional<Trace> readRequests(const char *Name, unsigned Procs,
                                  const std::vector<std::string> &Lines) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  FILE *F = std::fopen(Path.c_str(), "w");
  EXPECT_NE(F, nullptr);
  if (!F)
    return std::nullopt;
  std::fprintf(F, "# dra-trace v1\nprocs %u\nblockbytes 4096\nnreq %zu\n",
               Procs, Lines.size());
  for (const std::string &L : Lines)
    std::fprintf(F, "%s\n", L.c_str());
  std::fclose(F);
  std::optional<Trace> T = readTraceFile(Path);
  std::remove(Path.c_str());
  return T;
}

} // namespace

TEST(TraceIOTest, NonFiniteOrNegativeTimeFails) {
  // %lf reads all of these; replay would assert on (or loop over) them.
  for (const char *Line :
       {"nan 0 4096 R 0 0.0 0", "-1.0 0 4096 R 0 0.0 0", "inf 0 4096 R 0 0.0 0",
        "0.0 0 4096 R 0 nan 0", "0.0 0 4096 R 0 -0.5 0",
        "0.0 0 4096 R 0 inf 0"})
    EXPECT_FALSE(readRequests("dra_time.trace", 1, {Line}).has_value())
        << Line;
  EXPECT_TRUE(readRequests("dra_time.trace", 1, {"0.0 0 4096 R 0 0.0 0"})
                  .has_value());
}

TEST(TraceIOTest, DecreasingPhaseOfOneProcFails) {
  // Phases may fall across processors in file order, never within one.
  EXPECT_TRUE(readRequests("dra_phase.trace", 2,
                           {"0.0 0 4096 R 0 0.0 2", "0.0 8 4096 R 1 0.0 0",
                            "1.0 16 4096 R 1 0.0 1", "1.0 24 4096 R 0 0.0 2"})
                  .has_value());
  EXPECT_FALSE(readRequests("dra_phase.trace", 2,
                            {"0.0 0 4096 R 0 0.0 2", "0.0 8 4096 R 1 0.0 0",
                             "1.0 16 4096 R 0 0.0 1"})
                   .has_value());
}

TEST(TraceTest, RequestsOfProcFiltersInOrder) {
  Trace T(2);
  for (int I = 0; I != 6; ++I) {
    Request R;
    R.Proc = I % 2;
    R.StartBlock = uint64_t(I);
    T.addRequest(R);
  }
  auto P1 = T.requestsOfProc(1);
  ASSERT_EQ(P1.size(), 3u);
  EXPECT_EQ(P1[0]->StartBlock, 1u);
  EXPECT_EQ(P1[2]->StartBlock, 5u);
}

TEST(TraceTest, RecordsPhaseCountsAndRejectsUnknownProcs) {
  // Tenants and phases arrive out of order, and phase 9 widens the count
  // rows after tenant 1's row exists.
  Trace T(2);
  auto Add = [&](uint32_t Proc, uint32_t Tenant, uint32_t Phase) {
    Request R;
    R.Proc = Proc;
    R.Tenant = Tenant;
    R.Phase = Phase;
    T.addRequest(R);
  };
  Add(0, 0, 1);
  Add(1, 1, 0);
  Add(0, 0, 1);
  Add(1, 1, 9);
  Add(0, 0, 2);
  Add(1, 2, 3);
  EXPECT_EQ(T.maxPhase(), 9u);
  EXPECT_EQ(T.maxTenant(), 2u);
  EXPECT_EQ(T.phaseCount(0, 1), 2u);
  EXPECT_EQ(T.phaseCount(0, 2), 1u);
  EXPECT_EQ(T.phaseCount(1, 0), 1u);
  EXPECT_EQ(T.phaseCount(1, 9), 1u);
  EXPECT_EQ(T.phaseCount(2, 3), 1u);
  EXPECT_EQ(T.phaseCount(0, 0), 0u);
  EXPECT_EQ(T.phaseCount(3, 0), 0u);
  EXPECT_EQ(T.phaseCount(0, 10), 0u);
  EXPECT_EQ(T.requestsOfProc(0).size(), 3u);
  EXPECT_EQ(T.requestsOfProc(1).size(), 3u);

  Request Bad;
  Bad.Proc = 2;
  EXPECT_THROW(T.addRequest(Bad), std::out_of_range);
  EXPECT_EQ(T.size(), 6u);
}

TEST(TraceTest, MaxPhase) {
  Trace T(1);
  Request R;
  T.addRequest(R);
  R.Phase = 7;
  T.addRequest(R);
  EXPECT_EQ(T.maxPhase(), 7u);
}
